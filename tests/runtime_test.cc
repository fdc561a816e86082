// Live-runtime tests: real UDP sockets on loopback.
//
// The centerpiece is the sim/live equivalence test: a MuxServer (duetd's
// serving core), a FakeDipPool (echo DIPs), and an in-process LoadGenerator
// close a real packet loop, and every flow must land on exactly the DIP a
// PURE-SIMULATION Smux — same FlowHasher seed, same VIP→DIP sets — predicts
// for the same 5-tuples. That is the contract that makes the simulation
// results transferable to the live path: the wire never changes a decision.
//
// Every test binds only loopback sockets on kernel-assigned ports; if even
// that is unavailable (sandboxed build hosts), the tests skip.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/invariants.h"
#include "duet/smux.h"
#include "net/wire.h"
#include "runtime/event_loop.h"
#include "runtime/fake_dip.h"
#include "runtime/live_probe.h"
#include "runtime/load_gen.h"
#include "runtime/mux_server.h"
#include "runtime/stamp.h"
#include "runtime/udp.h"

namespace duet::runtime {
namespace {

constexpr auto kLoopback = Ipv4Address{127, 0, 0, 1};

bool loopback_available() {
  return UdpSocket::bind(Endpoint{kLoopback, 0}).has_value();
}

#define REQUIRE_LOOPBACK()                                        \
  do {                                                            \
    if (!loopback_available()) {                                  \
      GTEST_SKIP() << "no loopback UDP sockets in this sandbox";  \
    }                                                             \
  } while (0)

// The echo pool is Linux-only (IP_PKTINFO, SO_BINDTODEVICE).
#define REQUIRE_ECHO_POOL()                                               \
  do {                                                                    \
    REQUIRE_LOOPBACK();                                                   \
    if (!kFakeDipPoolAvailable) GTEST_SKIP() << "no echo pool off Linux"; \
  } while (0)

// --- Stamp ------------------------------------------------------------------------

TEST(Stamp, OffsetSurvivesEncapThenDecap) {
  const FiveTuple t{Ipv4Address{10, 1, 2, 3}, Ipv4Address{100, 0, 0, 1}, 9999, 80,
                    IpProto::kUdp};
  auto bytes = serialize_packet(Packet{t, 64});
  ASSERT_TRUE(write_stamp(bytes, Stamp{42, 1234567}));

  // Mux-side encap, then DIP-side decap (drop the outer 20 bytes).
  std::vector<std::uint8_t> out(bytes.size() + kIpv4HeaderBytes);
  const EncapHeader outer{Ipv4Address{192, 0, 2, 100}, Ipv4Address{10, 0, 0, 1}};
  ASSERT_EQ(encapsulate_on_wire(bytes, outer, out), out.size());

  // At depth 1 the stamp reads at the shifted offset…
  const auto deep = read_stamp(out, 1);
  ASSERT_TRUE(deep.has_value());
  EXPECT_EQ(deep->seq, 42u);
  // …and after decap it is back at depth 0, byte-identical.
  const auto shallow =
      read_stamp(std::span<const std::uint8_t>(out).subspan(kIpv4HeaderBytes), 0);
  ASSERT_TRUE(shallow.has_value());
  EXPECT_EQ(shallow->seq, 42u);
  EXPECT_EQ(shallow->send_ns, 1234567u);
}

// --- BatchIo ----------------------------------------------------------------------

TEST(BatchIo, RoundTripsABatchBetweenSockets) {
  REQUIRE_LOOPBACK();
  auto a = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto b = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(a.has_value() && b.has_value());

  BatchIo tx_io(16);
  BatchIo rx_io(16);
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<TxPacket> tx;
  for (std::uint8_t i = 0; i < 10; ++i) {
    payloads.emplace_back(32 + i, i);  // distinct sizes and fills
    tx.push_back(TxPacket{payloads.back().data(), payloads.back().size(), b->local()});
  }
  ASSERT_EQ(tx_io.send_batch(a->fd(), tx), tx.size());

  // Pool reuse invalidates spans on the next recv_batch call, so copy each
  // datagram out as it lands.
  std::vector<std::pair<std::vector<std::uint8_t>, Endpoint>> got;
  std::vector<RxPacket> rx(rx_io.batch());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < tx.size() && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = rx_io.recv_batch(b->fd(), rx);
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (const RxPacket& p : std::span<const RxPacket>(rx.data(), n)) {
      got.emplace_back(std::vector<std::uint8_t>(p.bytes.begin(), p.bytes.end()), p.from);
    }
  }
  ASSERT_EQ(got.size(), tx.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, payloads[i]);
    EXPECT_EQ(got[i].second, a->local());
  }
}

// --- EventLoop --------------------------------------------------------------------

TEST(EventLoop, DispatchesTicksAndStopsOnWake) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> ticks{0};
  std::thread runner([&] { loop.run(stop, 5, [&] { ticks.fetch_add(1); }); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true);
  loop.wake();
  runner.join();
  EXPECT_GE(ticks.load(), 3);
}

TEST(EventLoop, ReadCallbackFires) {
  REQUIRE_LOOPBACK();
  auto sock = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto sender = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(sock.has_value() && sender.has_value());
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  ASSERT_TRUE(loop.add(sock->fd(), [&] {
    std::uint8_t buf[64];
    while (::recv(sock->fd(), buf, sizeof(buf), 0) > 0) reads.fetch_add(1);
  }));
  std::thread runner([&] { loop.run(stop, 50, nullptr); });
  const std::vector<std::uint8_t> ping{1, 2, 3};
  ASSERT_TRUE(sender->send_to(ping, sock->local()));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reads.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  loop.wake();
  runner.join();
  EXPECT_EQ(reads.load(), 1);
}

TEST(EventLoop, OnWakeFiresWithoutWaitingForTheTick) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> ticks{0};
  std::atomic<int> wakes{0};
  std::thread runner([&] {
    loop.run(stop, 60000, [&] { ticks.fetch_add(1); }, [&] { wakes.fetch_add(1); });
  });
  const auto start = std::chrono::steady_clock::now();
  loop.wake();
  while (wakes.load() == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  stop.store(true);
  loop.wake();
  runner.join();
  EXPECT_GE(wakes.load(), 1);
  EXPECT_LT(waited, std::chrono::seconds(1));
  EXPECT_EQ(ticks.load(), 0);
}

TEST(EventLoop, OnWakeRunsBeforeTheRoundsReadCallbacks) {
  REQUIRE_LOOPBACK();
  auto sock = UdpSocket::bind(Endpoint{kLoopback, 0});
  auto sender = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(sock.has_value() && sender.has_value());
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  // Both a datagram and a wake are pending before the first round.
  std::vector<char> order;  // written by the loop thread only
  std::atomic<bool> stop{false};
  std::atomic<bool> read{false};
  ASSERT_TRUE(loop.add(sock->fd(), [&] {
    std::uint8_t buf[64];
    while (::recv(sock->fd(), buf, sizeof(buf), 0) > 0) order.push_back('r');
    read.store(true);
  }));
  const std::vector<std::uint8_t> ping{1, 2, 3};
  ASSERT_TRUE(sender->send_to(ping, sock->local()));
  loop.wake();

  std::thread runner([&] {
    loop.run(stop, 60000, nullptr, [&] { order.push_back('w'); });
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!read.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  loop.wake();
  runner.join();
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 'w');
  EXPECT_EQ(order[1], 'r');
}

// --- End-to-end loopback: sim/live equivalence ------------------------------------

struct LiveFixture {
  DuetConfig cfg;
  FlowHasher hasher{0xd0e7ULL};
  std::vector<Ipv4Address> vips;
  std::unordered_map<Ipv4Address, std::vector<Ipv4Address>> dips_of;
  std::unordered_map<Endpoint, Ipv4Address> dip_of_endpoint;

  FakeDipPool dips;
  MuxServer* mux = nullptr;

  // Builds `nv` VIPs with `nd` DIPs each, echo sockets included.
  bool build(MuxServer& server, std::size_t nv, std::size_t nd) {
    mux = &server;
    for (std::size_t v = 0; v < nv; ++v) {
      const Ipv4Address vip{static_cast<std::uint32_t>((100u << 24) + 256 * v + 1)};
      std::vector<Ipv4Address> pool;
      for (std::size_t d = 0; d < nd; ++d) {
        const Ipv4Address dip{
            static_cast<std::uint32_t>((10u << 24) + (v << 16) + d + 1)};
        const auto at = dips.add_dip(dip);
        if (!at.has_value()) return false;
        server.map_dip(dip, *at);
        dip_of_endpoint.emplace(*at, dip);
        pool.push_back(dip);
      }
      server.set_vip(vip, pool);
      dips_of.emplace(vip, std::move(pool));
      vips.push_back(vip);
    }
    return dips.start();
  }

  // The pure-simulation prediction for one flow.
  Ipv4Address predict(const FiveTuple& flow, Smux& reference) const {
    Packet p{flow, 64};
    if (!reference.process(p)) return Ipv4Address{};
    return p.outer().outer_dst;
  }
};

TEST(MuxServerLive, FlowsLandOnTheDipPureSimulationPredicts) {
  REQUIRE_ECHO_POOL();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 2;
  mopts.batch = 32;
  mopts.hasher = fx.hasher;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 2, 6));
  ASSERT_TRUE(mux.start());
  ASSERT_NE(mux.listen_endpoint().port, 0);

  LoadGenOptions lopts;
  lopts.target = mux.listen_endpoint();
  lopts.sockets = 2;  // spread flows over both SO_REUSEPORT workers
  lopts.window = 64;
  lopts.packet_bytes = 64;
  LoadGenerator gen(lopts);
  ASSERT_TRUE(gen.init());
  const auto flows = gen.make_flows(fx.vips, 64);
  ASSERT_EQ(flows.size(), 64u);

  const auto report = gen.run_closed(flows, 2000);

  // The loop closed: every packet resolved, nothing corrupted, no flow
  // bounced between DIPs mid-run.
  EXPECT_EQ(report.sent - report.retries, 2000u);
  EXPECT_GE(report.received, 1900u) << "loopback closed loop lost too much";
  EXPECT_EQ(report.integrity_failures, 0u);
  EXPECT_EQ(report.remap_violations, 0u);

  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();

  // Zero parse failures: every datagram the generator built was a valid
  // wire-format packet, and the mux never mangled one.
  EXPECT_EQ(mux.metrics().counter("duet.runtime.parse_failures").value(), 0u);
  for (const auto& [vip, pool] : fx.dips_of) {
    for (const auto dip : pool) EXPECT_EQ(fx.dips.rejects_at(dip), 0u);
  }

  // THE equivalence assertion: observed DIP == pure-sim prediction, per flow.
  Smux reference{0, fx.hasher, fx.cfg};
  for (const auto& vip : fx.vips) reference.set_vip(vip, fx.dips_of.at(vip));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Endpoint serving = report.dip_by_flow[f];
    ASSERT_NE(serving.port, 0) << "flow " << f << " never answered";
    const auto it = fx.dip_of_endpoint.find(serving);
    ASSERT_NE(it, fx.dip_of_endpoint.end()) << "flow " << f << " answered by a stranger";
    EXPECT_EQ(it->second, fx.predict(flows[f], reference))
        << "flow " << f << ": live decision diverged from simulation";
  }

  // Drained server: pins exist, and the live snapshot passes the same
  // invariant auditor the simulations run under.
  EXPECT_GT(mux.flow_table_size(), 0u);
  const auto audit_report = audit::InvariantAuditor{}.audit(mux.audit_snapshot());
  EXPECT_TRUE(audit_report.clean()) << audit_report.summary();
}

TEST(MuxServerLive, OpenLoopDrainsCleanlyOnShutdown) {
  REQUIRE_ECHO_POOL();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 1;
  mopts.hasher = fx.hasher;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 1, 4));
  ASSERT_TRUE(mux.start());

  LoadGenOptions lopts;
  lopts.target = mux.listen_endpoint();
  lopts.packet_bytes = 64;
  lopts.pps = 20e3;
  lopts.duration_s = 0.3;
  LoadGenerator gen(lopts);
  ASSERT_TRUE(gen.init());
  const auto flows = gen.make_flows(fx.vips, 16);
  const auto report = gen.run_open(flows);
  EXPECT_GT(report.sent, 0u);
  EXPECT_GT(report.received, 0u);

  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();

  auto& m = mux.metrics();
  const auto rx = m.counter("duet.runtime.rx_packets").value();
  const auto tx = m.counter("duet.runtime.tx_packets").value();
  EXPECT_GT(rx, 0u);
  EXPECT_LE(tx, rx);
  EXPECT_EQ(m.counter("duet.runtime.parse_failures").value(), 0u);
  // Echoed replies go straight to the generator, never back through the mux.
  EXPECT_LE(report.received, fx.dips.total_packets());
  EXPECT_GT(mux.flow_table_size(), 0u);
}

TEST(MuxServerLive, MalformedIngressCountsAsParseFailureNotCrash) {
  REQUIRE_ECHO_POOL();
  LiveFixture fx;
  MuxServerOptions mopts;
  mopts.workers = 1;
  MuxServer mux(mopts, fx.cfg);
  ASSERT_TRUE(fx.build(mux, 1, 2));
  ASSERT_TRUE(mux.start());

  auto sender = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(sender.has_value());
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02};
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(sender->send_to(junk, mux.listen_endpoint()));

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (mux.metrics().counter("duet.runtime.parse_failures").value() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mux.shutdown();
  mux.join();
  fx.dips.shutdown();
  fx.dips.join();
  EXPECT_EQ(mux.metrics().counter("duet.runtime.parse_failures").value(), 20u);
  EXPECT_EQ(mux.metrics().counter("duet.runtime.tx_packets").value(), 0u);
}

// --- Live reconfiguration -----------------------------------------------------------

// Ticks far longer than any deadline below: whatever converges here did so
// on the loop wake-up, not on the tick.
constexpr int kNoTickMs = 60000;

TEST(MuxServerLive, LiveUpdatesServeWithoutWaitingForTheTick) {
  REQUIRE_ECHO_POOL();
  FakeDipPool::Options dopts;
  dopts.tick_ms = kNoTickMs;
  FakeDipPool dips{dopts};
  MuxServerOptions mopts;
  mopts.tick_ms = kNoTickMs;
  MuxServer mux(mopts, DuetConfig{});
  ASSERT_TRUE(dips.start());
  ASSERT_TRUE(mux.start());
  auto probe = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(probe.has_value());

  // A fresh VIP on a DIP added to the running pool.
  const Ipv4Address vip{100, 0, 7, 1};
  const Ipv4Address dip{10, 7, 0, 1};
  const auto at = dips.add_dip(dip);
  ASSERT_TRUE(at.has_value());
  mux.apply_vip_update(vip, {dip}, {}, {{dip, *at}});
  EXPECT_GE(probe_until_echo(*probe, mux.listen_endpoint(), vip, 1000.0), 0.0)
      << "no echo within 1 s of apply_vip_update";
  EXPECT_GT(dips.packets_at(dip), 0u);

  // Let stray resends land, then remove the VIP: it must stop echoing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  drain_probe(*probe);
  mux.apply_vip_removal(vip);
  EXPECT_LT(probe_until_echo(*probe, mux.listen_endpoint(), vip, 200.0, 20.0), 0.0)
      << "the removed VIP still echoes";

  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();
  EXPECT_EQ(dips.rejects_at(dip), 0u);
}

TEST(MuxServerLive, StatelessVipReturnsToTheFastTierAfterADipChange) {
  REQUIRE_ECHO_POOL();
  DuetConfig cfg;
  cfg.smux_engine = SmuxEngine::kStateless;
  cfg.stateless_drain_idle_us = 20e3;  // old versions drain after 20 ms idle
  FakeDipPool dips;
  MuxServerOptions mopts;
  mopts.tick_ms = 10;
  MuxServer mux(mopts, cfg);
  const Ipv4Address vip{100, 0, 8, 1};
  const std::vector<Ipv4Address> pool{Ipv4Address{10, 8, 0, 1}, Ipv4Address{10, 8, 0, 2},
                                      Ipv4Address{10, 8, 0, 3}};
  for (const Ipv4Address dip : pool) {
    const auto at = dips.add_dip(dip);
    ASSERT_TRUE(at.has_value());
    mux.map_dip(dip, *at);
  }
  mux.set_vip(vip, {pool[0], pool[1]});
  ASSERT_TRUE(dips.start());
  ASSERT_TRUE(mux.start());
  auto probe = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(probe.has_value());
  const auto fast_hits = [&] { return mux.worker_stats()[0].fast_hits; };
  // Probes spaced wider than the drain window, so the slow path's own
  // bucket touches cannot keep the VIP unsettled.
  const auto hits_after_probes = [&](std::uint64_t base) {
    for (int i = 0; i < 40 && fast_hits() == base; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      EXPECT_GE(probe_until_echo(*probe, mux.listen_endpoint(), vip, 1000.0), 0.0);
    }
    return fast_hits() > base;
  };
  ASSERT_TRUE(hits_after_probes(0)) << "the stateless VIP was never admitted";

  // A DIP-set change: the rebuild it triggers rejects the VIP as unsettled
  // while the old version drains; the tick must re-admit it on its own.
  mux.apply_vip_update(vip, pool);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  drain_probe(*probe);
  EXPECT_TRUE(hits_after_probes(fast_hits()))
      << "the VIP never returned to the fast tier after its DIP change";

  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();
}

TEST(MuxServerLive, StatefulServerNeverRebuildsAnEmptyFastTier) {
  REQUIRE_ECHO_POOL();
  // The default (stateful) engine admits nothing, so a VIP change on a
  // worker whose table is empty must not walk the VIPs or swap a table.
  FakeDipPool::Options dopts;
  dopts.tick_ms = kNoTickMs;
  FakeDipPool dips{dopts};
  MuxServerOptions mopts;
  mopts.tick_ms = kNoTickMs;
  MuxServer mux(mopts, DuetConfig{});
  ASSERT_TRUE(dips.start());
  ASSERT_TRUE(mux.start());
  auto probe = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(probe.has_value());

  constexpr std::uint8_t kVips = 16;
  std::vector<Ipv4Address> vips;
  std::vector<Ipv4Address> pool_dips;
  std::vector<Endpoint> pool_at;
  for (std::uint8_t v = 0; v < kVips; ++v) {
    vips.push_back(Ipv4Address{100, 0, 9, static_cast<std::uint8_t>(v + 1)});
    pool_dips.push_back(Ipv4Address{10, 9, 0, static_cast<std::uint8_t>(v + 1)});
    const auto at = dips.add_dip(pool_dips.back());
    ASSERT_TRUE(at.has_value());
    pool_at.push_back(*at);
  }
  // Boot: the first VIP serves, so the worker has run its first snapshot.
  mux.apply_vip_update(vips[0], {pool_dips[0]}, {}, {{pool_dips[0], pool_at[0]}});
  ASSERT_GE(probe_until_echo(*probe, mux.listen_endpoint(), vips[0], 1000.0), 0.0);
  const std::uint64_t boot_rebuilds = mux.worker_stats()[0].fast_rebuilds;
  const std::uint64_t boot_wakes = mux.worker_stats()[0].wakes;

  // New VIPs, then a DIP change on each: 2 * kVips - 1 live updates.
  for (std::uint8_t v = 1; v < kVips; ++v) {
    mux.apply_vip_update(vips[v], {pool_dips[v]}, {}, {{pool_dips[v], pool_at[v]}});
  }
  for (std::uint8_t v = 0; v < kVips; ++v) {
    mux.apply_vip_update(vips[v], {pool_dips[v], pool_dips[(v + 1) % kVips]});
  }
  // The queue is FIFO: once the last VIP's second update serves, all did.
  drain_probe(*probe);
  ASSERT_GE(probe_until_echo(*probe, mux.listen_endpoint(), vips[kVips - 1], 1000.0), 0.0);

  const MuxServer::WorkerStatsSnapshot after = mux.worker_stats()[0];
  EXPECT_GT(after.wakes, boot_wakes) << "the updates never woke the worker";
  EXPECT_EQ(after.fast_rebuilds, boot_rebuilds)
      << "a stateful worker re-snapshotted its empty fast tier on a VIP change";

  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();
}

// --- FakeDipPool ---------------------------------------------------------------------

// Resident set size in bytes, or -1 where /proc/self/statm is unavailable.
long resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return got == 2 ? resident * ::sysconf(_SC_PAGESIZE) : -1;
}

// Open file descriptors of this process, or -1 where /proc/self/fd is
// unavailable.
long open_fds() {
  std::error_code ec;
  long n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/fd", ec), end; !ec && it != end;
       it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

// An IP-in-IP datagram for `outer_dst` whose inner packet comes from
// `inner_src` to the client's port, so its echo names the datagram.
std::vector<std::uint8_t> encapsulated(Ipv4Address inner_src, std::uint16_t client_port,
                                       Ipv4Address outer_dst) {
  const FiveTuple t{inner_src, Ipv4Address{100, 0, 9, 1}, client_port, 80, IpProto::kUdp};
  const auto inner = serialize_packet(Packet{t, 64});
  std::vector<std::uint8_t> wire(inner.size() + kIpv4HeaderBytes);
  encapsulate_on_wire(inner, EncapHeader{Ipv4Address{192, 0, 2, 100}, outer_dst}, wire);
  return wire;
}

struct Echo {
  Ipv4Address inner_src;  // names the datagram that was echoed
  Endpoint from;          // the identity that answered
};

// Echoes reaching `client` until `want` arrived or `timeout_ms` passed.
std::vector<Echo> collect_echoes(const UdpSocket& client, std::size_t want, int timeout_ms) {
  BatchIo io(64);
  std::vector<RxPacket> rx(io.batch());
  std::vector<Echo> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{client.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 10) <= 0) continue;
    const std::size_t n = io.recv_batch(client.fd(), rx);
    for (std::size_t k = 0; k < n; ++k) {
      const auto echo = parse_packet(rx[k].bytes);
      EXPECT_TRUE(echo.has_value()) << "an echo did not parse";
      if (echo.has_value()) got.push_back(Echo{echo->tuple().src, rx[k].from});
    }
  }
  return got;
}

TEST(FakeDipPool, ManyLiveDipsShareOneArena) {
  REQUIRE_ECHO_POOL();
  // As many echo DIPs as duetbench's 64x8 workloads, added to a RUNNING
  // pool. A per-DIP 64 x 2 KB I/O arena would cost ~68 MB here, and a
  // per-DIP socket 512 fds; the pool's one socket and arena cost neither.
  constexpr std::size_t kDips = 512;
  constexpr long kMaxGrowthBytes = 8L << 20;
  FakeDipPool dips;
  ASSERT_TRUE(dips.start());
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());

  std::vector<Ipv4Address> addrs;
  std::vector<Endpoint> ats;
  const long rss_before = resident_bytes();
  const long fds_before = open_fds();
  for (std::size_t i = 0; i < kDips; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>((10u << 24) + (50u << 16) + i + 1));
    const auto at = dips.add_dip(addrs.back());
    ASSERT_TRUE(at.has_value()) << "no endpoint for DIP " << i;
    ats.push_back(*at);
  }
  const long rss_after = resident_bytes();
  const long fds_after = open_fds();
  if (rss_before >= 0 && rss_after >= 0) {
    EXPECT_LT(rss_after - rss_before, kMaxGrowthBytes)
        << "RSS grew " << (rss_after - rss_before) / 1024 << " KB for " << kDips << " DIPs";
  }
  if (fds_before >= 0 && fds_after >= 0) {
    EXPECT_EQ(fds_after, fds_before) << "adding " << kDips << " DIPs opened file descriptors";
  }
  // Every identity is its own loopback endpoint, none of them 127.0.0.1.
  std::unordered_map<Endpoint, std::size_t> owner;
  for (std::size_t i = 0; i < kDips; ++i) {
    EXPECT_TRUE(owner.emplace(ats[i], i).second)
        << "DIPs " << owner[ats[i]] << " and " << i << " share " << ats[i].to_string();
    EXPECT_EQ(ats[i].addr.value() >> 24, 127u) << ats[i].to_string();
    EXPECT_NE(ats[i].addr, kLoopback);
  }

  // One encapsulated datagram per DIP. The inner source address carries the
  // DIP's index, so each echo names the DIP it was sent to.
  const Ipv4Address kSrcBase{10, 60, 0, 0};
  for (std::size_t i = 0; i < kDips; ++i) {
    const auto wire = encapsulated(Ipv4Address{static_cast<std::uint32_t>(kSrcBase.value() + i)},
                                   client->local().port, addrs[i]);
    ASSERT_TRUE(client->send_to(wire, ats[i]));
  }
  std::vector<int> echoes(kDips, 0);
  const auto got = collect_echoes(*client, kDips, 5000);
  EXPECT_EQ(got.size(), kDips);
  for (const Echo& e : got) {
    const std::size_t i = e.inner_src.value() - kSrcBase.value();
    ASSERT_LT(i, kDips);
    EXPECT_EQ(e.from, ats[i]) << "DIP " << i << " answered from another endpoint";
    ++echoes[i];
  }
  dips.shutdown();
  dips.join();
  for (std::size_t i = 0; i < kDips; ++i) {
    EXPECT_EQ(echoes[i], 1) << "DIP " << i;
    EXPECT_EQ(dips.packets_at(addrs[i]), 1u) << "DIP " << i;
    EXPECT_EQ(dips.rejects_at(addrs[i]), 0u) << "DIP " << i;
  }
}

TEST(FakeDipPool, DatagramForAnotherDipIsRejectedNotEchoed) {
  REQUIRE_ECHO_POOL();
  FakeDipPool dips;
  const Ipv4Address a{10, 70, 0, 1};
  const Ipv4Address b{10, 70, 0, 2};
  const auto at_a = dips.add_dip(a);
  const auto at_b = dips.add_dip(b);
  ASSERT_TRUE(at_a.has_value() && at_b.has_value());
  ASSERT_TRUE(dips.start());
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());

  // At A's endpoint but tunneled to B (a mux that mapped B onto A's
  // endpoint), then a good one: the socket is FIFO, so once the good echo
  // is back the bad datagram was handled.
  const Ipv4Address bad_src{10, 71, 0, 1};
  const Ipv4Address good_src{10, 71, 0, 2};
  ASSERT_TRUE(client->send_to(encapsulated(bad_src, client->local().port, b), *at_a));
  ASSERT_TRUE(client->send_to(encapsulated(good_src, client->local().port, a), *at_a));
  auto got = collect_echoes(*client, 1, 1000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].inner_src, good_src);
  EXPECT_EQ(got[0].from, *at_a);
  got = collect_echoes(*client, 1, 50);
  EXPECT_TRUE(got.empty()) << "the datagram for B was echoed";

  dips.shutdown();
  dips.join();
  EXPECT_EQ(dips.packets_at(a), 2u);
  EXPECT_EQ(dips.rejects_at(a), 1u);
  EXPECT_EQ(dips.packets_at(b), 0u);
  EXPECT_EQ(dips.rejects_at(b), 0u);
}

TEST(FakeDipPool, UnregisteredAddressOnThePoolsPortIsNotEchoed) {
  REQUIRE_ECHO_POOL();
  FakeDipPool dips;
  const Ipv4Address dip{10, 72, 0, 1};
  const auto at = dips.add_dip(dip);
  ASSERT_TRUE(at.has_value());
  ASSERT_TRUE(dips.start());
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());

  // Valid IP-in-IP for the registered DIP, but sent to loopback addresses
  // that are no DIP's identity (127.0.0.1 never is), then a good datagram.
  const Ipv4Address stray_src{10, 73, 0, 1};
  const Ipv4Address good_src{10, 73, 0, 2};
  for (const Ipv4Address stranger : {Ipv4Address{127, 0, 0, 1}, Ipv4Address{127, 0, 200, 9}}) {
    ASSERT_TRUE(client->send_to(encapsulated(stray_src, client->local().port, dip),
                                Endpoint{stranger, at->port}));
  }
  ASSERT_TRUE(client->send_to(encapsulated(good_src, client->local().port, dip), *at));
  auto got = collect_echoes(*client, 1, 1000);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].inner_src, good_src);
  got = collect_echoes(*client, 1, 50);
  EXPECT_TRUE(got.empty()) << "a datagram to an unregistered address was echoed";

  dips.shutdown();
  dips.join();
  EXPECT_EQ(dips.packets_at(dip), 1u);
  EXPECT_EQ(dips.rejects_at(dip), 0u);
  EXPECT_EQ(dips.total_packets(), 1u);
}

TEST(FakeDipPool, LiveAddEchoesTheFreshDipsFirstDatagram) {
  REQUIRE_ECHO_POOL();
  // Ticks far longer than the deadline: the add must not wait on the loop.
  FakeDipPool::Options dopts;
  dopts.tick_ms = kNoTickMs;
  FakeDipPool dips{dopts};
  ASSERT_TRUE(dips.start());
  auto client = UdpSocket::bind(Endpoint{kLoopback, 0});
  ASSERT_TRUE(client.has_value());

  for (std::uint8_t i = 1; i <= 8; ++i) {
    const Ipv4Address dip{10, 74, 0, i};
    const auto at = dips.add_dip(dip);
    ASSERT_TRUE(at.has_value());
    // Sent the instant add_dip returns, and sent once: no retry hides a
    // datagram that arrived before the pool knew the DIP.
    const Ipv4Address src{10, 75, 0, i};
    ASSERT_TRUE(client->send_to(encapsulated(src, client->local().port, dip), *at));
    const auto got = collect_echoes(*client, 1, 1000);
    ASSERT_EQ(got.size(), 1u) << "fresh DIP " << int{i} << " never echoed";
    EXPECT_EQ(got[0].inner_src, src);
    EXPECT_EQ(got[0].from, *at);
  }
  dips.shutdown();
  dips.join();
}

}  // namespace
}  // namespace duet::runtime
