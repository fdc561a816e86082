#include "layers.h"

#include <poll.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "duet/assignment.h"
#include "duet/controller.h"
#include "duet/fast_tier.h"
#include "duet/smux.h"
#include "net/hash.h"
#include "net/wire.h"
#include "persist/op_log.h"
#include "runtime/fake_dip.h"
#include "runtime/mux_server.h"
#include "util.h"

namespace duetbench {

using duet::Ipv4Address;
using duet::runtime::Endpoint;
using duet::runtime::UdpSocket;

namespace {

const duet::Ipv4Prefix kAggregate{Ipv4Address{100, 0, 0, 0}, 8};

double ms_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

}  // namespace

std::size_t probe_datapath(const TrafficSpec& spec, const std::vector<ServedVip>& served,
                           duet::SmuxEngine engine, std::size_t batches, Tracer& tracer) {
  auto tx = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  auto sink = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  auto src = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!tx || !sink || !src) return 0;
  const Endpoint sink_at = sink->local();

  // The workload's own datagrams, in its own order.
  std::vector<UdpSocket> one;
  one.push_back(std::move(*src));
  OpenLoopClient gen(spec, std::move(one), Endpoint{});
  const std::size_t total = batches * kProbeBatch;
  gen.prepare(0, 0, total);
  std::vector<std::vector<std::uint8_t>> datagrams(total);
  for (std::size_t i = 0; i < total; ++i) gen.build(i, gen.sched_ns(i), datagrams[i]);

  const duet::FlowHasher hasher{spec.seed};
  duet::DuetConfig cfg;
  cfg.smux_engine = engine;
  duet::Smux smux(0, hasher, cfg);
  for (const auto& s : served) smux.set_vip(s.vip, s.dips);
  duet::FastTier fast(1);
  fast.rebuild(smux, 0.0);

  duet::runtime::BatchIo io_tx(kProbeBatch);
  duet::runtime::BatchIo io_rx(kProbeBatch);
  std::vector<duet::runtime::RxPacket> rx(kProbeBatch);
  std::vector<duet::Packet> pkts(kProbeBatch);
  std::vector<std::uint64_t> hashes(kProbeBatch);
  std::vector<Ipv4Address> chosen(kProbeBatch);
  std::vector<std::vector<std::uint8_t>> out(kProbeBatch, std::vector<std::uint8_t>(2048));
  std::vector<duet::runtime::TxPacket> items(kProbeBatch);
  const Ipv4Address self{192, 0, 2, 100};
  std::size_t sink_volume = 0;

  SpanScope whole(tracer, "probe.datapath", 0);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::uint64_t id = tracer.next_id();
    SpanScope unit(tracer, "probe.batch", id, whole.handle());
    const auto* in = &datagrams[b * kProbeBatch];
    {
      SpanScope s(tracer, "net.parse", id, unit.handle());
      for (std::size_t i = 0; i < kProbeBatch; ++i) {
        auto p = duet::parse_packet(in[i]);
        if (!p.has_value()) return 0;
        pkts[i] = std::move(*p);
      }
    }
    {
      SpanScope s(tracer, "net.hash", id, unit.handle());
      for (std::size_t i = 0; i < kProbeBatch; ++i) hashes[i] = hasher.hash(pkts[i].tuple());
    }
    std::size_t hits = 0;
    {
      SpanScope s(tracer, "fast_tier.lookup", id, unit.handle());
      const duet::FastTierTable* table = fast.acquire(0);
      for (std::size_t i = 0; i < kProbeBatch; ++i) {
        hits += table->lookup(pkts[i].tuple().dst.value(), hashes[i]) != nullptr;
      }
      fast.release(0);
    }
    (void)hits;
    {
      SpanScope s(tracer, "smux.decide", id, unit.handle());
      smux.process_batch(pkts, chosen, static_cast<double>(b) * 10.0);
    }
    {
      SpanScope s(tracer, "net.encap", id, unit.handle());
      for (std::size_t i = 0; i < kProbeBatch; ++i) {
        const std::size_t n = duet::encapsulate_on_wire(
            in[i], duet::EncapHeader{self, chosen[i]},
            std::span<std::uint8_t>(out[i].data(), in[i].size() + duet::kIpv4HeaderBytes));
        items[i] = duet::runtime::TxPacket{out[i].data(), n, sink_at};
      }
    }
    {
      SpanScope s(tracer, "runtime.send_batch", id, unit.handle());
      if (io_tx.send_batch(tx->fd(), items, 5) != kProbeBatch) return 0;
    }
    std::size_t got = 0;
    while (got < kProbeBatch) {
      std::size_t n = 0;
      {
        SpanScope s(tracer, "runtime.recv_batch", id, unit.handle());
        n = io_rx.recv_batch(sink->fd(), rx);
      }
      for (std::size_t i = 0; i < n; ++i) sink_volume += rx[i].bytes.size();
      got += n;
      if (n == 0) {
        pollfd pfd{sink->fd(), POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0) return 0;
      }
    }
  }
  return sink_volume > 0 ? batches : 0;
}

double probe_update_lag_ms(duet::SmuxEngine engine, std::size_t samples, std::uint64_t seed,
                           Tracer& tracer) {
  duet::runtime::FakeDipPool dips;
  const std::vector<Ipv4Address> pool{Ipv4Address{10, 251, 0, 1}, Ipv4Address{10, 251, 0, 2}};
  duet::runtime::MuxServerOptions mo;
  mo.hasher = duet::FlowHasher{seed};
  duet::DuetConfig cfg;
  cfg.smux_engine = engine;
  duet::runtime::MuxServer mux(mo, cfg);
  for (const auto d : pool) {
    const auto at = dips.add_dip(d);
    if (!at.has_value()) return -1.0;
    mux.map_dip(d, *at);
  }
  auto probe = UdpSocket::bind(Endpoint{Ipv4Address{127, 0, 0, 1}, 0});
  if (!probe || !dips.start()) return -1.0;
  if (!mux.start()) {
    dips.shutdown();
    dips.join();
    return -1.0;
  }
  SeededRng rng(seed ^ 0x6c6167ULL);
  std::vector<double> lag;
  SpanScope whole(tracer, "probe.update_lag", 0);
  for (std::size_t i = 0; i < samples; ++i) {
    // Spread the updates over the serving loop's tick phase.
    std::this_thread::sleep_for(std::chrono::microseconds(rng.below(50'000)));
    const Ipv4Address vip{100, 65, static_cast<std::uint8_t>(i / 250),
                          static_cast<std::uint8_t>(i % 250 + 1)};
    const std::uint64_t id = tracer.next_id();
    SpanScope unit(tracer, "mux.update", id, whole.handle());
    const std::uint64_t t0 = now_ns();
    {
      SpanScope s(tracer, "mux.apply_vip_update", id, unit.handle());
      mux.apply_vip_update(vip, pool);
    }
    double waited = 0.0;
    {
      SpanScope s(tracer, "mux.first_echo", id, unit.handle());
      waited = probe_until_echo(*probe, mux.listen_endpoint(), vip, 1000.0);
    }
    if (waited < 0) break;
    lag.push_back(ms_since(t0));
  }
  mux.shutdown();
  mux.join();
  dips.shutdown();
  dips.join();
  return lag.size() == samples ? median(lag) : -1.0;
}

double probe_append_us(const std::vector<OpStep>& steps, const std::string& root,
                       std::size_t samples, Tracer& tracer) {
  auto dir = ScratchDir::make(root);
  if (!dir.has_value() || steps.empty()) return -1.0;
  auto log = duet::persist::OpLog::open(dir->path() + "/oplog.duet",
                                        duet::persist::FsyncPolicy::kEveryRecord, 1);
  if (!log.has_value()) return -1.0;
  std::vector<double> us;
  SpanScope whole(tracer, "probe.append", 0);
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint64_t id = tracer.next_id();
    SpanScope s(tracer, "persist.append", id, whole.handle());
    const std::uint64_t t0 = now_ns();
    if (!log->append(steps[i % steps.size()].op).has_value()) return -1.0;
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

std::vector<double> probe_controller_apply(const std::vector<ServedVip>& served,
                                           duet::SmuxEngine engine, bool pin_half,
                                           const std::vector<OpStep>& steps,
                                           std::uint64_t seed, Tracer& tracer) {
  // duetd's controller, built the way Duetd::start builds it.
  const auto fabric = duet::build_fattree(duet::FatTreeParams::scaled(2, 4, 2));
  duet::DuetConfig cfg;
  cfg.smux_engine = engine;
  duet::DuetController twin(fabric, cfg, duet::FlowHasher{seed}, seed);
  const auto& tors = fabric.tors;
  twin.deploy_smuxes({tors.front(), tors[tors.size() / 2], tors.back()}, kAggregate);
  for (std::size_t i = 0; i < served.size(); ++i) {
    twin.add_vip(served[i].vip, served[i].dips);
    if (pin_half && i % 2 == 1) twin.set_engine_override(served[i].vip, duet::SmuxEngine::kStateful);
  }
  std::vector<std::vector<double>> us(kOpKinds);
  SpanScope whole(tracer, "probe.controller", 0);
  for (const OpStep& step : steps) {
    static const char* kSpan[kOpKinds] = {"controller.add_vip", "controller.add_dip",
                                          "controller.remove_dip", "controller.migrate",
                                          "controller.remove_vip"};
    const auto k = static_cast<std::size_t>(step.kind);
    const std::uint64_t id = tracer.next_id();
    SpanScope s(tracer, kSpan[k], id, whole.handle());
    const std::uint64_t t0 = now_ns();
    duet::persist::apply_op(twin, step.op);
    us[k].push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  std::vector<double> out;
  for (const auto& v : us) out.push_back(v.empty() ? std::nan("") : median(v));
  return out;
}

PlanProbe probe_plan(const PlanInputs& in, std::size_t epochs, Tracer& tracer) {
  PlanProbe p;
  epochs = std::min(epochs, in.demands.size());
  duet::AssignmentOptions opts;
  opts.host_table_capacity = in.config.host_table_capacity;
  const duet::VipAssigner assigner(in.fabric, opts);
  std::vector<double> scratch;
  std::vector<double> sticky;
  SpanScope whole(tracer, "probe.plan", 0);
  duet::Assignment prev;
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint64_t id = tracer.next_id();
    SpanScope unit(tracer, "probe.epoch", id, whole.handle());
    std::uint64_t t0 = now_ns();
    duet::Assignment fresh;
    {
      SpanScope s(tracer, "assign.scratch", id, unit.handle());
      fresh = assigner.assign(in.demands[e]);
    }
    scratch.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (e == 0) {
      prev = std::move(fresh);
      continue;
    }
    t0 = now_ns();
    {
      SpanScope s(tracer, "assign.sticky", id, unit.handle());
      prev = assigner.assign_sticky(in.demands[e], prev);
    }
    sticky.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  p.scratch_s = median(scratch);
  p.sticky_s = median(sticky);

  duet::DuetController twin(in.fabric, in.config, duet::FlowHasher{in.seed}, in.seed);
  for (const auto& op : in.install) duet::persist::apply_op(twin, op);
  std::vector<double> run;
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint64_t id = tracer.next_id();
    SpanScope s(tracer, "controller.run_epoch", id, whole.handle());
    const std::uint64_t t0 = now_ns();
    twin.run_epoch(in.demands[e], e > 0);
    if (e > 0) run.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  p.run_epoch_s = median(run);

  const duet::audit::InvariantAuditor auditor;
  std::vector<double> audit_ms;
  p.audit_clean = true;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t id = tracer.next_id();
    SpanScope s(tracer, "audit.run", id, whole.handle());
    const std::uint64_t t0 = now_ns();
    auto report = auditor.audit(duet::audit::SystemSnapshot::capture(twin));
    report.merge(auditor.audit_journal(twin.journal()));
    audit_ms.push_back(ms_since(t0));
    p.audit_clean = p.audit_clean && report.clean();
  }
  p.audit_ms = median(audit_ms);

  duet::persist::Op op;
  op.kind = duet::persist::OpKind::kRunEpoch;
  op.flag = true;
  op.demands = in.demands[std::min<std::size_t>(1, in.demands.size() - 1)];
  p.epoch_op_bytes = duet::persist::encode_op(op).size();
  return p;
}

}  // namespace duetbench
