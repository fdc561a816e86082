#include "client.h"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>

#include "net/wire.h"
#include "runtime/stamp.h"
#include "util.h"

namespace duetbench {

using duet::Ipv4Address;
using duet::runtime::Endpoint;
using duet::runtime::RxPacket;
using duet::runtime::TxPacket;

namespace {
constexpr std::size_t kBatch = 64;
}  // namespace

struct OpenLoopClient::Sock {
  explicit Sock(duet::runtime::UdpSocket s) : sock(std::move(s)), io(kBatch), rx(kBatch) {
    for (auto& b : slots) b.reserve(2048);
  }
  duet::runtime::UdpSocket sock;
  duet::runtime::BatchIo io;
  std::vector<RxPacket> rx;
  std::vector<std::vector<std::uint8_t>> slots{kBatch};
  std::vector<TxPacket> tx;
  std::vector<std::uint64_t> tx_seq;
};

OpenLoopClient::OpenLoopClient(TrafficSpec spec, std::vector<duet::runtime::UdpSocket> sockets,
                               Endpoint target)
    : spec_(std::move(spec)), target_(target) {
  for (auto& s : sockets) {
    ports_.push_back(s.local().port);
    socks_.push_back(std::make_unique<Sock>(std::move(s)));
  }
  removals_ = std::make_unique<std::atomic<std::uint32_t>[]>(spec_.vips.size());
  for (std::size_t i = 0; i < spec_.vips.size(); ++i) removals_[i].store(0);
  period_ns_ = 1e9 / spec_.pps;
}

OpenLoopClient::~OpenLoopClient() = default;

std::size_t OpenLoopClient::flow_of(std::uint64_t seq) const {
  if (spec_.packets_per_flow == 0) return static_cast<std::size_t>(seq % spec_.flows);
  const std::uint64_t width = spec_.flows;
  const std::uint64_t block = width * spec_.packets_per_flow;
  return static_cast<std::size_t>((seq / block) * width + seq % width);
}

std::size_t OpenLoopClient::vip_index_of(std::size_t flow) const {
  return static_cast<std::size_t>(mix64(spec_.seed ^ (flow * 0x2545f4914f6cdd1dULL)) %
                                  spec_.vips.size());
}

duet::FiveTuple OpenLoopClient::tuple(std::size_t flow) const {
  duet::FiveTuple t;
  // Odd multiplier mod 2^24: distinct flows get distinct source addresses.
  const auto host = static_cast<std::uint32_t>((flow * 0x9e3779b1ULL + spec_.seed) & 0xffffffu);
  t.src = Ipv4Address{0x0a000000u | (host == 0 ? 1u : host)};
  t.dst = spec_.vips[vip_index_of(flow)];
  t.src_port = ports_[flow % ports_.size()];
  t.dst_port = 80;
  t.proto = duet::IpProto::kUdp;
  return t;
}

std::uint64_t OpenLoopClient::sched_ns(std::uint64_t seq) const {
  return start_ns_ +
         static_cast<std::uint64_t>(std::llround(static_cast<double>(seq - first_) * period_ns_));
}

void OpenLoopClient::build(std::uint64_t seq, std::uint64_t sched, std::vector<std::uint8_t>& out) const {
  out = duet::serialize_packet(
      duet::Packet{tuple(flow_of(seq)), static_cast<std::uint32_t>(spec_.packet_bytes)});
  duet::runtime::write_stamp(out, duet::runtime::Stamp{seq, sched});
}

void OpenLoopClient::note_dip_removed(std::size_t vip_index) {
  if (vip_index < spec_.vips.size()) removals_[vip_index].fetch_add(1, std::memory_order_acq_rel);
}

OpenLoopClient::Verdict OpenLoopClient::verify(std::span<const std::uint8_t> bytes, Endpoint from,
                                               std::uint64_t* seq_out) {
  const auto stamp = duet::runtime::read_stamp(bytes);
  if (!stamp.has_value() || stamp->seq < first_ ||
      stamp->seq - first_ >= count_ || stamp->send_ns != sched_ns(stamp->seq)) {
    return Verdict::kCorrupt;
  }
  build(stamp->seq, stamp->send_ns, expect_);
  if (bytes.size() != expect_.size() || !std::equal(bytes.begin(), bytes.end(), expect_.begin())) {
    return Verdict::kCorrupt;
  }
  *seq_out = stamp->seq;
  const std::size_t flow = flow_of(stamp->seq);
  if (flow >= seen_.size()) return Verdict::kCorrupt;
  FlowSeen& seen = seen_[flow];
  const std::uint32_t removals = removals_[vip_index_of(flow)].load(std::memory_order_acquire);
  if (seen.port == 0) {
    seen = FlowSeen{from.addr.value(), from.port, removals};
    return Verdict::kOk;
  }
  if (seen.addr == from.addr.value() && seen.port == from.port) return Verdict::kOk;
  // Another DIP answered: legal only if a DIP of this VIP was removed since
  // the flow's DIP was observed.
  if (removals == seen.removals) return Verdict::kRemap;
  seen = FlowSeen{from.addr.value(), from.port, removals};
  return Verdict::kOk;
}

void OpenLoopClient::prepare(std::uint64_t start_ns, std::uint64_t first_seq,
                             std::uint64_t count) {
  start_ns_ = start_ns;
  first_ = first_seq;
  count_ = count;
  // Long-lived flows recur; interleaved flows fill whole blocks of `flows`.
  const std::uint64_t block = spec_.flows * std::max<std::size_t>(1, spec_.packets_per_flow);
  const std::size_t flows = spec_.packets_per_flow == 0
                                ? spec_.flows
                                : static_cast<std::size_t>((first_seq + count) / block + 1) *
                                      spec_.flows;
  seen_.assign(flows, FlowSeen{});
}

ClientResult OpenLoopClient::run(std::uint64_t start_ns, std::uint64_t first_seq,
                                 std::uint64_t count, double linger_s, Tracer& tracer) {
  ClientResult r;
  prepare(start_ns, first_seq, count);
  r.scheduled = count;
  r.rtt_us.reserve(count);
  r.late_us.reserve(count);
  const double cpu0 = thread_cpu_s();
  // Sleep between datagrams instead of spinning: on a time-shared VM a
  // spinning client is what gets its vCPU stolen, and that lands in every
  // RTT. A 1 ns timer slack keeps ppoll's wake-up within microseconds.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto linger_ns = static_cast<std::uint64_t>(linger_s * 1e9);
  std::vector<pollfd> fds;
  for (const auto& s : socks_) fds.push_back(pollfd{s->sock.fd(), POLLIN, 0});

  const std::uint64_t end = first_seq + count;
  std::uint64_t seq = first_seq;
  const std::uint64_t linger_until = (count == 0 ? start_ns : sched_ns(end - 1)) + linger_ns;
  for (;;) {
    std::uint64_t now = now_ns();
    bool busy = false;

    // Send every datagram that is due, one batch per source socket.
    if (seq < end && sched_ns(seq) <= now) {
      busy = true;
      for (auto& s : socks_) {
        s->tx.clear();
        s->tx_seq.clear();
      }
      std::size_t staged = 0;
      while (seq < end && sched_ns(seq) <= now && staged < kBatch) {
        Sock& s = *socks_[flow_of(seq) % socks_.size()];
        auto& slot = s.slots[s.tx.size()];
        build(seq, sched_ns(seq), slot);
        s.tx.push_back(TxPacket{slot.data(), slot.size(), target_});
        s.tx_seq.push_back(seq);
        ++seq;
        ++staged;
      }
      const std::uint64_t id = tracer.enabled() ? tracer.next_id() : 0;
      SpanScope batch(tracer, "client.tx", id);
      for (auto& s : socks_) {
        if (s->tx.empty()) continue;
        const std::uint64_t t_send = now_ns();
        std::size_t n = 0;
        {
          SpanScope io(tracer, "client.send_batch", id, batch.handle());
          n = s->io.send_batch(s->sock.fd(), s->tx, 0);
        }
        for (std::size_t i = 0; i < s->tx.size(); ++i) {
          r.late_us.push_back(static_cast<float>(
              (static_cast<double>(t_send) - static_cast<double>(sched_ns(s->tx_seq[i]))) / 1e3));
        }
        r.sent += n;
        r.send_failures += s->tx.size() - n;
      }
    }

    // Collect echoes.
    for (auto& s : socks_) {
      const std::uint64_t t_a = now_ns();
      const std::size_t n = s->io.recv_batch(s->sock.fd(), s->rx);
      if (n == 0) continue;
      busy = true;
      const std::uint64_t t_b = now_ns();
      const std::uint64_t id = tracer.enabled() ? tracer.next_id() : 0;
      const std::int64_t h = tracer.begin_at("client.rx", id, -1, t_a);
      tracer.record("client.recv_batch", id, h, t_a, t_b);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t rseq = 0;
        switch (verify(s->rx[i].bytes, s->rx[i].from, &rseq)) {
          case Verdict::kOk:
            ++r.received;
            r.rtt_us.push_back(static_cast<float>(
                (static_cast<double>(t_b) - static_cast<double>(sched_ns(rseq))) / 1e3));
            break;
          case Verdict::kRemap:
            ++r.received;
            ++r.remap_violations;
            break;
          case Verdict::kCorrupt:
            ++r.integrity_failures;
            break;
        }
      }
      tracer.end(h);
    }

    now = now_ns();
    if (seq >= end && (r.received + r.integrity_failures >= r.sent || now > linger_until)) break;
    if (busy) continue;
    // Idle: sleep on the sockets until the next datagram is due.
    const std::uint64_t next = seq < end ? sched_ns(seq) : now + 1'000'000;
    if (next > now + 3'000) {
      const std::uint64_t wait = std::min<std::uint64_t>(next - now - 1'500, 1'000'000);
      timespec ts{0, static_cast<long>(wait)};
      (void)::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  }
  r.thread_cpu_s = thread_cpu_s() - cpu0;
  return r;
}

}  // namespace duetbench
