#include "ops.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "net/wire.h"
#include "persist/ctl_protocol.h"
#include "runtime/stamp.h"
#include "util.h"

namespace duetbench {

using duet::Ipv4Address;
using duet::persist::Op;

namespace {

constexpr std::size_t kSpareDips = 64;
constexpr std::size_t kMinPool = 4;
constexpr double kProbeEveryMs = 0.5;
// A churn VIP is removed no sooner than this after its add-vip, so it has
// answered its probes first (the serving path applies updates every 50 ms).
constexpr double kChurnLifetimeS = 0.25;

// The full mix, repeated: 25 % add-vip, 25 % remove-vip, 15 % add-dip,
// 15 % remove-dip, 20 % migrate (alternately to a switch and back).
constexpr OpKind kFullPattern[] = {
    OpKind::kAddVip,    OpKind::kAddDip,    OpKind::kAddVip,    OpKind::kMigrate,
    OpKind::kRemoveVip, OpKind::kRemoveDip, OpKind::kAddVip,    OpKind::kAddDip,
    OpKind::kRemoveVip, OpKind::kMigrate,   OpKind::kAddVip,    OpKind::kRemoveDip,
    OpKind::kRemoveVip, OpKind::kAddDip,    OpKind::kAddVip,    OpKind::kMigrate,
    OpKind::kRemoveVip, OpKind::kRemoveDip, OpKind::kRemoveVip, OpKind::kMigrate};

Ipv4Address spare_dip(std::size_t i) {
  return Ipv4Address{10, 250, static_cast<std::uint8_t>(i / 250),
                     static_cast<std::uint8_t>(i % 250 + 1)};
}

std::vector<std::uint8_t> probe_datagram(Ipv4Address vip, std::uint16_t port, std::uint64_t tag,
                                         std::uint64_t t) {
  duet::FiveTuple ft;
  ft.src = Ipv4Address{11, 0, 0, 1};
  ft.dst = vip;
  ft.src_port = port;
  ft.dst_port = 80;
  ft.proto = duet::IpProto::kUdp;
  auto bytes = duet::serialize_packet(duet::Packet{ft, 64});
  duet::runtime::write_stamp(bytes, duet::runtime::Stamp{tag, t});
  return bytes;
}

// Drains the probe socket; calls on_echo(tag, vip) for each intact echo and
// returns the number of malformed ones.
template <typename F>
std::size_t drain_probe(duet::runtime::UdpSocket& probe, F&& on_echo) {
  std::size_t bad = 0;
  std::uint8_t buf[2048];
  for (;;) {
    const ssize_t n = ::recv(probe.fd(), buf, sizeof(buf), 0);
    if (n <= 0) return bad;
    const std::span<const std::uint8_t> bytes(buf, static_cast<std::size_t>(n));
    const auto stamp = duet::runtime::read_stamp(bytes);
    const auto pkt = duet::parse_packet(bytes);
    if (!stamp.has_value() || !pkt.has_value()) {
      ++bad;
      continue;
    }
    const auto expect =
        probe_datagram(pkt->tuple().dst, probe.local().port, stamp->seq, stamp->send_ns);
    if (!std::equal(bytes.begin(), bytes.end(), expect.begin(), expect.end())) {
      ++bad;
      continue;
    }
    on_echo(stamp->seq, pkt->tuple().dst);
  }
}

void wait_readable(const duet::runtime::UdpSocket& probe, std::uint64_t until_ns) {
  const std::uint64_t now = now_ns();
  if (until_ns <= now) return;
  pollfd pfd{probe.fd(), POLLIN, 0};
  timespec ts{0, static_cast<long>(std::min<std::uint64_t>(until_ns - now, 5'000'000))};
  (void)::ppoll(&pfd, 1, &ts, nullptr);
}

Ipv4Address churn_vip(std::size_t n) {
  return Ipv4Address{100, 64, static_cast<std::uint8_t>(n / 250),
                     static_cast<std::uint8_t>(n % 250 + 1)};
}

}  // namespace

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAddVip: return "add_vip";
    case OpKind::kAddDip: return "add_dip";
    case OpKind::kRemoveDip: return "remove_dip";
    case OpKind::kMigrate: return "migrate";
    case OpKind::kRemoveVip: return "remove_vip";
  }
  return "?";
}

std::vector<OpStep> make_op_stream(const OpMix& mix, const std::vector<ServedVip>& served,
                                   double seconds, std::uint64_t seed) {
  SeededRng rng(seed ^ 0x6f70735f73747265ULL);
  const auto count = static_cast<std::size_t>(std::llround(seconds * mix.ops_per_s));
  const double period = 1.0 / mix.ops_per_s;
  const auto min_gap = static_cast<std::size_t>(std::ceil(kChurnLifetimeS * mix.ops_per_s));

  std::vector<std::vector<Ipv4Address>> pools;
  for (const auto& s : served) pools.push_back(s.dips);
  std::vector<std::size_t> on_switch;
  std::deque<std::pair<std::size_t, std::size_t>> live;  // (churn number, added at step)
  std::size_t next_churn = 0;
  bool last_was_add = false;
  std::size_t migrations = 0;

  const auto pick_spare = [&](const std::vector<Ipv4Address>& avoid) {
    for (;;) {
      const Ipv4Address d = spare_dip(rng.below(kSpareDips));
      if (std::find(avoid.begin(), avoid.end(), d) == avoid.end()) return d;
    }
  };

  std::vector<OpStep> steps;
  steps.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    OpStep step;
    // Jitter inside the op's slot keeps the mean rate fixed while spreading
    // the ops over the serving path's 50 ms tick phase.
    step.due_s = (static_cast<double>(k) + 0.9 * rng.unit()) * period;
    // The kinds follow a fixed pattern, so every seed journals the same mix
    // and a restart replays the same kind of work; the seed picks targets,
    // addresses and timing.
    const bool can_remove_vip = !live.empty() && k - live.front().second >= min_gap;
    OpKind kind = mix.full ? kFullPattern[k % std::size(kFullPattern)]
                           : (last_was_add ? OpKind::kRemoveVip : OpKind::kAddVip);
    if (kind == OpKind::kRemoveVip && !can_remove_vip) kind = OpKind::kAddVip;
    if (kind == OpKind::kMigrate && mix.migrate_targets.empty()) kind = OpKind::kAddDip;
    last_was_add = kind == OpKind::kAddVip;
    if (kind == OpKind::kRemoveDip) {
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < pools.size(); ++i) {
        if (pools[i].size() > kMinPool) eligible.push_back(i);
      }
      if (eligible.empty()) {
        kind = OpKind::kAddDip;
      } else {
        step.served = eligible[rng.below(eligible.size())];
      }
    }
    step.kind = kind;
    Op& op = step.op;
    switch (kind) {
      case OpKind::kAddVip: {
        step.churn = next_churn++;
        const Ipv4Address vip = churn_vip(step.churn);
        const Ipv4Address a = spare_dip(rng.below(kSpareDips));
        const Ipv4Address b = pick_spare({a});
        step.argv = {"add-vip", vip.to_string(), a.to_string(), b.to_string()};
        op.kind = duet::persist::OpKind::kAddVip;
        op.vip = vip;
        op.addrs = {a.value(), b.value()};
        live.emplace_back(step.churn, k);
        break;
      }
      case OpKind::kRemoveVip: {
        step.churn = live.front().first;
        live.pop_front();
        const Ipv4Address vip = churn_vip(step.churn);
        step.argv = {"remove-vip", vip.to_string()};
        op.kind = duet::persist::OpKind::kRemoveVip;
        op.vip = vip;
        break;
      }
      case OpKind::kAddDip: {
        step.served = rng.below(served.size());
        const Ipv4Address d = pick_spare(pools[step.served]);
        pools[step.served].push_back(d);
        step.argv = {"add-dip", served[step.served].vip.to_string(), d.to_string()};
        op.kind = duet::persist::OpKind::kAddDip;
        op.vip = served[step.served].vip;
        op.dip = d;
        break;
      }
      case OpKind::kRemoveDip: {
        auto& pool = pools[step.served];
        const std::size_t at = rng.below(pool.size());
        const Ipv4Address d = pool[at];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
        step.argv = {"remove-dip", served[step.served].vip.to_string(), d.to_string()};
        op.kind = duet::persist::OpKind::kRemoveDip;
        op.vip = served[step.served].vip;
        op.dip = d;
        break;
      }
      case OpKind::kMigrate: {
        op.kind = duet::persist::OpKind::kMigrateVip;
        if (migrations++ % 2 == 1) {  // back to the SMux pool, oldest first
          step.served = on_switch.front();
          on_switch.erase(on_switch.begin());
          step.argv = {"migrate", served[step.served].vip.to_string(), "smux"};
          op.sw = duet::kInvalidSwitch;
        } else {
          std::size_t i = rng.below(served.size());
          while (std::find(on_switch.begin(), on_switch.end(), i) != on_switch.end()) {
            i = (i + 1) % served.size();
          }
          step.served = i;
          on_switch.push_back(i);
          const std::uint32_t sw = mix.migrate_targets[rng.below(mix.migrate_targets.size())];
          step.argv = {"migrate", served[i].vip.to_string(), std::to_string(sw)};
          op.sw = sw;
        }
        op.vip = served[step.served].vip;
        break;
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

double probe_until_echo(duet::runtime::UdpSocket& probe, duet::runtime::Endpoint mux,
                        Ipv4Address vip, double timeout_ms) {
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(timeout_ms * 1e6);
  const auto every = static_cast<std::uint64_t>(kProbeEveryMs * 1e6);
  std::uint64_t next_probe = t0;
  for (;;) {
    std::uint64_t now = now_ns();
    if (now >= next_probe) {
      (void)probe.send_to(probe_datagram(vip, probe.local().port, 0, now), mux);
      next_probe = now + every;
    }
    bool answered = false;
    drain_probe(probe, [&](std::uint64_t, Ipv4Address from_vip) { answered |= from_vip == vip; });
    now = now_ns();
    if (answered) return static_cast<double>(now - t0) / 1e6;
    if (now >= deadline) return -1.0;
    wait_readable(probe, std::min(next_probe, deadline));
  }
}

OpsResult drive_ops(const std::vector<OpStep>& steps, const std::string& socket_path,
                    duet::runtime::UdpSocket& probe, duet::runtime::Endpoint mux,
                    std::uint64_t start_ns, OpenLoopClient* client, Tracer& tracer) {
  OpsResult r;
  const double cpu0 = thread_cpu_s();
  duet::persist::CtlClient ctl(socket_path);
  struct Pending {
    std::size_t churn;
    Ipv4Address vip;
    std::uint64_t ack_ns;
    std::uint64_t next_probe_ns;
  };
  std::vector<Pending> pending;
  const auto every = static_cast<std::uint64_t>(kProbeEveryMs * 1e6);
  const auto fail = [&r](std::string what) {
    ++r.failed;
    if (r.errors.size() < 5) r.errors.push_back(std::move(what));
  };

  // Probes pending VIPs and collects echoes until `until_ns`.
  const auto service = [&](std::uint64_t until_ns) {
    for (;;) {
      std::uint64_t now = now_ns();
      std::uint64_t next = until_ns;
      for (Pending& p : pending) {
        if (now >= p.next_probe_ns) {
          (void)probe.send_to(probe_datagram(p.vip, probe.local().port, p.churn, now), mux);
          p.next_probe_ns = now + every;
        }
        next = std::min(next, p.next_probe_ns);
      }
      const std::size_t bad = drain_probe(probe, [&](std::uint64_t tag, Ipv4Address vip) {
        const auto it = std::find_if(pending.begin(), pending.end(), [&](const Pending& p) {
          return p.churn == tag && p.vip == vip;
        });
        if (it == pending.end()) return;  // a late echo of an answered probe
        r.ready_ms.push_back(static_cast<double>(now_ns() - it->ack_ns) / 1e6);
        pending.erase(it);
      });
      for (std::size_t i = 0; i < bad; ++i) fail("corrupted probe echo");
      now = now_ns();
      if (now >= until_ns) return;
      wait_readable(probe, std::min(next, until_ns));
    }
  };

  for (const OpStep& step : steps) {
    service(start_ns + static_cast<std::uint64_t>(step.due_s * 1e9));
    if (step.kind == OpKind::kRemoveVip) {
      const auto it = std::find_if(pending.begin(), pending.end(),
                                   [&](const Pending& p) { return p.churn == step.churn; });
      if (it != pending.end()) {
        fail("VIP " + it->vip.to_string() + " never answered before its removal");
        pending.erase(it);
      }
    }
    if (step.kind == OpKind::kRemoveDip && client != nullptr) client->note_dip_removed(step.served);
    const std::uint64_t id = tracer.enabled() ? tracer.next_id() : 0;
    SpanScope unit(tracer, "ctl.op", id);
    ++r.attempted;
    const std::uint64_t t0 = now_ns();
    std::optional<duet::persist::CtlResponse> resp;
    {
      SpanScope call(tracer, "ctl.request", id, unit.handle());
      resp = ctl.request(step.argv);
    }
    const std::uint64_t t1 = now_ns();
    if (!resp.has_value()) {
      fail(step.argv[0] + ": no reply");
      continue;
    }
    if (!resp->ok()) {
      fail(step.argv[0] + " " + step.argv[1] + ": " + resp->text);
      continue;
    }
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    r.ack_ms.push_back(ms);
    r.ack_ms_by_kind[static_cast<std::size_t>(step.kind)].push_back(ms);
    if (step.kind == OpKind::kAddVip) {
      ++r.attempted;  // the new VIP's first echo is an outcome of its own
      pending.push_back(Pending{step.churn, churn_vip(step.churn), t1, t1});
    }
  }
  // Let the last VIPs answer.
  const std::uint64_t deadline = now_ns() + 300'000'000;
  while (!pending.empty() && now_ns() < deadline) {
    service(std::min(deadline, now_ns() + 5'000'000));
  }
  for (const Pending& p : pending) fail("VIP " + p.vip.to_string() + " never answered");
  r.thread_cpu_s = thread_cpu_s() - cpu0;
  return r;
}

}  // namespace duetbench
