// BENCH_live — the live runtime (duetd + duetload) on loopback.
//
// Two phases over one MuxServer + FakeDipPool deployment, plus an optional
// aggregate multi-worker phase (phase 3) over a second deployment:
//   (1) closed loop: windowed request/response with full per-packet
//       accounting — the RTT histogram (duet.loadgen.rtt_us) is complete,
//       so the latency percentiles are trustworthy. Then the update lag on
//       the same deployment: 50 times, a fresh VIP on a fresh echo DIP is
//       pushed with one apply_vip_update that carries the DIP's endpoint
//       (duetd's path: one wake per worker) and probed every 0.2 ms
//       until its first echo (duet.live.update_lag_p{50,99}_ms) — the live
//       counterpart of the paper's Fig 14 "time until the new placement
//       serves". Each fresh add_dip is timed on its own
//       (duet.live.add_dip_us_p50): a DIP is a loopback identity on the
//       pool's one socket, so adding one is a table insert — no syscall,
//       no fd, no I/O arena;
//   (2) open loop: paced at DUET_LIVE_PPS (default 400 K) for
//       DUET_LIVE_SECONDS — the throughput number. The acceptance line is
//       >= 300 Kpps sustained on loopback with ZERO parse failures (every
//       datagram on the wire is a valid nested-IPv4 Duet packet). 300 Kpps
//       is the paper's Fig 1/11 single-SMux saturation point — the batched
//       hot path (DESIGN.md §12) clears it on one worker; the seed
//       (per-packet std::unordered_map path) sustained ~100 K on the same
//       floor, recorded in the seed_floor_pps gauge.
//
// The floor is a CAPABILITY gate, so phase 2 is best-of-N: with loadgen,
// mux, and echo DIPs timesharing the cores of a small runner, any single
// 2-second window is at the mercy of scheduler rhythm (observed spread on
// one core: ~230 K to ~435 K for identical binaries). Up to
// DUET_LIVE_ATTEMPTS (default 3) open-loop runs, stopping at the first
// that clears the floor; the best attempt is the reported number. Wire
// corruption in ANY attempt still fails — bugs don't get retries.
//
// The merged registries (mux + both generators + headline gauges) land in
// BENCH_live.json. Exit status: 0 on success or a skipped sandbox, 1 when
// the wire was corrupted (parse failures / integrity / remap violations) —
// a real bug, not machine variance. A below-target pps prints a warning by
// default (shared CI machines can't promise cycles); DUET_LIVE_STRICT=1
// makes it exit 1 — the CI perf-smoke leg's acceptance gate. The same holds
// for an update-lag p50 above 5 ms and an add_dip p50 above 30 us; a fresh
// VIP that never echoes within 1 s always fails.
//
// Phase 3 (aggregate): a second deployment — stateless engine so the
// in-process fast tier serves, pin_cpus workers behind one SO_REUSEPORT
// group, DUET_LIVE_AGG_GENS paced generators running concurrently — gated
// on >= DUET_LIVE_AGG_MIN_PPS (default 1 Mpps) AGGREGATE send rate, the
// paper's scale-out claim (§5.2: capacity grows linearly with SMux count).
// The phase SKIPS (exit 0) without batched io or enough CPUs for
// workers + generators + the echo pool; below-floor is a warning unless
// DUET_LIVE_AGG_STRICT=1. Corruption in any phase always fails.
//
// Env knobs: DUET_LIVE_SECONDS, DUET_LIVE_PPS, DUET_LIVE_MIN_PPS,
// DUET_LIVE_WORKERS, DUET_LIVE_ATTEMPTS, DUET_LIVE_STRICT,
// DUET_LIVE_AGG_{WORKERS,GENS,PPS,MIN_PPS,SECONDS,ATTEMPTS,STRICT},
// DUET_BENCH_QUICK (halves the phases).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "duet/config.h"
#include "net/hash.h"
#include "runtime/fake_dip.h"
#include "runtime/live_probe.h"
#include "runtime/load_gen.h"
#include "runtime/mux_server.h"
#include "util/stats.h"

using namespace duet;

namespace {

double env_or(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? std::strtod(v, nullptr) : fallback;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

}  // namespace

int main() {
  bench::header("live", "duetd loopback throughput and latency (real UDP sockets)");

  constexpr auto kLoopback = Ipv4Address{127, 0, 0, 1};
  if (!runtime::UdpSocket::bind(runtime::Endpoint{kLoopback, 0}).has_value()) {
    std::printf("SKIP: no loopback UDP sockets in this sandbox\n");
    return 0;
  }
  std::printf("batched io (recvmmsg/sendmmsg): %s\n",
              runtime::kBatchIoAvailable ? "available" : "fallback (one syscall per packet)");

  const bool quick = bench::quick_mode();
  const double duration_s = env_or("DUET_LIVE_SECONDS", quick ? 1.0 : 2.0);
  const double pps = env_or("DUET_LIVE_PPS", 400e3);
  const double min_pps = env_or("DUET_LIVE_MIN_PPS", 300e3);
  const auto workers = static_cast<std::size_t>(env_or("DUET_LIVE_WORKERS", 1));
  const auto max_attempts = std::max<std::size_t>(
      1, static_cast<std::size_t>(env_or("DUET_LIVE_ATTEMPTS", 3)));
  const char* strict_env = std::getenv("DUET_LIVE_STRICT");
  const bool strict = strict_env != nullptr && strict_env[0] != '\0' && strict_env[0] != '0';
  const std::uint64_t closed_packets = quick ? 2000 : 10000;

  // One deployment for both phases: 2 VIPs x 4 echo DIPs. One worker by
  // default: the 300 Kpps floor is a single-core claim (Fig 1/11), and on
  // small machines the loadgen + DIP echo threads need the other cores.
  const FlowHasher hasher{0xd0e7ULL};
  runtime::MuxServerOptions mo;
  mo.workers = workers;
  mo.hasher = hasher;
  runtime::MuxServer mux{mo, DuetConfig{}};
  runtime::FakeDipPool dips;
  std::vector<Ipv4Address> vips;
  std::vector<std::vector<Ipv4Address>> pools;  // per-VIP, reused by phase 3
  std::vector<std::pair<Ipv4Address, runtime::Endpoint>> dip_endpoints;
  for (std::size_t v = 0; v < 2; ++v) {
    const Ipv4Address vip{static_cast<std::uint32_t>((100u << 24) + 256 * v + 1)};
    std::vector<Ipv4Address> pool;
    for (std::size_t d = 0; d < 4; ++d) {
      const Ipv4Address dip{static_cast<std::uint32_t>((10u << 24) + (v << 16) + d + 1)};
      const auto at = dips.add_dip(dip);
      if (!at.has_value()) {
        std::printf("SKIP: no echo DIP pool on this host\n");
        return 0;
      }
      mux.map_dip(dip, *at);
      dip_endpoints.emplace_back(dip, *at);
      pool.push_back(dip);
    }
    mux.set_vip(vip, pool);
    pools.push_back(std::move(pool));
    vips.push_back(vip);
  }
  if (!dips.start() || !mux.start()) {
    std::printf("SKIP: could not start the loopback deployment\n");
    return 0;
  }

  // Phase 1: closed-loop RTT.
  runtime::LoadGenOptions closed_opts;
  closed_opts.target = mux.listen_endpoint();
  closed_opts.sockets = 2;
  closed_opts.window = 64;
  closed_opts.packet_bytes = 128;
  runtime::LoadGenerator closed_gen{closed_opts};
  if (!closed_gen.init()) {
    std::printf("SKIP: could not bind load sockets\n");
    return 0;
  }
  const auto closed_flows = closed_gen.make_flows(vips, 64);
  std::printf("\nphase 1: closed loop, %llu packets over %zu flows\n",
              static_cast<unsigned long long>(closed_packets), closed_flows.size());
  const auto closed = closed_gen.run_closed(closed_flows, closed_packets);
  const auto* rtt = closed_gen.metrics().find_histogram("duet.loadgen.rtt_us");
  TablePrinter t1{{"metric", "value"}};
  t1.add_row({"received / sent", TablePrinter::fmt_int(static_cast<long long>(closed.received)) +
                                     " / " +
                                     TablePrinter::fmt_int(static_cast<long long>(closed.sent))});
  if (rtt != nullptr && !rtt->empty()) {
    t1.add_row({"rtt p50 (us)", TablePrinter::fmt(rtt->percentile(50), "%.0f")});
    t1.add_row({"rtt p90 (us)", TablePrinter::fmt(rtt->percentile(90), "%.0f")});
    t1.add_row({"rtt p99 (us)", TablePrinter::fmt(rtt->percentile(99), "%.0f")});
    t1.add_row({"rtt max (us)", TablePrinter::fmt(rtt->max(), "%.0f")});
  }
  t1.print();

  // Update lag on the phase-1 deployment: how long a control change takes
  // to serve. Each sample adds a fresh echo DIP to the running pool,
  // pushes a fresh VIP onto it with the DIP's endpoint in the same update,
  // as duetd does, and probes until the first echo. The clock starts before
  // the add, so it covers the add and the mux's wake-up.
  constexpr std::size_t kLagSamples = 50;
  constexpr double kUpdateLagMaxMs = 5.0;
  constexpr double kAddDipMaxUs = 30.0;
  auto lag_probe = runtime::UdpSocket::bind(runtime::Endpoint{kLoopback, 0});
  if (!lag_probe.has_value()) {
    std::printf("SKIP: could not bind the update-lag probe socket\n");
    return 0;
  }
  Summary lag_ms;
  Summary add_dip_us;
  std::size_t lag_unanswered = 0;
  for (std::size_t i = 0; i < kLagSamples; ++i) {
    const Ipv4Address vip{100, 200, 0, static_cast<std::uint8_t>(i + 1)};
    const Ipv4Address dip{10, 200, 0, static_cast<std::uint8_t>(i + 1)};
    const auto t0 = Clock::now();
    const auto at = dips.add_dip(dip);
    add_dip_us.add(ms_since(t0) * 1e3);
    if (!at.has_value()) {
      std::printf("SKIP: no echo DIP pool on this host\n");
      return 0;
    }
    mux.apply_vip_update(vip, {dip}, {}, {{dip, *at}});
    if (runtime::probe_until_echo(*lag_probe, mux.listen_endpoint(), vip, 1000.0, 0.2) < 0.0) {
      ++lag_unanswered;
      continue;
    }
    lag_ms.add(ms_since(t0));
  }
  const double lag_p50 = lag_ms.empty() ? 0.0 : lag_ms.percentile(50);
  const double lag_p99 = lag_ms.empty() ? 0.0 : lag_ms.percentile(99);
  const double add_dip_p50 = add_dip_us.percentile(50);
  std::printf("\nupdate lag: %zu fresh VIPs, apply_vip_update to first echo\n", kLagSamples);
  TablePrinter tl{{"metric", "value"}};
  tl.add_row({"answered / pushed",
              TablePrinter::fmt_int(static_cast<long long>(lag_ms.count())) + " / " +
                  TablePrinter::fmt_int(static_cast<long long>(kLagSamples))});
  tl.add_row({"lag p50 (ms)", TablePrinter::fmt(lag_p50, "%.3f")});
  tl.add_row({"lag p99 (ms)", TablePrinter::fmt(lag_p99, "%.3f")});
  tl.add_row({"add_dip p50 (us)", TablePrinter::fmt(add_dip_p50, "%.1f")});
  tl.print();

  // Phase 2: open-loop throughput, best of up to max_attempts runs (the
  // floor is a capability gate; see the header comment). Corruption
  // counters accumulate across every attempt — retries never hide a bug.
  runtime::LoadGenOptions open_opts;
  open_opts.target = mux.listen_endpoint();
  open_opts.sockets = 2;
  open_opts.packet_bytes = 128;
  open_opts.pps = pps;
  open_opts.duration_s = duration_s;
  std::printf("\nphase 2: open loop, %.0f pps offered for %.1f s, best of <= %zu\n", pps,
              duration_s, max_attempts);
  std::unique_ptr<runtime::LoadGenerator> open_gen;
  runtime::LoadReport open;
  std::uint64_t open_violations = 0;
  std::size_t attempts = 0;
  for (std::size_t a = 0; a < max_attempts; ++a) {
    auto gen = std::make_unique<runtime::LoadGenerator>(open_opts);
    if (!gen->init()) {
      std::printf("SKIP: could not bind load sockets\n");
      return 0;
    }
    const auto open_flows = gen->make_flows(vips, 256);
    const auto r = gen->run_open(open_flows);
    ++attempts;
    open_violations += r.integrity_failures + r.remap_violations;
    std::printf("  attempt %zu: sustained %.0f pps\n", a + 1, r.send_pps);
    if (open_gen == nullptr || r.send_pps > open.send_pps) {
      open = r;
      open_gen = std::move(gen);
    }
    if (open.send_pps >= min_pps) break;  // capability shown; stop early
  }

  mux.shutdown();
  mux.join();

  // Phase 3: aggregate multi-worker throughput — the multi-Mpps claim. A
  // SECOND deployment over the same echo DIPs: stateless engine (so the
  // in-process fast tier serves the steady state, DESIGN.md §17), pinned
  // SO_REUSEPORT workers, several paced generators running concurrently.
  // Aggregate pps = sum of the generators' send rates. Like phase 2 the
  // floor is a CAPABILITY gate (best-of-attempts, warning unless
  // DUET_LIVE_AGG_STRICT=1); unlike phase 2 it also needs cores — with
  // fewer than workers + generators + 1 CPUs the phase SKIPS (exit 0):
  // timesharing that deployment on a laptop measures the scheduler, not
  // the mux. Corruption in any attempt still fails hard.
  const auto agg_workers = static_cast<std::size_t>(env_or("DUET_LIVE_AGG_WORKERS", 4));
  const auto agg_gens = static_cast<std::size_t>(env_or("DUET_LIVE_AGG_GENS", 2));
  const double agg_pps = env_or("DUET_LIVE_AGG_PPS", 1.6e6);
  const double agg_min_pps = env_or("DUET_LIVE_AGG_MIN_PPS", 1e6);
  const double agg_duration_s = env_or("DUET_LIVE_AGG_SECONDS", duration_s);
  const auto agg_attempts_max = std::max<std::size_t>(
      1, static_cast<std::size_t>(env_or("DUET_LIVE_AGG_ATTEMPTS", 3)));
  const char* agg_strict_env = std::getenv("DUET_LIVE_AGG_STRICT");
  const bool agg_strict =
      agg_strict_env != nullptr && agg_strict_env[0] != '\0' && agg_strict_env[0] != '0';
  const auto agg_cpus_needed = static_cast<std::size_t>(env_or(
      "DUET_LIVE_AGG_MIN_CPUS", static_cast<double>(agg_workers + agg_gens + 1)));

  double agg_best_pps = 0.0;
  std::uint64_t agg_violations = 0;
  std::uint64_t agg_parse_failures = 0;
  std::uint64_t agg_fast_hits = 0;
  std::uint64_t agg_fast_misses = 0;
  std::size_t agg_attempts = 0;
  bool agg_ran = false;
  bool agg_decision_bug = false;
  if (!runtime::kBatchIoAvailable) {
    std::printf("\nphase 3: SKIP aggregate — no batched io on this platform\n");
  } else if (runtime::online_cpus() < agg_cpus_needed) {
    std::printf("\nphase 3: SKIP aggregate — %zu CPUs online, need >= %zu "
                "(%zu workers + %zu generators + dips)\n",
                runtime::online_cpus(), agg_cpus_needed, agg_workers, agg_gens);
  } else {
    DuetConfig agg_cfg;
    agg_cfg.smux_engine = SmuxEngine::kStateless;
    runtime::MuxServerOptions amo;
    amo.workers = agg_workers;
    amo.pin_cpus = true;
    amo.hasher = hasher;
    runtime::MuxServer agg_mux{amo, agg_cfg};
    for (const auto& [dip, at] : dip_endpoints) agg_mux.map_dip(dip, at);
    for (std::size_t v = 0; v < vips.size(); ++v) agg_mux.set_vip(vips[v], pools[v]);
    if (!agg_mux.start()) {
      std::printf("\nphase 3: SKIP aggregate — could not start the pinned deployment\n");
    } else {
      agg_ran = true;
      std::printf("\nphase 3: aggregate, %zu pinned workers, %zu generators, "
                  "%.0f pps offered for %.1f s, best of <= %zu\n",
                  agg_workers, agg_gens, agg_pps, agg_duration_s, agg_attempts_max);
      runtime::LoadGenOptions agg_opts;
      agg_opts.target = agg_mux.listen_endpoint();
      agg_opts.sockets = 2;
      agg_opts.packet_bytes = 128;
      agg_opts.pps = agg_pps / static_cast<double>(agg_gens);
      agg_opts.duration_s = agg_duration_s;
      for (std::size_t a = 0; a < agg_attempts_max; ++a) {
        std::vector<std::unique_ptr<runtime::LoadGenerator>> gens;
        std::vector<std::vector<FiveTuple>> gen_flows;
        bool bound = true;
        for (std::size_t g = 0; g < agg_gens; ++g) {
          auto gen = std::make_unique<runtime::LoadGenerator>(agg_opts);
          if (!gen->init()) {
            bound = false;
            break;
          }
          gen_flows.push_back(gen->make_flows(vips, 256));
          gens.push_back(std::move(gen));
        }
        if (!bound) {
          std::printf("  attempt %zu: SKIP — could not bind generator sockets\n", a + 1);
          break;
        }
        std::vector<runtime::LoadReport> reports(agg_gens);
        std::vector<std::thread> threads;
        threads.reserve(agg_gens);
        for (std::size_t g = 0; g < agg_gens; ++g) {
          threads.emplace_back([&, g] { reports[g] = gens[g]->run_open(gen_flows[g]); });
        }
        for (auto& th : threads) th.join();
        ++agg_attempts;
        double sum_pps = 0.0;
        for (const auto& r : reports) {
          sum_pps += r.send_pps;
          agg_violations += r.integrity_failures + r.remap_violations;
        }
        std::printf("  attempt %zu: aggregate %.0f pps\n", a + 1, sum_pps);
        agg_best_pps = std::max(agg_best_pps, sum_pps);
        if (agg_best_pps >= agg_min_pps) break;  // capability shown; stop early
      }
      agg_mux.shutdown();
      agg_mux.join();
      agg_parse_failures = agg_mux.metrics().counter("duet.runtime.parse_failures").value();
      agg_fast_hits = agg_mux.metrics().counter("duet.runtime.fast_tier.hits").value();
      agg_fast_misses = agg_mux.metrics().counter("duet.runtime.fast_tier.misses").value();
      const auto agg_tx = agg_mux.metrics().counter("duet.runtime.tx_packets").value();
      // Both VIPs are plain stateless pools, so the tier must admit them and
      // serve essentially every packet; a zero here is a decision-path bug
      // (tier never engaged), not machine variance.
      if (agg_tx > 0 && agg_fast_hits == 0) {
        std::printf("  FAIL: fast tier served 0 of %llu forwarded packets\n",
                    static_cast<unsigned long long>(agg_tx));
        agg_decision_bug = true;
      } else if (agg_tx > 0) {
        std::printf("  fast tier served %llu hits / %llu misses\n",
                    static_cast<unsigned long long>(agg_fast_hits),
                    static_cast<unsigned long long>(agg_fast_misses));
      }
    }
  }

  dips.shutdown();
  dips.join();

  const auto parse_failures = mux.metrics().counter("duet.runtime.parse_failures").value();
  const auto forwarded = mux.metrics().counter("duet.runtime.tx_packets").value();
  const double delivered_pps = open.elapsed_s > 0 ? open.received / open.elapsed_s : 0.0;
  TablePrinter t2{{"metric", "value"}};
  t2.add_row({"offered (pps)", TablePrinter::fmt(pps, "%.0f")});
  t2.add_row({"sent (pps)", TablePrinter::fmt(open.send_pps, "%.0f")});
  t2.add_row({"replies delivered (pps)", TablePrinter::fmt(delivered_pps, "%.0f")});
  t2.add_row({"mux forwarded (pkts)", TablePrinter::fmt_int(static_cast<long long>(forwarded))});
  t2.add_row({"send drops", TablePrinter::fmt_int(static_cast<long long>(open.send_drops))});
  t2.add_row({"parse failures", TablePrinter::fmt_int(static_cast<long long>(parse_failures))});
  t2.print();

  // Everything into one registry for BENCH_live.json: the mux's counters,
  // both generators', and the headline numbers as gauges.
  telemetry::MetricRegistry out;
  out.merge(mux.metrics());
  out.merge(closed_gen.metrics());
  out.merge(open_gen->metrics());  // best attempt only; the mux side spans all
  out.gauge("duet.live.offered_pps").set(pps);
  out.gauge("duet.live.attempts").set(static_cast<double>(attempts));
  out.gauge("duet.live.send_pps").set(open.send_pps);
  out.gauge("duet.live.delivered_pps").set(delivered_pps);
  out.gauge("duet.live.duration_s").set(open.elapsed_s);
  out.gauge("duet.live.workers").set(static_cast<double>(workers));
  out.gauge("duet.live.floor_pps").set(min_pps);
  // The acceptance floor before the batched hot path landed, for before/after
  // diffs of BENCH_live.json across versions.
  out.gauge("duet.live.seed_floor_pps").set(100e3);
  if (rtt != nullptr && !rtt->empty()) {
    out.gauge("duet.live.rtt_p50_us").set(rtt->percentile(50));
    out.gauge("duet.live.rtt_p99_us").set(rtt->percentile(99));
  }
  out.gauge("duet.live.update_lag_p50_ms").set(lag_p50);
  out.gauge("duet.live.update_lag_p99_ms").set(lag_p99);
  out.gauge("duet.live.update_lag_unanswered").set(static_cast<double>(lag_unanswered));
  out.gauge("duet.live.add_dip_us_p50").set(add_dip_p50);
  out.gauge("duet.live.agg_ran").set(agg_ran ? 1.0 : 0.0);
  out.gauge("duet.live.agg_workers").set(static_cast<double>(agg_workers));
  out.gauge("duet.live.agg_generators").set(static_cast<double>(agg_gens));
  out.gauge("duet.live.agg_offered_pps").set(agg_pps);
  out.gauge("duet.live.agg_floor_pps").set(agg_min_pps);
  out.gauge("duet.live.agg_attempts").set(static_cast<double>(agg_attempts));
  out.gauge("duet.live.agg_send_pps").set(agg_best_pps);
  out.gauge("duet.live.agg_fast_tier_hits").set(static_cast<double>(agg_fast_hits));
  out.gauge("duet.live.agg_fast_tier_misses").set(static_cast<double>(agg_fast_misses));
  bench::export_bench_json("live", out);

  const auto corrupted = parse_failures + closed.integrity_failures + closed.remap_violations +
                         open_violations + agg_parse_failures + agg_violations;
  if (corrupted != 0) {
    std::printf("\nFAIL: %llu corrupted/remapped packets on the wire\n",
                static_cast<unsigned long long>(corrupted));
    return 1;
  }
  if (agg_decision_bug) return 1;
  if (lag_unanswered != 0) {
    std::printf("\nFAIL: %zu of %zu fresh VIPs never echoed within 1 s\n", lag_unanswered,
                kLagSamples);
    return 1;
  }
  bool failed = false;
  if (lag_p50 > kUpdateLagMaxMs) {
    std::printf("\n%s: update lag p50 %.3f ms > %.1f ms%s\n", strict ? "FAIL" : "WARNING",
                lag_p50, kUpdateLagMaxMs, strict ? "" : " (machine load?)");
    failed = failed || strict;
  } else {
    std::printf("\nOK: update lag p50 %.3f ms <= %.1f ms\n", lag_p50, kUpdateLagMaxMs);
  }
  if (add_dip_p50 > kAddDipMaxUs) {
    std::printf("%s: add_dip p50 %.1f us > %.0f us%s\n", strict ? "FAIL" : "WARNING",
                add_dip_p50, kAddDipMaxUs, strict ? "" : " (machine load?)");
    failed = failed || strict;
  } else {
    std::printf("OK: add_dip p50 %.1f us <= %.0f us\n", add_dip_p50, kAddDipMaxUs);
  }
  if (open.send_pps < min_pps) {
    std::printf("\n%s: sustained %.0f pps < %.0f floor%s\n", strict ? "FAIL" : "WARNING",
                open.send_pps, min_pps, strict ? "" : " (machine load?)");
    failed = failed || strict;
  } else {
    std::printf("\nOK: sustained %.0f pps >= %.0f floor, zero parse failures\n", open.send_pps,
                min_pps);
  }
  if (agg_ran && agg_attempts > 0) {
    if (agg_best_pps < agg_min_pps) {
      std::printf("%s: aggregate %.0f pps < %.0f floor across %zu workers%s\n",
                  agg_strict ? "FAIL" : "WARNING", agg_best_pps, agg_min_pps, agg_workers,
                  agg_strict ? "" : " (machine load?)");
      failed = failed || agg_strict;
    } else {
      std::printf("OK: aggregate %.0f pps >= %.0f floor across %zu pinned workers\n",
                  agg_best_pps, agg_min_pps, agg_workers);
    }
  }
  return failed ? 1 : 0;
}
