// Persistence bench: crash-recovery time vs op-journal length, WAL append
// cost, the snapshot-compaction payoff, and migrate cost vs uptime.
//
// Four questions, the first three answered on the same deterministic op
// scripts:
//   * how fast do journaled mutations apply under each fsync policy (the
//     price of write-ahead durability);
//   * how does recovery time grow with the journal length when every op
//     must replay (no snapshots) — the paper-side worst case for a
//     controller restart;
//   * how flat does recovery stay when auto-snapshots bound the replay tail
//     (the duetd default);
//   * does a `migrate` (which audits the controller twice) cost the same
//     after 10k churn ops as on a fresh controller — the journal audit folds
//     only what was appended since the last audit.
//
// Gates (strict): with snapshots every 64 ops, recovery must replay <= 64
// ops regardless of history length — the compaction bound that keeps duetd
// restarts O(snapshot interval), not O(uptime); and a migrate after 10k
// churn ops costs at most kMaxMigrateHistoryRatio times a fresh one.
//
// Exports BENCH_persist.json (duet.bench.persist.* gauges).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "duet/controller.h"
#include "persist/store.h"
#include "util/random.h"

using namespace duet;
using namespace duet::bench;

namespace {

// Deterministic op script: grows a VIP population, then churns it with DIP
// adds/removes, operator migrations, and periodic epochs. Same shape the
// daemon-smoke leg drives over the ops socket, minus the socket.
std::vector<persist::Op> make_script(const FatTree& fabric, std::size_t ops,
                                     std::uint64_t seed) {
  Rng rng{seed};
  std::vector<persist::Op> script;
  double t_us = 0.0;
  auto stamp = [&](persist::Op op) {
    t_us += 1e5;
    op.t_us = t_us;
    script.push_back(std::move(op));
  };

  persist::Op deploy;
  deploy.kind = persist::OpKind::kDeploySmuxes;
  deploy.aggregate = Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8};
  deploy.addrs = {fabric.tors.front(), fabric.tors[fabric.tors.size() / 2],
                  fabric.tors.back()};
  stamp(std::move(deploy));

  struct Vip {
    VipId id;
    std::uint32_t addr;
    std::vector<std::uint32_t> dips;
  };
  std::vector<Vip> vips;
  VipId next_id = 0;
  std::uint32_t next_dip = (10u << 24) + 1;
  constexpr std::size_t kMaxVips = 64;

  while (script.size() < ops) {
    const auto roll = rng.uniform_int(0, 99);
    if (vips.empty() || (roll < 20 && vips.size() < kMaxVips)) {
      persist::Op op;
      op.kind = persist::OpKind::kAddVip;
      const std::uint32_t addr = (100u << 24) + (static_cast<std::uint32_t>(next_id) << 8) + 1;
      op.vip = Ipv4Address{addr};
      Vip v{next_id++, addr, {}};
      const auto ndips = static_cast<std::size_t>(rng.uniform_int(2, 4));
      for (std::size_t d = 0; d < ndips; ++d) {
        op.addrs.push_back(next_dip);
        v.dips.push_back(next_dip++);
      }
      vips.push_back(std::move(v));
      stamp(std::move(op));
    } else if (roll < 45) {
      auto& v = vips[rng.uniform_int(0, vips.size() - 1)];
      persist::Op op;
      op.kind = persist::OpKind::kAddDip;
      op.vip = Ipv4Address{v.addr};
      op.dip = Ipv4Address{next_dip};
      v.dips.push_back(next_dip++);
      stamp(std::move(op));
    } else if (roll < 60 && !vips.empty()) {
      auto& v = vips[rng.uniform_int(0, vips.size() - 1)];
      if (v.dips.size() < 2) continue;  // keep the VIP alive
      persist::Op op;
      op.kind = persist::OpKind::kRemoveDip;
      op.vip = Ipv4Address{v.addr};
      op.dip = Ipv4Address{v.dips.back()};
      v.dips.pop_back();
      stamp(std::move(op));
    } else if (roll < 85) {
      const auto& v = vips[rng.uniform_int(0, vips.size() - 1)];
      persist::Op op;
      op.kind = persist::OpKind::kMigrateVip;
      op.vip = Ipv4Address{v.addr};
      op.sw = rng.uniform01() < 0.3
                  ? kInvalidSwitch
                  : static_cast<std::uint32_t>(
                        rng.uniform_int(0, fabric.topo.switch_count() - 1));
      stamp(std::move(op));
    } else {
      persist::Op op;
      op.kind = persist::OpKind::kRunEpoch;
      op.flag = true;
      for (const auto& v : vips) {
        VipDemand d;
        d.id = v.id;
        d.vip = Ipv4Address{v.addr};
        d.total_gbps = 0.5 + 4.0 * rng.uniform01();
        d.dip_count = v.dips.size();
        d.ingress_gbps = {
            {fabric.tors[rng.uniform_int(0, fabric.tors.size() - 1)], d.total_gbps}};
        d.dip_tor_gbps = {
            {fabric.tors[rng.uniform_int(0, fabric.tors.size() - 1)], d.total_gbps}};
        op.demands.push_back(std::move(d));
      }
      stamp(std::move(op));
    }
  }
  script.resize(ops);
  return script;
}

struct RunResult {
  double apply_s = 0.0;
  double recover_ms = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t journal_bytes = 0;
};

RunResult run_case(const FatTree& fabric, const std::vector<persist::Op>& script,
                   persist::FsyncPolicy fsync, std::uint64_t snapshot_every) {
  char tmpl[] = "/tmp/duet_bench_persist_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  RunResult result;
  persist::StoreOptions so;
  so.dir = dir;
  so.fsync = fsync;
  so.snapshot_every_ops = snapshot_every;
  const DuetConfig config;
  std::string error;
  {
    auto store = persist::PersistentController::open(fabric, config, FlowHasher{1}, 1, so,
                                                     &error);
    if (store == nullptr) {
      std::fprintf(stderr, "open: %s\n", error.c_str());
      std::exit(1);
    }
    Stopwatch sw;
    for (const auto& op : script) {
      if (!store->apply(op)) {
        std::fprintf(stderr, "apply failed at seq %llu\n",
                     static_cast<unsigned long long>(store->last_seq() + 1));
        std::exit(1);
      }
    }
    result.apply_s = sw.seconds();
  }
  std::error_code ec;
  const auto n = std::filesystem::file_size(std::string{dir} + "/oplog.duet", ec);
  result.journal_bytes = ec ? 0 : static_cast<std::uint64_t>(n);
  // A destroyed store is indistinguishable from kill -9 with an intact tail;
  // recover_ms covers snapshot restore + replay + the 16-invariant boot audit.
  auto reopened =
      persist::PersistentController::open(fabric, config, FlowHasher{1}, 1, so, &error);
  if (reopened == nullptr) {
    std::fprintf(stderr, "recovery: %s\n", error.c_str());
    std::exit(1);
  }
  result.recover_ms = reopened->recovery().recover_ms;
  result.replayed = reopened->recovery().replayed;
  reopened.reset();
  std::filesystem::remove_all(dir, ec);
  return result;
}

constexpr double kMaxMigrateHistoryRatio = 2.0;

// Median wall time of one migrate round trip (onto an HMux, then back to the
// SMuxes) on a controller shaped like duetd's, after `history` churn ops.
// Every sample follows the same 8 untimed churn ops, so each migrate audits
// the same number of fresh journal events whatever the history.
double migrate_round_trip_us(const FatTree& fabric, std::size_t history) {
  DuetController ctl(fabric, DuetConfig{}, FlowHasher{1}, 1);
  ctl.deploy_smuxes({fabric.tors.front(), fabric.tors[fabric.tors.size() / 2], fabric.tors.back()},
                    Ipv4Prefix{Ipv4Address{100, 0, 0, 0}, 8});
  const Ipv4Address vip{100, 0, 1, 1};
  ctl.add_vip(vip, {Ipv4Address{10, 0, 0, 1}, Ipv4Address{10, 0, 0, 2}});
  double t_us = 0.0;
  std::uint32_t next = 0;
  // One churn op: a cycle of add-vip, add-dip, remove-dip, remove-vip.
  const auto churn = [&] {
    const std::uint32_t cycle = next / 4;
    const Ipv4Address v{(100u << 24) + (2u << 16) + cycle};
    const Ipv4Address d1{(10u << 24) + (1u << 16) + cycle};
    const Ipv4Address d2{(10u << 24) + (2u << 16) + cycle};
    ctl.set_clock_us(t_us += 1e3);
    switch (next++ % 4) {
      case 0: ctl.add_vip(v, {d1}); break;
      case 1: ctl.add_dip(v, d2); break;
      case 2: ctl.remove_dip(v, d1); break;
      default: ctl.remove_vip(v); break;
    }
  };
  for (std::size_t i = 0; i < history; ++i) churn();
  // Close the last churn cycle and audit the history once, untimed.
  while (next % 4 != 0) churn();
  (void)ctl.migrate_vip(vip, std::nullopt);

  std::vector<double> samples;
  for (int s = 0; s < 31; ++s) {
    for (int i = 0; i < 8; ++i) churn();
    ctl.set_clock_us(t_us += 1e3);
    Stopwatch sw;
    (void)ctl.migrate_vip(vip, fabric.tors.front());
    ctl.set_clock_us(t_us += 1e3);
    (void)ctl.migrate_vip(vip, std::nullopt);
    samples.push_back(sw.seconds() * 1e6);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  header("persist", "crash recovery: time vs journal length, WAL cost, compaction bound");
  paper_note(
      "the paper's controller keeps assignment state in memory and recomputes "
      "on restart; duetd instead journals every mutation and must recover "
      "O(snapshot interval), not O(uptime)");

  const auto fabric = build_fattree(FatTreeParams::scaled(2, 4, 2));
  const std::vector<std::size_t> lengths =
      quick_mode() ? std::vector<std::size_t>{64, 256} : std::vector<std::size_t>{64, 256, 1024, 4096};

  telemetry::MetricRegistry registry;
  TablePrinter table{{"ops", "fsync", "snapshot", "apply ops/s", "journal KB", "replayed",
                      "recover ms"}};
  bool gate_ok = true;

  for (const std::size_t ops : lengths) {
    const auto script = make_script(fabric, ops, /*seed=*/20140817);
    struct Case {
      const char* name;
      persist::FsyncPolicy fsync;
      std::uint64_t snapshot_every;
    };
    const Case cases[] = {
        {"fsync_none.full_replay", persist::FsyncPolicy::kNone, 0},
        {"fsync_every.full_replay", persist::FsyncPolicy::kEveryRecord, 0},
        {"fsync_every.snap64", persist::FsyncPolicy::kEveryRecord, 64},
    };
    for (const auto& c : cases) {
      const auto r = run_case(fabric, script, c.fsync, c.snapshot_every);
      table.add_row({TablePrinter::fmt_int(static_cast<long long>(ops)),
                     persist::to_string(c.fsync),
                     c.snapshot_every == 0 ? "none" : "every 64",
                     TablePrinter::fmt(static_cast<double>(ops) / r.apply_s, "%.0f"),
                     TablePrinter::fmt(static_cast<double>(r.journal_bytes) / 1024.0, "%.1f"),
                     TablePrinter::fmt_int(static_cast<long long>(r.replayed)),
                     TablePrinter::fmt(r.recover_ms, "%.2f")});
      const std::string prefix = "duet.bench.persist." + std::string{c.name} + "." +
                                 std::to_string(ops) + ".";
      registry.gauge(prefix + "apply_ops_per_s").set(static_cast<double>(ops) / r.apply_s);
      registry.gauge(prefix + "recover_ms").set(r.recover_ms);
      registry.gauge(prefix + "replayed_ops").set(static_cast<double>(r.replayed));
      registry.gauge(prefix + "journal_bytes").set(static_cast<double>(r.journal_bytes));
      if (c.snapshot_every > 0 && r.replayed > c.snapshot_every) {
        std::printf("GATE FAILED: %zu-op run replayed %llu ops (> snapshot interval %llu)\n",
                    ops, static_cast<unsigned long long>(r.replayed),
                    static_cast<unsigned long long>(c.snapshot_every));
        gate_ok = false;
      }
    }
  }
  table.print();
  std::printf("\ngate: snapshot-compaction replay bound %s\n", gate_ok ? "ok" : "FAILED");

  // Migrate vs history: the journal audit must not replay the uptime.
  constexpr std::size_t kHistory = 10000;
  const double fresh_us = migrate_round_trip_us(fabric, 0);
  const double aged_us = migrate_round_trip_us(fabric, kHistory);
  const double ratio = aged_us / fresh_us;
  TablePrinter migrate_table{{"churn ops before", "migrate round trip us (p50)"}};
  migrate_table.add_row({"0", TablePrinter::fmt(fresh_us, "%.1f")});
  migrate_table.add_row({TablePrinter::fmt_int(static_cast<long long>(kHistory)),
                         TablePrinter::fmt(aged_us, "%.1f")});
  std::printf("\n");
  migrate_table.print();
  registry.gauge("duet.bench.persist.migrate_us_p50.fresh").set(fresh_us);
  registry.gauge("duet.bench.persist.migrate_us_p50.after_10k_ops").set(aged_us);
  registry.gauge("duet.bench.persist.migrate_history_ratio").set(ratio);
  const bool migrate_ok = ratio <= kMaxMigrateHistoryRatio;
  std::printf("gate: migrate after %zu ops / fresh = %.2f (<= %.1f) %s\n", kHistory, ratio,
              kMaxMigrateHistoryRatio, migrate_ok ? "ok" : "FAILED");
  gate_ok = gate_ok && migrate_ok;

  export_bench_json("persist", registry);
  return gate_ok ? 0 : 1;
}
