// Tests for the chaos harness (src/chaos): injector purity, composition
// ordering, the twin-drive scenario gates, the violation fixtures, sweep
// width determinism — plus the sim/failure.h composition semantics the
// correlated-failure injector builds on, and a full controller run that
// replays a composed container+switch+link failure mid-migration through
// the invariant auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "audit/invariants.h"
#include "audit/snapshot.h"
#include "chaos/injector.h"
#include "chaos/plan.h"
#include "chaos/runner.h"
#include "chaos/scenarios.h"
#include "duet/controller.h"
#include "exec/thread_pool.h"
#include "sim/failure.h"
#include "util/random.h"
#include "workload/tracegen.h"

namespace duet::chaos {
namespace {

constexpr std::uint64_t kSeed = 0xc4a05ULL;

ChaosEnv small_env() {
  ChaosEnv env;
  env.ticks = 6;
  env.established_flows = 64;
  env.initial_dips = 6;
  env.flow_table_cap = 512;
  return env;
}

// --- injector purity ---------------------------------------------------------

TEST(ChaosInjectorTest, SameSeedSameStream) {
  const ChaosEnv env = small_env();
  EXPECT_EQ(churn_storm(ChurnStormParams{}, env, kSeed),
            churn_storm(ChurnStormParams{}, env, kSeed));
  EXPECT_EQ(random_churn(RandomChurnParams{}, env, kSeed),
            random_churn(RandomChurnParams{}, env, kSeed));
  EXPECT_EQ(syn_flood(SynFloodParams{}, env, kSeed), syn_flood(SynFloodParams{}, env, kSeed));
  EXPECT_EQ(flash_crowd(FlashCrowdParams{}, env, kSeed),
            flash_crowd(FlashCrowdParams{}, env, kSeed));
  EXPECT_EQ(gray_dip(GrayDipParams{}, env, kSeed), gray_dip(GrayDipParams{}, env, kSeed));
  ChaosEnv multi = env;
  multi.replicas = 3;  // the migration scenario needs a destination replica
  EXPECT_EQ(correlated_failure(CorrelatedFailureParams{}, multi, kSeed),
            correlated_failure(CorrelatedFailureParams{}, multi, kSeed));
}

TEST(ChaosInjectorTest, DifferentSeedDifferentChurn) {
  // The seeded injectors must actually consume their seed.
  const ChaosEnv env = small_env();
  EXPECT_NE(random_churn(RandomChurnParams{}, env, kSeed).events,
            random_churn(RandomChurnParams{}, env, kSeed + 1).events);
  ChurnStormParams storm;
  storm.percent_per_min = 40.0;  // enough units that victim picks matter
  EXPECT_NE(churn_storm(storm, env, kSeed).events,
            churn_storm(storm, env, kSeed + 1).events);
}

TEST(ChaosInjectorTest, ChurnStormIsRollingDeploy) {
  // Every removal is preceded (same tick) by its replacement add, so the
  // injector's own pool model never shrinks below the initial size.
  const ChaosEnv env = small_env();
  ChurnStormParams storm;
  storm.percent_per_min = 50.0;
  const InjectorStream s = churn_storm(storm, env, kSeed);
  ASSERT_FALSE(s.events.empty());
  std::size_t pool = env.initial_dips;
  for (const ChaosEvent& ev : s.events) {
    if (ev.kind == ChaosEventKind::kDipAdd) ++pool;
    if (ev.kind == ChaosEventKind::kDipRemove) --pool;
    EXPECT_GE(pool, env.initial_dips);
  }
  EXPECT_EQ(pool, env.initial_dips);
}

TEST(ChaosInjectorTest, RandomChurnNeverShrinksBelowTwo) {
  ChaosEnv env = small_env();
  env.ticks = 64;  // long enough for the remove branch to fire many times
  env.initial_dips = 2;
  const InjectorStream s = random_churn(RandomChurnParams{}, env, kSeed);
  std::size_t pool = env.initial_dips;
  for (const ChaosEvent& ev : s.events) {
    if (ev.kind == ChaosEventKind::kDipAdd) ++pool;
    if (ev.kind == ChaosEventKind::kDipRemove) --pool;
    EXPECT_GE(pool, 2u);
  }
}

TEST(ChaosInjectorTest, SynFloodSpreadsAllTuples) {
  ChaosEnv env = small_env();
  SynFloodParams flood;
  flood.tuples_total = 1000;
  flood.begin_tick = 1;
  flood.end_tick = 4;
  const InjectorStream s = syn_flood(flood, env, kSeed);
  std::uint64_t total = 0;
  for (const ChaosEvent& ev : s.events) {
    ASSERT_EQ(ev.kind, ChaosEventKind::kFlood);
    EXPECT_GE(ev.tick, flood.begin_tick);
    EXPECT_LT(ev.tick, flood.end_tick);
    total += ev.a;
  }
  EXPECT_EQ(total, flood.tuples_total);
}

// --- composition -------------------------------------------------------------

TEST(ChaosPlanTest, ComposeIsDeterministicAndKeepsStreamOrder) {
  const ChaosEnv env = small_env();
  const auto streams = [&] {
    return std::vector<InjectorStream>{syn_flood(SynFloodParams{}, env, kSeed),
                                       random_churn(RandomChurnParams{}, env, kSeed)};
  };
  const ChaosPlan a = compose_plan("p", env, streams());
  const ChaosPlan b = compose_plan("p", env, streams());
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.injectors.size(), 2u);
  EXPECT_EQ(a.injectors[0], streams()[0].name);

  // Events are tick-sorted, and within a tick the first stream's events come
  // first: on every shared tick the flood burst precedes the churn op.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].tick, a.events[i].tick);
    if (a.events[i - 1].tick == a.events[i].tick &&
        a.events[i].kind == ChaosEventKind::kFlood) {
      EXPECT_EQ(a.events[i - 1].kind, ChaosEventKind::kFlood)
          << "churn sorted ahead of the flood on tick " << a.events[i].tick;
    }
  }
}

TEST(ChaosPlanTest, CompositionOrderIsPartOfThePlan) {
  const ChaosEnv env = small_env();
  InjectorStream flood = syn_flood(SynFloodParams{}, env, kSeed);
  InjectorStream churn = random_churn(RandomChurnParams{}, env, kSeed);
  const ChaosPlan fc = compose_plan("p", env, {flood, churn});
  const ChaosPlan cf = compose_plan("p", env, {churn, flood});
  EXPECT_NE(fc.events, cf.events);  // same-tick order follows stream position
  EXPECT_NE(fc.injectors, cf.injectors);
}

// --- the twin-drive runner ---------------------------------------------------

TEST(ChaosRunnerTest, RunIsAPureFunctionOfThePlan) {
  for (const NamedScenario& s : builtin_scenarios()) {
    const ChaosPlan plan = s.build(/*quick=*/true, kSeed);
    EXPECT_EQ(run_chaos(plan, DuetConfig{}), run_chaos(plan, DuetConfig{})) << s.name;
  }
}

TEST(ChaosRunnerTest, EveryBuiltinScenarioPassesItsGates) {
  for (const NamedScenario& s : builtin_scenarios()) {
    const ChaosReport r = run_chaos(s.build(/*quick=*/true, kSeed), DuetConfig{});
    const auto failures = evaluate_gates(r, s.gates);
    EXPECT_TRUE(failures.empty()) << s.name << ": " << (failures.empty() ? "" : failures[0]);
    // Twin-drive sanity: routing and overload are engine-independent.
    EXPECT_EQ(r.stateful.packets, r.stateless.packets) << s.name;
    EXPECT_EQ(r.stateful.overload_drops, r.stateless.overload_drops) << s.name;
  }
}

TEST(ChaosRunnerTest, StatelessEngineHoldsPccContractUnderEveryAdversary) {
  // The headline property: with unbounded version retention the stateless
  // engine never violates PCC and never holds per-flow state — under every
  // single adversary AND the composed storm.
  for (const NamedScenario& s : builtin_scenarios()) {
    const ChaosReport r = run_chaos(s.build(/*quick=*/true, kSeed), DuetConfig{});
    EXPECT_EQ(r.stateless.pcc_violations, 0u) << s.name;
    EXPECT_EQ(r.stateless.evictions, 0u) << s.name;
    EXPECT_EQ(r.stateless.flow_entries_peak, 0u) << s.name;
  }
}

TEST(ChaosRunnerTest, ScenarioMatrixCoversTheIssueContract) {
  const auto& matrix = builtin_scenarios();
  EXPECT_GE(matrix.size(), 6u);  // >= 5 named single-adversary + >= 1 composed
  EXPECT_GE(std::count_if(matrix.begin(), matrix.end(),
                          [](const NamedScenario& s) { return s.composed; }),
            1);
  for (const NamedScenario& s : matrix) EXPECT_FALSE(s.summary.empty()) << s.name;
}

TEST(ChaosRunnerTest, ViolationFixturesTripTheirNamedGate) {
  ASSERT_FALSE(violation_fixtures().empty());
  for (const NamedScenario& s : violation_fixtures()) {
    ASSERT_NE(s.must_trip, nullptr) << s.name;
    const ChaosReport r = run_chaos(s.build(/*quick=*/true, kSeed), DuetConfig{});
    const auto failures = evaluate_gates(r, s.gates);
    const bool tripped =
        std::any_of(failures.begin(), failures.end(), [&](const std::string& f) {
          return f.find(s.must_trip) != std::string::npos;
        });
    EXPECT_TRUE(tripped) << s.name << " did not trip " << s.must_trip;
    for (const std::string& f : failures) {
      EXPECT_EQ(f.find("stateless"), std::string::npos)
          << s.name << " broke the stateless contract: " << f;
    }
  }
}

TEST(ChaosRunnerTest, SweepIsBitForBitAcrossPoolWidths) {
  exec::ThreadPool serial(1);
  exec::ThreadPool wide(4);
  for (const NamedScenario& s : builtin_scenarios()) {
    const auto builder = [&](std::uint64_t seed) { return s.build(/*quick=*/true, seed); };
    const auto a = sweep_chaos(builder, DuetConfig{}, 3, kSeed, &serial);
    const auto b = sweep_chaos(builder, DuetConfig{}, 3, kSeed, &wide);
    EXPECT_EQ(a, b) << s.name;
  }
}

TEST(ChaosRunnerTest, SweepShardsAreIndependentScenarios) {
  const NamedScenario& s = builtin_scenarios().front();
  const auto builder = [&](std::uint64_t seed) { return s.build(/*quick=*/true, seed); };
  const auto reports = sweep_chaos(builder, DuetConfig{}, 3, kSeed);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_NE(reports[0].stateful.fingerprint, reports[1].stateful.fingerprint);
  EXPECT_NE(reports[1].stateful.fingerprint, reports[2].stateful.fingerprint);
}

TEST(ChaosRunnerTest, FloodAdapterMatchesItsHistoricalContract) {
  // A SYN flood over background churn, composed from the shared injectors:
  // the stateful table is exhausted while the stateless engine keeps PCC.
  ChaosEnv env;
  env.ticks = 6;
  env.established_flows = 128;
  env.initial_dips = 6;
  env.flow_table_cap = 256;
  SynFloodParams flood;
  flood.tuples_total = 4096;
  const ChaosPlan plan =
      compose_plan("flood_twin", env,
                   {syn_flood(flood, env, kSeed),
                    random_churn(RandomChurnParams{}, env, kSeed + 1)});
  const ChaosReport r = run_chaos(plan, DuetConfig{});
  EXPECT_GT(r.stateful.evictions, 0u);
  EXPECT_EQ(r.stateful.flow_entries_peak, env.flow_table_cap);
  EXPECT_EQ(r.stateless.pcc_violations, 0u);
  EXPECT_EQ(r.stateless.flow_entries_peak, 0u);
  EXPECT_EQ(r.stateful.packets, r.stateless.packets);
}

}  // namespace
}  // namespace duet::chaos

// --- sim/failure.h composition ----------------------------------------------------

namespace duet {
namespace {

TEST(FailureComposeTest, ComposeUnionsTheFailedSets) {
  const FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 2));
  Rng rng{42};
  const FailureScenario container = random_container_failure(fabric, rng);
  const FailureScenario sw = random_switch_failure(fabric, 2, rng);
  const FailureScenario link = random_link_failure(fabric, rng);

  const FailureScenario all = compose({container, sw, link});
  EXPECT_EQ(all.name, container.name + "+" + sw.name + "+" + link.name);
  for (const SwitchId s : container.failed_switches) EXPECT_TRUE(all.affects(s));
  for (const SwitchId s : sw.failed_switches) EXPECT_TRUE(all.affects(s));
  for (const LinkId l : link.failed_links) EXPECT_TRUE(all.failed_links.contains(l));
  EXPECT_LE(all.failed_switches.size(),
            container.failed_switches.size() + sw.failed_switches.size());
}

TEST(FailureComposeTest, CompositionIsCommutativeOnTheSets) {
  const FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 2));
  Rng rng{7};
  const FailureScenario a = random_container_failure(fabric, rng);
  const FailureScenario b = random_switch_failure(fabric, 3, rng);
  const FailureScenario ab = compose(a, b);
  const FailureScenario ba = compose(b, a);
  EXPECT_EQ(ab.failed_switches, ba.failed_switches);
  EXPECT_EQ(ab.failed_links, ba.failed_links);
  EXPECT_NE(ab.name, ba.name);  // the name records ingredient order
  // Associativity of the union: ((a+b)+b) == (a+b).
  EXPECT_EQ(compose(ab, b).failed_switches, ab.failed_switches);
}

TEST(FailureComposeTest, ComposeWithHealthyIsIdentityOnTheSets) {
  const FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 2));
  Rng rng{11};
  const FailureScenario s = random_switch_failure(fabric, 2, rng);
  const FailureScenario merged = compose(s, healthy_scenario());
  EXPECT_EQ(merged.failed_switches, s.failed_switches);
  EXPECT_EQ(merged.failed_links, s.failed_links);
}

// Composed container+switch+link failure applied between epochs, while VIPs
// are mid-migration across assignments: the controller must absorb every
// dead HMux plus a dead SMux and still satisfy all 16 invariants with no
// spurious violations (satellite 3).
TEST(FailureComposeTest, ComposedFailureMidMigrationAuditsClean) {
  const Ipv4Prefix kAgg{Ipv4Address{100, 0, 0, 0}, 8};
  const FatTree fabric = build_fattree(FatTreeParams::scaled(3, 4, 3));
  DuetController controller(fabric, DuetConfig{}, FlowHasher{7}, 11);
  // One SMux per container: the composed blast below can take out at most
  // two (the dead container's plus a random switch), never the whole pool.
  const std::vector<SwitchId> smux_tors{fabric.tors[0], fabric.tors[5], fabric.tors[9]};
  controller.deploy_smuxes(smux_tors, kAgg);

  TraceParams params;
  params.vip_count = 80;
  params.total_gbps = 150.0;
  params.epochs = 2;
  params.max_dips = 40;
  const Trace trace = generate_trace(fabric, params);
  for (const auto& v : trace.vips) controller.add_vip(v.vip, v.dips);

  const audit::InvariantAuditor auditor;
  ASSERT_EQ(audit::InvariantAuditor::invariants().size(), 16u);
  auto expect_clean = [&](const char* stage) {
    auto report = auditor.audit(audit::SystemSnapshot::capture(controller));
    report.merge(auditor.audit_journal(controller.journal()));
    EXPECT_TRUE(report.clean())
        << stage << ": " << report.summary() << "\nfirst: "
        << (report.violations.empty() ? "" : report.violations[0].message);
  };

  controller.set_clock_us(1e6);
  controller.run_epoch(build_demands(fabric, trace, 0));
  expect_clean("after epoch 0");

  // The correlated blast: one whole container, a random switch, and a random
  // link fail together while epoch 1's migrations are still ahead. Every
  // SMux whose ToR is inside the blast dies with it (the correlated
  // switch+SMux failure the issue names).
  Rng rng{1234};
  const FailureScenario blast = compose({random_container_failure(fabric, rng),
                                         random_switch_failure(fabric, 1, rng),
                                         random_link_failure(fabric, rng)});
  controller.set_clock_us(2e6);
  for (const SwitchId dead : blast.failed_switches) controller.handle_switch_failure(dead);
  std::size_t smuxes_lost = 0;
  for (std::size_t i = 0; i < smux_tors.size(); ++i) {
    if (blast.affects(smux_tors[i])) {
      controller.handle_smux_failure(static_cast<std::uint32_t>(i));
      ++smuxes_lost;
    }
  }
  EXPECT_GE(smuxes_lost, 1u);  // one SMux per container: the blast always hits one
  EXPECT_LT(smuxes_lost, smux_tors.size());
  expect_clean("after composed failure");

  // Recovery epoch: migrations replay over the degraded fabric.
  controller.set_clock_us(3e6);
  controller.run_epoch(build_demands(fabric, trace, 1));
  expect_clean("after recovery epoch");

  // The surviving SMux still backstops: every VIP is owned and serves.
  Packet probe{
      FiveTuple{Ipv4Address{172, 16, 1, 1}, trace.vips[0].vip, 999, 80, IpProto::kTcp}, 1500};
  EXPECT_NE(controller.owner_of(trace.vips[0].vip), DuetController::Owner::kNone);
  EXPECT_TRUE(controller.load_balance(probe).has_value());
}

}  // namespace
}  // namespace duet
