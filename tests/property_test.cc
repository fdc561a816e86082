// Property-based and parameterized sweeps over the library's core
// invariants. Where the other test files pin concrete scenarios, these
// sweep fabric shapes, group sizes, seeds and load levels and assert the
// properties that must hold everywhere:
//   * routing: flow conservation, distance symmetry, DAG validity;
//   * hashing: device-independent agreement, removal monotonicity;
//   * assignment: resource feasibility, traffic conservation, determinism;
//   * migration: plan consistency and revalidation idempotence.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "dataplane/pipeline.h"
#include "duet/assignment.h"
#include "duet/migration.h"
#include "duet/smux.h"
#include "exec/sweep.h"
#include "sim/flowsim.h"
#include "telemetry/export.h"
#include "topo/paths.h"
#include "workload/tracegen.h"

namespace duet {
namespace {

// --- Routing invariants across fabric shapes -----------------------------------

struct FabricShape {
  std::size_t containers, tors, cores;
};

class RoutingProperty : public ::testing::TestWithParam<FabricShape> {
 protected:
  RoutingProperty()
      : ft_(build_fattree(
            FatTreeParams::scaled(GetParam().containers, GetParam().tors, GetParam().cores))) {}
  FatTree ft_;
};

TEST_P(RoutingProperty, UnitFlowConservesIntoDestination) {
  // One unit injected at src must arrive, in total, at dst.
  const EcmpRouting r{ft_.topo};
  Rng rng{1};
  for (int trial = 0; trial < 20; ++trial) {
    const SwitchId src = ft_.tors[rng.uniform(ft_.tors.size())];
    const SwitchId dst = ft_.tors[rng.uniform(ft_.tors.size())];
    if (src == dst) continue;
    double into_dst = 0.0;
    for (const auto& [idx, frac] : r.unit_flow(src, dst)) {
      const auto link = static_cast<LinkId>(idx / 2);
      const auto& li = ft_.topo.link_info(link);
      const SwitchId to = (idx % 2 == 0) ? li.b : li.a;
      if (to == dst) into_dst += frac;
    }
    EXPECT_NEAR(into_dst, 1.0, 1e-9) << "src=" << src << " dst=" << dst;
  }
}

TEST_P(RoutingProperty, DistanceIsSymmetricOnFatTree) {
  const EcmpRouting r{ft_.topo};
  Rng rng{2};
  for (int trial = 0; trial < 30; ++trial) {
    const SwitchId a = static_cast<SwitchId>(rng.uniform(ft_.topo.switch_count()));
    const SwitchId b = static_cast<SwitchId>(rng.uniform(ft_.topo.switch_count()));
    EXPECT_EQ(r.distance(a, b), r.distance(b, a));
  }
}

TEST_P(RoutingProperty, SampledPathsAreShortest) {
  const EcmpRouting r{ft_.topo};
  Rng rng{3};
  for (int trial = 0; trial < 20; ++trial) {
    const SwitchId src = ft_.tors[rng.uniform(ft_.tors.size())];
    const SwitchId dst = ft_.cores[rng.uniform(ft_.cores.size())];
    const auto path = r.sample_path(src, dst, rng());
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size() - 1, r.distance(src, dst));
  }
}

TEST_P(RoutingProperty, SingleSwitchFailureNeverPartitionsFatTree) {
  // A FatTree with >1 Agg per container and >1 Core survives any single
  // non-ToR failure; a failed ToR only cuts off itself.
  Rng rng{4};
  for (int trial = 0; trial < 10; ++trial) {
    const SwitchId dead = static_cast<SwitchId>(rng.uniform(ft_.topo.switch_count()));
    const EcmpRouting r{ft_.topo, {dead}, {}};
    for (int probes = 0; probes < 10; ++probes) {
      const SwitchId a = ft_.tors[rng.uniform(ft_.tors.size())];
      const SwitchId b = ft_.tors[rng.uniform(ft_.tors.size())];
      if (a == dead || b == dead) continue;
      EXPECT_TRUE(r.reachable(a, b)) << "dead=" << dead;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RoutingProperty,
                         ::testing::Values(FabricShape{2, 2, 2}, FabricShape{3, 4, 2},
                                           FabricShape{4, 6, 4}, FabricShape{6, 4, 6}),
                         [](const auto& info) {
                           std::string name = "c";
                           name += std::to_string(info.param.containers);
                           name += 't';
                           name += std::to_string(info.param.tors);
                           name += 'k';
                           name += std::to_string(info.param.cores);
                           return name;
                         });

// --- Hash agreement across devices, sweeping group size and seed ----------------

class HashAgreement : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(HashAgreement, HmuxSmuxAndSecondHmuxAllAgree) {
  const auto [dip_count, seed] = GetParam();
  const FlowHasher hasher{seed};
  const Ipv4Address vip{100, 7, 7, 7};
  std::vector<Ipv4Address> dips;
  for (int i = 0; i < dip_count; ++i) dips.push_back(Ipv4Address{(10u << 24) + 77u + i});

  SwitchDataPlane hmux_a{hasher}, hmux_b{hasher};
  DuetConfig cfg;
  Smux smux{0, hasher, cfg};
  ASSERT_TRUE(hmux_a.install_vip(vip, dips));
  ASSERT_TRUE(hmux_b.install_vip(vip, dips));
  smux.set_vip(vip, dips);

  for (std::uint16_t sp = 1; sp <= 300; ++sp) {
    Packet pa{FiveTuple{Ipv4Address(172, 1, 2, 3), vip, sp, 443, IpProto::kTcp}, 64};
    Packet pb = pa, ps = pa;
    ASSERT_EQ(hmux_a.process(pa), PipelineVerdict::kEncapsulated);
    ASSERT_EQ(hmux_b.process(pb), PipelineVerdict::kEncapsulated);
    ASSERT_TRUE(smux.process(ps));
    EXPECT_EQ(pa.outer().outer_dst, pb.outer().outer_dst);
    EXPECT_EQ(pa.outer().outer_dst, ps.outer().outer_dst);
  }
}

TEST_P(HashAgreement, RemovalNeverRemapsSurvivors) {
  const auto [dip_count, seed] = GetParam();
  if (dip_count < 2) GTEST_SKIP();
  ResilientHashGroup g{static_cast<std::size_t>(dip_count), 8, seed};
  Rng rng{seed};
  std::unordered_map<std::uint64_t, std::uint32_t> before;
  for (int f = 0; f < 2000; ++f) {
    const auto h = rng();
    before[h] = g.select(h);
  }
  const auto victim = static_cast<std::uint32_t>(rng.uniform(dip_count));
  g.remove_member(victim);
  for (const auto& [h, m] : before) {
    if (m != victim) {
      EXPECT_EQ(g.select(h), m);
    } else {
      EXPECT_NE(g.select(h), victim);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSweep, HashAgreement,
                         ::testing::Combine(::testing::Values(2, 3, 8, 33, 128, 512),
                                            ::testing::Values(1ULL, 42ULL, 0xdeadbeefULL)));

// --- Assignment invariants across load levels -----------------------------------

class AssignmentProperty : public ::testing::TestWithParam<double> {
 protected:
  AssignmentProperty() : fabric_(build_fattree(FatTreeParams::scaled(4, 6, 4))) {
    TraceParams p;
    p.vip_count = 300;
    p.total_gbps = GetParam();
    p.epochs = 2;
    p.seed = 7 + static_cast<std::uint64_t>(GetParam());
    trace_ = generate_trace(fabric_, p);
    demands_ = build_demands(fabric_, trace_, 0);
  }
  FatTree fabric_;
  Trace trace_;
  std::vector<VipDemand> demands_;
};

TEST_P(AssignmentProperty, NoResourceEverExceedsCapacity) {
  AssignmentOptions o;
  o.stop_on_first_failure = false;
  const auto a = VipAssigner{fabric_, o}.assign(demands_);
  for (const auto used : a.switch_dips_used) EXPECT_LE(used, o.switch_dip_capacity);
  for (LinkId l = 0; l < fabric_.topo.link_count(); ++l) {
    const double cap = o.link_headroom * fabric_.topo.capacity_gbps(l);
    EXPECT_LE(a.link_load_gbps[l * 2], cap + 1e-6);
    EXPECT_LE(a.link_load_gbps[l * 2 + 1], cap + 1e-6);
  }
}

TEST_P(AssignmentProperty, TrafficIsConserved) {
  const auto a = VipAssigner{fabric_, AssignmentOptions{}}.assign(demands_);
  EXPECT_NEAR(a.hmux_gbps + a.smux_gbps, total_demand_gbps(demands_), 1e-6);
  EXPECT_EQ(a.placement.size() + a.on_smux.size(), demands_.size());
}

TEST_P(AssignmentProperty, RevalidationOfFreshAssignmentIsLossless) {
  // Re-checking an assignment against the demands that produced it must not
  // evict anything (same order, same loads).
  const VipAssigner assigner{fabric_, AssignmentOptions{}};
  const auto a = assigner.assign(demands_);
  const auto again = assigner.revalidate(demands_, a);
  EXPECT_EQ(again.placement.size(), a.placement.size());
  EXPECT_NEAR(again.hmux_gbps, a.hmux_gbps, 1e-6);
}

TEST_P(AssignmentProperty, SelfMigrationIsEmpty) {
  const auto a = VipAssigner{fabric_, AssignmentOptions{}}.assign(demands_);
  const auto plan = plan_migration(a, a, demands_);
  EXPECT_EQ(plan.move_count(), 0u);
  EXPECT_DOUBLE_EQ(plan.shuffled_gbps, 0.0);
}

TEST_P(AssignmentProperty, StickyChainStaysFeasibleOverEpochs) {
  const VipAssigner assigner{fabric_, AssignmentOptions{}};
  auto current = assigner.assign(demands_);
  const auto d1 = build_demands(fabric_, trace_, 1);
  current = assigner.assign_sticky(d1, current);
  for (const auto used : current.switch_dips_used) {
    EXPECT_LE(used, AssignmentOptions{}.switch_dip_capacity);
  }
  EXPECT_NEAR(current.hmux_gbps + current.smux_gbps, total_demand_gbps(d1), 1e-6);
}

TEST_P(AssignmentProperty, FlowSimAgreesOnMaxUtilization) {
  // The assignment's own view of link load must match an independent
  // simulation of its HMux-placed VIPs.
  const auto a = VipAssigner{fabric_, AssignmentOptions{}}.assign(demands_);
  std::vector<VipDemand> placed;
  for (const auto& d : demands_) {
    if (a.on_hmux(d.id)) placed.push_back(d);
  }
  const auto sim = simulate_flows(fabric_, placed, a, {fabric_.tors[0]}, healthy_scenario());
  double assigner_max = 0.0;
  for (LinkId l = 0; l < fabric_.topo.link_count(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      assigner_max = std::max(assigner_max,
                              a.link_load_gbps[l * 2 + dir] / fabric_.topo.capacity_gbps(l));
    }
  }
  EXPECT_NEAR(sim.max_link_utilization, assigner_max, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(LoadSweep, AssignmentProperty,
                         ::testing::Values(50.0, 200.0, 500.0, 900.0),
                         [](const auto& info) {
                           return "gbps" + std::to_string(static_cast<int>(info.param));
                         });

// --- Trace generator invariants across seeds -------------------------------------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, EveryVipIsServableByItsBackends) {
  const auto fabric = build_fattree(FatTreeParams::scaled(3, 4, 3));
  TraceParams p;
  p.vip_count = 200;
  p.total_gbps = 300.0;
  p.epochs = 5;
  p.seed = GetParam();
  const auto trace = generate_trace(fabric, p);
  for (const auto& v : trace.vips) {
    for (std::size_t e = 0; e < trace.epochs; ++e) {
      // No DIP is ever asked for more than ~2x the NIC headroom constant.
      const double per_dip = v.gbps(e) / static_cast<double>(v.dips.size());
      EXPECT_LE(per_dip, p.max_gbps_per_dip * 2.0 + 1e-9)
          << "vip rank " << v.id << " epoch " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty, ::testing::Values(1ULL, 99ULL, 2014ULL, 31337ULL));

// --- Registry merge: permutation invariance --------------------------------------
//
// The sweep engine's contract leans on MetricRegistry::merge being a faithful
// aggregation: merging K sharded registries — in ANY order — must produce the
// same document as recording everything into one registry. Counts and bucket
// tallies are integers; the float-summed fields (histogram sum, gauge total)
// are only order-independent when the addition itself is exact, so samples
// are dyadic rationals (k/1024) whose partial sums carry no rounding — this
// makes byte-equality across permutations well-defined. (Real sweeps record
// arbitrary doubles; that is exactly why exec/sweep.h merges in FIXED shard
// order rather than relying on permutation invariance.)

class RegistryMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegistryMergeProperty, ShardedMergeEqualsSingleRegistryInAnyOrder) {
  constexpr std::size_t kShards = 6;
  const auto bounds = telemetry::Histogram::linear_bounds(0.0, 1.0, 20);

  // Reference: everything recorded into one registry, in shard order.
  telemetry::MetricRegistry single;
  std::vector<telemetry::MetricRegistry> shards(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng rng{exec::shard_seed(GetParam(), s)};
    auto& sh = shards[s];
    const int n = 50 + static_cast<int>(rng.uniform(100));
    for (int i = 0; i < n; ++i) {
      const double v = static_cast<double>(rng.uniform(1024)) / 1024.0;
      single.counter("p.events").inc();
      sh.counter("p.events").inc();
      single.histogram("p.values", bounds).record(v);
      sh.histogram("p.values", bounds).record(v);
      single.gauge("p.total").add(v);
      sh.gauge("p.total").add(v);
    }
  }

  // With exact sample sums, the whole document — counters, gauge total,
  // histogram sum/mean/extremes/buckets — must match byte for byte no matter
  // which order the shards merge in.
  const std::string want = telemetry::JsonExporter::to_json(single);
  std::vector<std::size_t> perm(kShards);
  std::iota(perm.begin(), perm.end(), 0);
  Rng shuffle_rng{GetParam() ^ 0xabcdefULL};
  for (int trial = 0; trial < 5; ++trial) {
    shuffle_rng.shuffle(perm);
    telemetry::MetricRegistry merged;
    for (const std::size_t s : perm) merged.merge(shards[s]);
    EXPECT_EQ(telemetry::JsonExporter::to_json(merged), want) << "permutation trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryMergeProperty,
                         ::testing::Values(1ULL, 42ULL, 0xdeadbeefULL));

}  // namespace
}  // namespace duet
