// Determinism regression suite for the exec/ parallel substrate (and its two
// biggest clients): for a fixed seed, results, merged metric documents, and
// assignments must be BIT-FOR-BIT identical at 1, 2, and 8 threads. Runs
// under TSan in CI, so it also doubles as the pool's race detector.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "sim/failure.h"
#include "sim/flowsim.h"
#include "telemetry/export.h"
#include "workload/tracegen.h"

namespace duet {
namespace {

using telemetry::JsonExporter;

constexpr std::size_t kWidths[] = {1, 2, 8};
constexpr std::uint64_t kSeeds[] = {1, 42, 0xdeadbeef};

// --- ThreadPool ---------------------------------------------------------------

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  exec::ThreadPool pool{4};
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, WorkerIdsStayWithinWidth) {
  exec::ThreadPool pool{3};
  std::atomic<bool> ok{true};
  pool.parallel_for(5'000, [&](std::size_t, std::size_t worker) {
    if (worker >= pool.width()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, WidthOneRunsInOrder) {
  exec::ThreadPool pool{1};
  std::vector<std::size_t> order;
  pool.parallel_for(100, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  exec::ThreadPool pool{4};
  constexpr std::size_t kOuter = 16, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    // The nested call must not deadlock and must cover its whole range on
    // the calling worker.
    pool.parallel_for(kInner, [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, EmptyAndSingleElementRanges) {
  exec::ThreadPool pool{4};
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(worker, 0u);  // n==1 takes the serial path on the caller
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ManyMoreIndicesThanWorkersAndViceVersa) {
  exec::ThreadPool pool{8};
  std::atomic<std::size_t> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });  // n < width
  EXPECT_EQ(count.load(), 3u);
  count = 0;
  pool.parallel_for(100'000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100'000u);
}

TEST(ThreadPoolTest, SetDefaultWidthOverrides) {
  exec::set_default_width(3);
  EXPECT_EQ(exec::default_width(), 3u);
  exec::set_default_width(0);  // back to the env/CMake/HW chain
  EXPECT_GE(exec::default_width(), 1u);
}

// --- shard_seed ---------------------------------------------------------------

TEST(ShardSeedTest, AdjacentTasksAndSweepsDecorrelate) {
  EXPECT_NE(exec::shard_seed(1, 0), exec::shard_seed(1, 1));
  EXPECT_NE(exec::shard_seed(1, 0), exec::shard_seed(2, 0));
  // Stability: the value is part of the determinism contract — a change
  // here silently invalidates every golden file.
  EXPECT_EQ(exec::shard_seed(1, 0), exec::shard_seed(1, 0));
}

// --- sweep() ------------------------------------------------------------------

// A sweep task that uses every ShardContext facility: rng, metrics, journal.
double noisy_task(exec::ShardContext& ctx) {
  double acc = 0.0;
  auto& hist = ctx.metrics.histogram("test.values", telemetry::Histogram::linear_bounds(0, 1, 10));
  for (int i = 0; i < 100; ++i) {
    const double v = ctx.rng.uniform01();
    acc += v;
    hist.record(v);
  }
  ctx.metrics.counter("test.tasks").inc();
  ctx.metrics.gauge("test.sum").set(acc);
  ctx.journal.record(static_cast<double>(ctx.shard), telemetry::EventKind::kVipFallback, {}, {},
                     static_cast<SwitchId>(ctx.shard));
  return acc;
}

TEST(SweepTest, IdenticalAcrossWidthsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    exec::SweepOptions ref_opts;
    exec::ThreadPool ref_pool{1};
    ref_opts.pool = &ref_pool;
    ref_opts.seed = seed;
    const auto ref = exec::sweep(37, ref_opts, noisy_task);
    const std::string ref_json = JsonExporter::to_json("sweep", ref.metrics.get(), &ref.journal);

    for (const std::size_t width : kWidths) {
      exec::ThreadPool pool{width};
      exec::SweepOptions opts;
      opts.pool = &pool;
      opts.seed = seed;
      const auto got = exec::sweep(37, opts, noisy_task);
      EXPECT_EQ(got.results, ref.results) << "width " << width << " seed " << seed;
      EXPECT_EQ(JsonExporter::to_json("sweep", got.metrics.get(), &got.journal), ref_json)
          << "width " << width << " seed " << seed;
    }
  }
}

TEST(SweepTest, JournalMergeOrdersByTimeThenShard) {
  // Two shards journal at the same timestamps; the merged order must be
  // (t_us, shard, seq) — shard 0's events before shard 1's at equal times —
  // regardless of which thread ran first.
  exec::ThreadPool pool{4};
  exec::SweepOptions opts;
  opts.pool = &pool;
  const auto swept = exec::sweep(4, opts, [](exec::ShardContext& ctx) {
    ctx.journal.record(10.0, telemetry::EventKind::kVipFallback, {}, {},
                       static_cast<SwitchId>(ctx.shard));
    ctx.journal.record(5.0, telemetry::EventKind::kVipFallback, {}, {},
                       static_cast<SwitchId>(100 + ctx.shard));
    return 0;
  });
  const auto ordered = swept.journal.ordered();
  ASSERT_EQ(ordered.size(), 8u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ordered[s].t_us, 5.0);
    EXPECT_EQ(ordered[s].sw, static_cast<SwitchId>(100 + s));
    EXPECT_EQ(ordered[4 + s].t_us, 10.0);
    EXPECT_EQ(ordered[4 + s].sw, static_cast<SwitchId>(s));
  }
}

// --- Fig 19-style flow sweep --------------------------------------------------

class FlowSweepDeterminismTest : public ::testing::Test {
 protected:
  FlowSweepDeterminismTest() : fabric_(build_fattree(FatTreeParams::scaled(4, 6, 4))) {
    TraceParams p;
    p.vip_count = 200;
    p.total_gbps = 400.0;
    p.epochs = 1;
    trace_ = generate_trace(fabric_, p);
    demands_ = build_demands(fabric_, trace_, 0);
    assignment_ = VipAssigner{fabric_, AssignmentOptions{}}.assign(demands_);
    for (std::size_t c = 0; c < fabric_.params.containers; ++c) {
      smux_tors_.push_back(fabric_.tors[c * fabric_.params.tors_per_container]);
    }
  }

  std::vector<FailureScenario> scenarios(std::uint64_t seed) const {
    Rng rng{seed};
    std::vector<FailureScenario> out;
    out.push_back(healthy_scenario());
    for (int i = 0; i < 6; ++i) {
      out.push_back(random_switch_failure(fabric_, 3, rng));
      out.push_back(random_container_failure(fabric_, rng));
    }
    return out;
  }

  FatTree fabric_;
  Trace trace_;
  std::vector<VipDemand> demands_;
  Assignment assignment_;
  std::vector<SwitchId> smux_tors_;
};

bool same_result(const FlowSimResult& a, const FlowSimResult& b) {
  return a.link_load_gbps == b.link_load_gbps &&
         a.max_link_utilization == b.max_link_utilization && a.max_link == b.max_link &&
         a.hmux_gbps == b.hmux_gbps && a.smux_gbps == b.smux_gbps &&
         a.vanished_gbps == b.vanished_gbps && a.blackholed_gbps == b.blackholed_gbps;
}

TEST_F(FlowSweepDeterminismTest, IdenticalAcrossWidthsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const auto scen = scenarios(seed);

    exec::ThreadPool ref_pool{1};
    FlowSweepOptions ref_opts;
    ref_opts.pool = &ref_pool;
    const auto ref = sweep_flows(fabric_, demands_, assignment_, smux_tors_, scen, ref_opts);
    const std::string ref_json = JsonExporter::to_json(*ref.metrics);

    // The width-1 sweep must agree with plain serial simulate_flows calls.
    for (std::size_t i = 0; i < scen.size(); ++i) {
      const auto direct = simulate_flows(fabric_, demands_, assignment_, smux_tors_, scen[i]);
      EXPECT_TRUE(same_result(ref.runs[i], direct)) << "scenario " << i;
    }

    for (const std::size_t width : kWidths) {
      exec::ThreadPool pool{width};
      FlowSweepOptions opts;
      opts.pool = &pool;
      const auto got = sweep_flows(fabric_, demands_, assignment_, smux_tors_, scen, opts);
      ASSERT_EQ(got.runs.size(), ref.runs.size());
      for (std::size_t i = 0; i < scen.size(); ++i) {
        EXPECT_TRUE(same_result(got.runs[i], ref.runs[i]))
            << "width " << width << " seed " << seed << " scenario " << i;
      }
      EXPECT_EQ(JsonExporter::to_json(*got.metrics), ref_json)
          << "width " << width << " seed " << seed;
    }
  }
}

// --- greedy_assign ------------------------------------------------------------

class AssignDeterminismTest : public ::testing::Test {
 protected:
  AssignDeterminismTest() : fabric_(build_fattree(FatTreeParams::scaled(4, 6, 4))) {}

  std::vector<VipDemand> demands(std::uint64_t seed) const {
    TraceParams p;
    p.vip_count = 300;
    p.total_gbps = 500.0;
    p.epochs = 1;
    p.seed = seed;
    const auto trace = generate_trace(fabric_, p);
    return build_demands(fabric_, trace, 0);
  }

  FatTree fabric_;
};

bool same_assignment(const Assignment& a, const Assignment& b) {
  return a.placement == b.placement && a.on_smux == b.on_smux && a.hmux_gbps == b.hmux_gbps &&
         a.smux_gbps == b.smux_gbps && a.mru == b.mru &&
         a.link_load_gbps == b.link_load_gbps && a.switch_dips_used == b.switch_dips_used;
}

TEST_F(AssignDeterminismTest, IdenticalAcrossWidthsAndSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const auto d = demands(seed);
    // Both tie-break modes: the rng reservoir draw order must also be
    // width-invariant (the reduction is serial).
    for (const bool random_ties : {false, true}) {
      exec::ThreadPool ref_pool{1};
      AssignmentOptions ref_o;
      ref_o.random_tie_break = random_ties;
      ref_o.pool = &ref_pool;
      const auto ref = VipAssigner{fabric_, ref_o}.assign(d);

      for (const std::size_t width : kWidths) {
        exec::ThreadPool pool{width};
        AssignmentOptions o;
        o.random_tie_break = random_ties;
        o.pool = &pool;
        const auto got = VipAssigner{fabric_, o}.assign(d);
        EXPECT_TRUE(same_assignment(got, ref))
            << "width " << width << " seed " << seed << " random_ties " << random_ties;
      }
    }
  }
}

TEST_F(AssignDeterminismTest, StickyChainIdenticalAcrossWidths) {
  const auto d0 = demands(7);
  const auto d1 = demands(8);

  exec::ThreadPool ref_pool{1};
  AssignmentOptions ref_o;
  ref_o.pool = &ref_pool;
  const VipAssigner ref_assigner{fabric_, ref_o};
  const auto ref0 = ref_assigner.assign(d0);
  const auto ref1 = ref_assigner.assign_sticky(d1, ref0);

  for (const std::size_t width : kWidths) {
    exec::ThreadPool pool{width};
    AssignmentOptions o;
    o.pool = &pool;
    const VipAssigner assigner{fabric_, o};
    const auto a0 = assigner.assign(d0);
    const auto a1 = assigner.assign_sticky(d1, a0);
    EXPECT_TRUE(same_assignment(a0, ref0)) << "width " << width;
    EXPECT_TRUE(same_assignment(a1, ref1)) << "width " << width;
  }
}

}  // namespace
}  // namespace duet
