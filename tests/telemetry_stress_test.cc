// Multi-threaded stress over the telemetry metrics — the workload the TSan
// CI leg exists for. Each test hammers one primitive from several threads
// and then asserts *exact* totals: the relaxed-atomic design loses no
// updates, it only forgoes cross-metric ordering (see metrics.h).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace duet::telemetry {
namespace {

constexpr int kThreads = 4;

// Launches kThreads running `fn(thread_index)` after a common start gate, so
// the racy window (e.g. the histogram's first sample) is actually contended.
template <typename Fn>
void run_threads(Fn fn) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      fn(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
}

TEST(TelemetryStressTest, CounterLosesNoIncrements) {
  Counter c;
  constexpr std::uint64_t kPerThread = 100000;
  run_threads([&](int) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
  });
  EXPECT_EQ(c.value(), kPerThread * kThreads);
}

TEST(TelemetryStressTest, GaugeAddLosesNoUpdates) {
  Gauge g;
  constexpr int kPerThread = 50000;
  run_threads([&](int) {
    for (int i = 0; i < kPerThread; ++i) g.add(1.0);
  });
  // Integer-valued doubles up to 2^53 add exactly; the CAS loop must not
  // drop any of the 200k updates.
  EXPECT_EQ(g.value(), static_cast<double>(kPerThread * kThreads));
}

TEST(TelemetryStressTest, HistogramTotalsAreExact) {
  Histogram h(Histogram::linear_bounds(0.0, 1000.0, 20));
  constexpr int kPerThread = 20000;
  run_threads([&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      h.record(static_cast<double>(t));  // thread t records its own index
    }
  });
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kPerThread * kThreads));
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), static_cast<double>(kThreads - 1));
  // Σ t * kPerThread for t in [0, kThreads)
  EXPECT_EQ(h.sum(), static_cast<double>(kPerThread) * (kThreads * (kThreads - 1)) / 2.0);
}

TEST(TelemetryStressTest, HistogramFirstSampleRaceKeepsExtremes) {
  // Regression for the lost-extremum race: when several threads recorded
  // concurrently at count 0, the old "first sample stores min/max" special
  // case let a later plain store clobber a racing thread's extremum. With
  // ±inf initialization every record is a CAS tighten, so the true min and
  // max must survive every interleaving.
  for (int round = 0; round < 200; ++round) {
    Histogram h(Histogram::linear_bounds(-200.0, 200.0, 8));
    run_threads([&](int t) { h.record(t == 0 ? -100.0 : static_cast<double>(t)); });
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(h.min(), -100.0) << "lost the minimum in round " << round;
    EXPECT_EQ(h.max(), static_cast<double>(kThreads - 1))
        << "lost the maximum in round " << round;
  }
}

TEST(TelemetryStressTest, RegistryConcurrentLookupAndRecord) {
  MetricRegistry registry;
  constexpr int kPerThread = 5000;
  run_threads([&](int t) {
    // Lookups go through the registry mutex every iteration on purpose:
    // this is the contended slow path, not the cached-reference hot path.
    for (int i = 0; i < kPerThread; ++i) {
      registry.counter("duet.stress.shared").inc();
      registry.counter("duet.stress.t" + std::to_string(t)).inc();
      registry.gauge("duet.stress.gauge").add(1.0);
      registry.histogram("duet.stress.hist", Histogram::linear_bounds(0.0, 10.0, 5))
          .record(static_cast<double>(i % 10));
    }
  });
  EXPECT_EQ(registry.counter("duet.stress.shared").value(),
            static_cast<std::uint64_t>(kPerThread * kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("duet.stress.t" + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kPerThread));
  }
  EXPECT_EQ(registry.gauge("duet.stress.gauge").value(),
            static_cast<double>(kPerThread * kThreads));
  EXPECT_EQ(registry.histogram("duet.stress.hist", Histogram::linear_bounds(0.0, 10.0, 5))
                .count(),
            static_cast<std::uint64_t>(kPerThread * kThreads));
}

TEST(TelemetryStressTest, ReadersRaceWritersSafely) {
  // A reader polling count()/sum()/min()/max()/percentile() while writers
  // record must see only coherent (possibly transiently inconsistent)
  // values — never a torn read or a crash. TSan verifies the "no data
  // race" half; the assertions verify monotonicity of count.
  Histogram h(Histogram::exponential_bounds(1.0, 1024.0, 11));
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = h.count();
      EXPECT_GE(now, last);
      last = now;
      if (now > 0) {
        EXPECT_LE(h.min(), h.max());
        // p50 first: min() only falls and max() only rises, so extrema read
        // after the percentile bound it, while extrema read before it may
        // be passed by a sample recorded in between.
        const double p50 = h.percentile(50.0);
        EXPECT_GE(p50, h.min());
        EXPECT_LE(p50, h.max());
      }
    }
  });
  run_threads([&](int t) {
    for (int i = 0; i < 20000; ++i) h.record(static_cast<double>((t + 1) * (i % 32 + 1)));
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(20000 * kThreads));
}

TEST(TelemetryStressTest, RegistryMergeCombinesShards) {
  // The sharded-sim pattern: one registry per worker, merged at the end.
  std::vector<MetricRegistry> shards(kThreads);
  run_threads([&](int t) {
    auto& counter = shards[t].counter("duet.stress.events");
    auto& hist = shards[t].histogram("duet.stress.lat", Histogram::linear_bounds(0.0, 100.0, 10));
    for (int i = 0; i < 10000; ++i) {
      counter.inc();
      hist.record(static_cast<double>(t * 10 + i % 10));
    }
  });
  MetricRegistry combined;
  for (const auto& shard : shards) combined.merge(shard);
  EXPECT_EQ(combined.counter("duet.stress.events").value(),
            static_cast<std::uint64_t>(10000 * kThreads));
  auto& merged =
      combined.histogram("duet.stress.lat", Histogram::linear_bounds(0.0, 100.0, 10));
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(10000 * kThreads));
  EXPECT_EQ(merged.min(), 0.0);
  EXPECT_EQ(merged.max(), static_cast<double>((kThreads - 1) * 10 + 9));
}

TEST(TelemetryStressTest, PoolDrivenSweepShardsMergeExactly) {
  // The real production pattern end to end: a work-stealing pool runs many
  // sweep tasks, each recording into its ShardContext registry; the merge
  // happens at the sweep barrier. Totals must be exact (nothing lost to the
  // stealing/claiming races TSan watches), and the merged document must be
  // byte-identical to a serial run of the same sweep.
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 2000;
  const auto task = [](exec::ShardContext& ctx) {
    auto& counter = ctx.metrics.counter("duet.stress.pool.events");
    auto& hist =
        ctx.metrics.histogram("duet.stress.pool.lat", Histogram::linear_bounds(0.0, 100.0, 10));
    for (int i = 0; i < kPerTask; ++i) {
      counter.inc();
      hist.record(static_cast<double>((ctx.shard + i) % 100));
    }
    return ctx.shard;
  };

  exec::ThreadPool serial{1};
  exec::SweepOptions serial_opts;
  serial_opts.pool = &serial;
  const auto ref = exec::sweep(kTasks, serial_opts, task);

  exec::ThreadPool pool{8};
  exec::SweepOptions opts;
  opts.pool = &pool;
  const auto got = exec::sweep(kTasks, opts, task);

  EXPECT_EQ(got.metrics->counter("duet.stress.pool.events").value(), kTasks * kPerTask);
  EXPECT_EQ(got.results, ref.results);
  EXPECT_EQ(JsonExporter::to_json(*got.metrics), JsonExporter::to_json(*ref.metrics));
}

}  // namespace
}  // namespace duet::telemetry
