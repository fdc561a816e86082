// Low-overhead metrics: the shared observability substrate (naming
// convention: `duet.<layer>.<name>`).
//
// Three metric types, all designed around the sim hot paths:
//   * Counter   — monotonic u64; single-writer lock-free increment
//                 (relaxed atomic, no RMW contention in our single-threaded
//                 shards, safe to read from another thread);
//   * Gauge     — last-written double (table occupancy, MRU, flow pins);
//   * Histogram — FIXED bucket array chosen at registration. record() is a
//                 branchless-ish upper_bound over the bound array plus one
//                 relaxed increment: no per-sample allocation, unlike
//                 util/stats.h::Summary which stores every sample. Percentile
//                 answers are bucket-interpolated estimates — the trade for
//                 O(1) memory at 1e7+ samples.
//
// Every type (and the registry itself) is mergeable, so sharded simulations
// can run one registry per shard and combine at the end.
//
// The registry owns its metrics and hands out stable references: look up a
// metric once (mutex-guarded slow path), then hammer the returned object
// from the hot loop with no further registry involvement.
//
// Memory-ordering contract: every atomic here uses memory_order_relaxed,
// except a Histogram's count (below). Each individual metric read is
// coherent (no torn values, each load sees *some* recorded value), but a
// reader observing counter A does NOT thereby observe an earlier write to
// counter B — metrics carry no happens-before edges between each other.
// Readers wanting a consistent multi-metric picture must synchronize
// externally (e.g. join the writer threads first, as the exporters'
// callers do). Within one Histogram, count()/sum()/min()/max() read at a
// moment writers may still be mid-record_n: the fields are updated one by
// one, so transient states where sum() or a bucket is ahead of count() are
// expected. record_n tightens min/max (which start at ±inf and only ever
// tighten via CAS) BEFORE it publishes the new count with release, and
// count() loads with acquire. So once count() has returned n > 0, min()
// and max() are finite and bound every sample counted in those n; a
// sample still mid-record_n may already have tightened them further.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace duet::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void merge(const Counter& other) noexcept { inc(other.value()); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double x) noexcept { v_.store(x, std::memory_order_relaxed); }
  void add(double dx) noexcept;
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  // Gauges merge by summation: shard occupancies/loads add up. For
  // non-additive gauges (MRU), merge registries before the final set, or
  // take the max by hand.
  void merge(const Gauge& other) noexcept { add(other.value()); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  // `upper_bounds` must be strictly increasing; bucket i counts samples
  // x <= upper_bounds[i], with one implicit overflow bucket (+inf) at the
  // end. The array is fixed for the histogram's lifetime.
  explicit Histogram(std::vector<double> upper_bounds);

  // Hot path: no heap allocation, no locks.
  void record(double x) noexcept;
  void record_n(double x, std::uint64_t n) noexcept;

  // Acquire: pairs with record_n's release, see the ordering contract.
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_acquire); }
  bool empty() const noexcept { return count() == 0; }
  double sum() const noexcept;
  double mean() const;
  double min() const;  // exact (tracked per sample), not bucket-derived
  double max() const;

  // Bucket-interpolated percentile estimate, p in [0,100]. Within a bucket
  // the mass is assumed uniform; the overflow bucket answers with max().
  double percentile(double p) const;

  // Requires identical bounds (checked).
  void merge(const Histogram& other);

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }

  // Bound builders for the common shapes.
  static std::vector<double> linear_bounds(double lo, double hi, std::size_t n);
  static std::vector<double> exponential_bounds(double lo, double hi, std::size_t n);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Start at ±inf and only tighten (CAS), so concurrent first records can't
  // lose an extremum; finite once count() > 0 (min()/max() check).
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Named metric store. Registration (counter()/gauge()/histogram()) takes a
// mutex and is for setup / slow paths; the returned references stay valid
// for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Re-registering an existing histogram name requires identical bounds.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);

  // nullptr when the name was never registered (or is a different type).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Combines a shard's registry into this one: same-name metrics merge,
  // unseen names are created.
  void merge(const MetricRegistry& other);

  // Name-sorted views for the exporters (std::map keeps them ordered, so
  // exports are byte-stable across runs).
  std::vector<std::pair<std::string, const Counter*>> counters() const;
  std::vector<std::pair<std::string, const Gauge*>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace duet::telemetry
