#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace duet::telemetry {

namespace {

// Relaxed CAS accumulate for atomic<double> (fetch_add on floating atomics
// is C++20 but not universally lowered well; the CAS loop is portable and
// uncontended in our single-writer shards).
void atomic_add(std::atomic<double>& a, double dx) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double dx) noexcept { atomic_add(v_, dx); }

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  DUET_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  DUET_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
             std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end())
      << "histogram bounds must be strictly increasing";
}

void Histogram::record(double x) noexcept { record_n(x, 1); }

void Histogram::record_n(double x, std::uint64_t n) noexcept {
  // x <= bounds_[i] lands in bucket i; beyond the last bound -> overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(n, std::memory_order_relaxed);
  atomic_add(sum_, x * static_cast<double>(n));
  // min_/max_ start at ±inf, so the first record is just another CAS
  // tighten — no "first sample" store that a racing second thread at
  // count 0 could clobber with a worse extremum.
  atomic_min(min_, x);
  atomic_max(max_, x);
  // Published last, with release: a reader whose acquire load of count_
  // sees this sample also sees the extrema tightened around it.
  count_.fetch_add(n, std::memory_order_release);
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  DUET_CHECK(!empty()) << "mean of empty Histogram";
  return sum() / static_cast<double>(count());
}

double Histogram::min() const {
  DUET_CHECK(!empty()) << "min of empty Histogram";
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  DUET_CHECK(!empty()) << "max of empty Histogram";
  return max_.load(std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  DUET_CHECK(!empty()) << "percentile of empty Histogram";
  DUET_CHECK(p >= 0.0 && p <= 100.0) << "percentile out of range: " << p;
  const double target = (p / 100.0) * static_cast<double>(count());
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(bucket(i));
    if (c == 0.0) continue;
    if (cum + c >= target) {
      if (i == counts_.size() - 1) return max();  // overflow bucket
      // Uniform mass inside the bucket, clamped to the observed range.
      const double lo = i == 0 ? std::min(min(), bounds_[0]) : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = c == 0.0 ? 0.0 : (target - cum) / c;
      return std::clamp(lo + (hi - lo) * frac, min(), max());
    }
    cum += c;
  }
  return max();
}

void Histogram::merge(const Histogram& other) {
  DUET_CHECK(bounds_ == other.bounds_) << "merging histograms with different bucket bounds";
  if (other.empty()) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
  }
  atomic_add(sum_, other.sum());
  atomic_min(min_, other.min());
  atomic_max(max_, other.max());
  count_.fetch_add(other.count(), std::memory_order_release);  // last, as in record_n
}

std::vector<double> Histogram::linear_bounds(double lo, double hi, std::size_t n) {
  DUET_CHECK(n >= 1 && hi > lo) << "bad linear bounds";
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i + 1) / static_cast<double>(n);
  }
  return out;
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi, std::size_t n) {
  DUET_CHECK(n >= 2 && lo > 0.0 && hi > lo) << "bad exponential bounds";
  std::vector<double> out(n);
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double b = lo;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = b;
    b *= ratio;
  }
  out.back() = hi;  // kill accumulated rounding so the top bound is exact
  return out;
}

// --- MetricRegistry ----------------------------------------------------------

Counter& MetricRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name, std::vector<double> upper_bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  } else {
    DUET_CHECK(it->second->bounds() == upper_bounds)
        << "histogram re-registered with different bounds: " << std::string(name);
  }
  return *it->second;
}

const Counter* MetricRegistry::find_counter(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricRegistry::find_gauge(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricRegistry::find_histogram(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricRegistry::merge(const MetricRegistry& other) {
  DUET_CHECK(this != &other) << "registry merged into itself";
  for (const auto& [name, c] : other.counters()) counter(name).merge(*c);
  for (const auto& [name, g] : other.gauges()) gauge(name).merge(*g);
  for (const auto& [name, h] : other.histograms()) {
    histogram(name, h->bounds()).merge(*h);
  }
}

std::vector<std::pair<std::string, const Counter*>> MetricRegistry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricRegistry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> MetricRegistry::histograms() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::size_t MetricRegistry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace duet::telemetry
