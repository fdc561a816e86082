// Small helpers shared by the benchmark's phases: clocks, CPU accounting,
// order statistics, a seeded generator, and a scratch directory that is
// removed on every exit path.
#pragma once

#include <ftw.h>
#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace duetbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
// CPU time of the whole process (every thread) and of the calling thread.
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

// Nearest-rank quantile over a copy; NaN for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1), std::ceil(q * static_cast<double>(v.size())) - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}
template <typename T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

// The lowest, over `slices` consecutive slices of `v`, of each slice's
// q-quantile. On a VM whose vCPUs are time-shared with other tenants, steal
// only ever adds time, and it comes in bursts: the least-disturbed slice
// is what the program itself costs, while a regression in the program
// raises every slice. Falls back to the whole sample when it is short.
template <typename T>
double lowest_slice_quantile(const std::vector<T>& v, double q, std::size_t slices) {
  if (v.size() < slices * 20) return quantile(v, q);
  double lowest = 0.0;
  const std::size_t n = v.size() / slices;
  for (std::size_t i = 0; i < slices; ++i) {
    const double x = quantile(std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(i * n),
                                             v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n)),
                              q);
    lowest = i == 0 ? x : std::min(lowest, x);
  }
  return lowest;
}

// splitmix64: every generated input derives from --seed through this.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_++); }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// A fresh mkdtemp directory under `parent`, removed with its contents when
// the object goes away.
class ScratchDir {
 public:
  static std::optional<ScratchDir> make(const std::string& parent) {
    std::string tmpl = parent + "/r-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return std::nullopt;
    return ScratchDir(std::move(tmpl));
  }
  ScratchDir(ScratchDir&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  ScratchDir& operator=(ScratchDir&&) = delete;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    if (path_.empty()) return;
    ::nftw(
        path_.c_str(),
        [](const char* p, const struct stat*, int, struct FTW*) { return ::remove(p); }, 16,
        FTW_DEPTH | FTW_PHYS);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

}  // namespace duetbench
