#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "util.h"

namespace duetbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t id, std::int64_t parent) {
  if (!enabled_) return -1;
  return begin_at(name, id, parent, now_ns());
}

std::int64_t Tracer::begin_at(const char* name, std::uint64_t id, std::int64_t parent,
                              std::uint64_t start_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, 0, parent, id});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::record(const char* name, std::uint64_t id, std::int64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
}

void Tracer::end(std::int64_t handle) {
  if (handle < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(handle)].end_ns = t;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::LayerTotals> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    LayerTotals& t = out[s.name];
    t.self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
    ++t.count;
  }
  return out;
}

std::string Tracer::check() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::uint64_t> unit_ids;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string at = std::string(s.name) + " #" + std::to_string(i);
    if (s.end_ns == 0 || s.end_ns < s.start_ns) return at + ": not closed";
    if (s.parent >= static_cast<std::int64_t>(i)) return at + ": parent opened after the child";
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return at + ": outside its parent";
      if (p.id != 0 && s.id != p.id) return at + ": id differs from its parent's";
    }
    const bool unit = s.id != 0 && (s.parent < 0 || spans_[static_cast<std::size_t>(s.parent)].id == 0);
    if (unit && !unit_ids.insert(s.id).second) return at + ": id shared by two units";
  }
  return {};
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu %s %llu %llu %lld %llu\n", i, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
  }
  return std::fclose(f) == 0;
}

}  // namespace duetbench
