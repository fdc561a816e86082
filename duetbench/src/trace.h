// In-memory span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer's public functions; nothing inside the program is
// instrumented. A span has a name, start, end, the span that caused it, and
// an id shared by every span of one datagram batch, op or epoch. Spans stay
// in memory and are written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace duetbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // 0 while open
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t id = 0;      // batch/op/epoch id, 0 = a container span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  // Opens a span; returns its handle (-1 when tracing is off).
  std::int64_t begin(const char* name, std::uint64_t id, std::int64_t parent = -1);
  // Opens a span that started at `start_ns` (a call timed before it was
  // known to be worth recording).
  std::int64_t begin_at(const char* name, std::uint64_t id, std::int64_t parent,
                        std::uint64_t start_ns);
  void end(std::int64_t handle);
  // Records a finished span.
  void record(const char* name, std::uint64_t id, std::int64_t parent, std::uint64_t start_ns,
              std::uint64_t end_ns);

  // Fresh id for one batch/op/epoch.
  std::uint64_t next_id();

  struct LayerTotals {
    double self_ns = 0.0;  // span time not covered by child spans
    std::uint64_t count = 0;
  };
  // Self time and count per span name.
  std::map<std::string, LayerTotals> self_times() const;

  // Empty when the span tree is well formed: every span closed, children
  // inside their parents, children carry their parent's id (or the parent is
  // a container), and no two unit spans (a non-zero id whose parent is a
  // container or the root) share an id.
  std::string check() const;

  std::size_t size() const;
  // One line per span: index name start_ns end_ns parent id.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// RAII scope around one call.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t id, std::int64_t parent = -1)
      : tracer_(tracer), handle_(tracer.begin(name, id, parent)) {}
  ~SpanScope() { tracer_.end(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::int64_t handle() const noexcept { return handle_; }

 private:
  Tracer& tracer_;
  std::int64_t handle_;
};

}  // namespace duetbench
