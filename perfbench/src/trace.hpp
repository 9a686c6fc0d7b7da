// Span recorder for the traced run. Spans are recorded only from the
// benchmark's own code, around calls into a module's public functions;
// they are kept in memory and written out once, when the run ends.
//
// A span has a name, a start and end (steady clock, ns), the span that
// caused it (0 = none), and an operation id shared by every span of one
// request or run, so the spans of a request recorded on the client and on
// a server worker can be matched up afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t now_ns();

struct Span {
  const char* name = "";       ///< static string, e.g. "net.request"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< id of the causing span, 0 for a root
  std::uint64_t op = 0;        ///< request / run id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Thread-safe; a no-op when tracing is off.
  void record(const Span& span);

  [[nodiscard]] std::vector<Span> spans() const;
  /// All spans named `name`, in recording order.
  [[nodiscard]] std::vector<Span> spans_named(const std::string& name) const;

  /// Writes one JSON object per line:
  /// {"name","id","parent","op","start_ns","end_ns","self_ns"}.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span over its own lifetime; an `op` of 0 makes the span
/// its own operation (its id). With a null or disabled tracer it does
/// nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its children (spans naming it as parent) cover.
/// Overlapping children count once; a child sticking out of its parent's
/// interval is clipped to it.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
