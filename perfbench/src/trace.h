// In-memory span recorder for the traced run. A span is one timed call into
// a layer: its name (the layer is the part before the first '.'), start and
// end on the steady clock, the enclosing span, and the request it belongs
// to (0 outside request handling). Spans are kept in memory and written as
// JSON once the run ends; nothing is recorded when tracing is off.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root span
  std::uint64_t request = 0;
};

// Total length of the union of [start, end) intervals, each clipped to
// [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals,
                        std::int64_t lo, std::int64_t hi);

// Self time of every span: its duration minus the part of it that its
// child spans cover.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// The layer a span name belongs to: the text before the first '.'.
std::string_view layer_of(std::string_view name);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Open a span under the innermost open span; returns its index (-1 when
  // tracing is off).
  int begin(std::string_view name, std::uint64_t request = 0);
  void end(int index);

  // Record an already finished span under `parent` (used for spans timed on
  // other threads and merged afterwards).
  void add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, std::uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration of span `index` in seconds (0 for -1).
  double seconds(int index) const;

  // Summed self time per layer, in seconds.
  std::map<std::string, double> layer_self_seconds() const;
  // Part of [job_start, job_end) covered by no root span, in seconds.
  double unattributed_seconds(std::int64_t job_start,
                              std::int64_t job_end) const;

  void write_json(std::ostream& out, std::int64_t job_start,
                  std::int64_t job_end) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close() {
    if (index_ >= 0) tracer_.end(index_);
    closed_ = index_;
    index_ = -1;
  }
  // Index of the span (valid after close() as well).
  int index() const { return index_ >= 0 ? index_ : closed_; }

 private:
  Tracer& tracer_;
  int index_;
  int closed_ = -1;
};

}  // namespace perfbench
