#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::clamp(start, lo, hi);
    end = std::clamp(end, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans)
    if (span.parent >= 0 && static_cast<std::size_t>(span.parent) < spans.size())
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - covered_ns(std::move(children[i]), spans[i].start_ns,
                                    spans[i].end_ns);
  }
  return self;
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

int Tracer::begin(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void Tracer::add(std::string_view name, std::int64_t start_ns,
                 std::int64_t end_ns, int parent, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent, request});
}

double Tracer::seconds(int index) const {
  if (index < 0) return 0.0;
  const Span& span = spans_[static_cast<std::size_t>(index)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e9;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[std::string(layer_of(spans_[i].name))] +=
        static_cast<double>(self[i]) / 1e9;
  return out;
}

double Tracer::unattributed_seconds(std::int64_t job_start,
                                    std::int64_t job_end) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& span : spans_)
    if (span.parent < 0) roots.emplace_back(span.start_ns, span.end_ns);
  const std::int64_t covered = covered_ns(std::move(roots), job_start, job_end);
  return static_cast<double>(job_end - job_start - covered) / 1e9;
}

void Tracer::write_json(std::ostream& out, std::int64_t job_start,
                        std::int64_t job_end) const {
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  out << "{\"job_ns\": " << (job_end - job_start) << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << (s.start_ns - job_start)
        << ", \"end_ns\": " << (s.end_ns - job_start)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self_ns\": " << self[i] << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
