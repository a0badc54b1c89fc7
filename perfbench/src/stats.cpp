#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto at_or_below = static_cast<std::size_t>(std::max(rank, 1.0));
  return n - std::min(at_or_below, n);
}

PooledSummary pool_windows(const std::vector<Window>& windows) {
  PooledSummary out;
  std::vector<double> pooled;
  std::vector<double> rates;
  double seconds = 0.0;
  for (const Window& w : windows) {
    pooled.insert(pooled.end(), w.us.begin(), w.us.end());
    seconds += w.seconds;
    if (w.seconds > 0.0)
      rates.push_back(static_cast<double>(w.us.size()) / w.seconds);
  }
  std::sort(pooled.begin(), pooled.end());
  std::sort(rates.begin(), rates.end());
  out.samples = pooled.size();
  out.qps = seconds > 0.0 ? static_cast<double>(pooled.size()) / seconds : 0.0;
  out.p50_us = percentile_sorted(pooled, 0.50);
  out.p99_us = percentile_sorted(pooled, 0.99);
  out.p10_qps = percentile_sorted(rates, 0.10);
  out.p90_qps = percentile_sorted(rates, 0.90);
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace perfbench
