// Order statistics and metric naming shared by every perfbench workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
// at least q of the samples at or below it. q is clamped to [0, 1]; an
// empty input yields 0.
double percentile_sorted(const std::vector<double>& sorted, double q);

// Sorts a copy and takes the nearest-rank percentile.
double percentile(std::vector<double> samples, double q);

// Median: the middle sample, or the mean of the two middle samples.
double median(std::vector<double> samples);

// How many samples lie strictly beyond the nearest-rank q-percentile: a
// tail percentile is only reported when this is at least ten.
std::size_t samples_beyond(std::size_t n, double q);

// One stretch of a timed loop: a fixed stretch of one client's closed loop,
// or one batch of an in-process replay. `us` holds the latency of every
// request completed in it.
struct Window {
  double seconds = 0.0;
  std::vector<double> us;
};

// Throughput and latency pooled over windows: qps is their requests over
// their seconds, p50 and p99 come from all their latencies. `p10_qps` and
// `p90_qps` are the 10th and 90th percentiles of the windows' own rates,
// printed as a record of how much the host moved during the run.
struct PooledSummary {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
  double p10_qps = 0.0;
  double p90_qps = 0.0;
};
PooledSummary pool_windows(const std::vector<Window>& windows);

// Metric names are 1-64 characters from [A-Za-z0-9_.-], starting with a
// letter or a digit.
bool valid_metric_name(std::string_view name);

// Shortest decimal text that reads back as the same double (JSON-safe for
// finite values).
std::string format_double(double value);

}  // namespace perfbench
