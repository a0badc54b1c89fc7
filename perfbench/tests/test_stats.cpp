// Percentile, median and metric-name rules of the benchmark's own code.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnSortedSamples) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile_sorted(sorted, 0.0), 1);
  EXPECT_EQ(percentile_sorted(sorted, 0.1), 1);
  EXPECT_EQ(percentile_sorted(sorted, 0.11), 2);
  EXPECT_EQ(percentile_sorted(sorted, 0.5), 5);
  EXPECT_EQ(percentile_sorted(sorted, 0.99), 10);
  EXPECT_EQ(percentile_sorted(sorted, 1.0), 10);
}

TEST(Percentile, SortsItsInputAndClampsQ) {
  EXPECT_EQ(percentile({30, 10, 20}, 0.5), 20);
  EXPECT_EQ(percentile({30, 10, 20}, -1.0), 10);
  EXPECT_EQ(percentile({30, 10, 20}, 2.0), 30);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, P99OfAThousandSamples) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(percentile(samples, 0.99), 990);
  EXPECT_EQ(percentile(samples, 0.999), 999);
}

TEST(PoolWindows, PoolsRequestsSecondsAndLatencies) {
  const std::vector<Window> windows = {
      {1.0, {30, 30, 30}}, {1.0, {10, 10, 11, 12}},
      {2.0, {20, 20}},     {1.0, {9, 10, 10, 40}}};
  const PooledSummary all = pool_windows(windows);
  EXPECT_EQ(all.samples, 13u);
  EXPECT_DOUBLE_EQ(all.qps, 13.0 / 5.0);
  EXPECT_EQ(all.p50_us, 12);  // 7th of 13
  EXPECT_EQ(all.p99_us, 40);
  // Window rates 3, 4, 1 and 4 per second.
  EXPECT_DOUBLE_EQ(all.p10_qps, 1.0);
  EXPECT_DOUBLE_EQ(all.p90_qps, 4.0);
  const PooledSummary none = pool_windows({});
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.qps, 0.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({}), 0);
}

TEST(SamplesBeyond, CountsTheTailPastThePercentile) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1000, 0.999), 1u);
  EXPECT_EQ(samples_beyond(10000, 0.999), 10u);
  EXPECT_EQ(samples_beyond(10, 0.5), 5u);
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(MetricName, AcceptsTheContractAlphabet) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("query.execute_us.peers_of"));
  EXPECT_TRUE(valid_metric_name("core.rss_mib.after_round1"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricName, RejectsEverythingElse) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("p99/us"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name("µs"));
}

TEST(FormatDouble, RoundTripsEveryDigit) {
  EXPECT_EQ(format_double(1.2034), "1.2034");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(12345.0), "12345");
  const double value = 0.81273456789012345;
  EXPECT_EQ(std::stod(format_double(value)), value);
}

}  // namespace
}  // namespace perfbench
