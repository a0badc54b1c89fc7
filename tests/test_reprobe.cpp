// Adaptive re-probing end to end: deterministic retry/backoff streams,
// zero-loss identity, loss-sweep hardening, retry accounting, and the
// per-segment confidence plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "dataplane/reprobe.h"
#include "fixtures.h"
#include "infer/confidence.h"
#include "io/snapshot.h"
#include "util/rng.h"

namespace cloudmap {
namespace {

using testfx::small_world;

// ---------------- policy units ----------------

TEST(ReprobePolicy, DisabledByDefault) {
  const ReprobePolicy policy;
  EXPECT_EQ(policy.budget, 0);
  EXPECT_FALSE(policy.enabled());
  EXPECT_TRUE(ReprobePolicy{.budget = 1}.enabled());
}

TEST(ReprobePolicy, ClampedSanitizesEveryField) {
  ReprobePolicy wild;
  wild.budget = 99;
  wild.backoff_base_ticks = ~std::uint64_t{0};
  wild.backoff_multiplier = 1e9;
  wild.backoff_jitter = 2.0;
  const ReprobePolicy high = wild.clamped();
  EXPECT_EQ(high.budget, ReprobePolicy::kMaxBudget);
  EXPECT_LE(high.backoff_base_ticks, std::uint64_t{1} << 32);
  EXPECT_DOUBLE_EQ(high.backoff_multiplier, 64.0);
  EXPECT_DOUBLE_EQ(high.backoff_jitter, 0.99);

  ReprobePolicy negative;
  negative.budget = -3;
  negative.backoff_multiplier = 0.25;
  negative.backoff_jitter = -1.0;
  const ReprobePolicy low = negative.clamped();
  EXPECT_EQ(low.budget, 0);
  EXPECT_DOUBLE_EQ(low.backoff_multiplier, 1.0);
  EXPECT_DOUBLE_EQ(low.backoff_jitter, 0.0);

  // NaN takes the lower bound instead of propagating.
  ReprobePolicy poisoned;
  poisoned.backoff_multiplier = std::nan("");
  EXPECT_DOUBLE_EQ(poisoned.clamped().backoff_multiplier, 1.0);
}

TEST(ReprobePolicy, BackoffIsDeterministicAndExponential) {
  ReprobePolicy policy;
  policy.backoff_base_ticks = 100;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.25;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    Rng a(77);
    Rng b(77);
    const std::uint64_t ticks = policy.backoff_ticks(attempt, a);
    EXPECT_EQ(ticks, policy.backoff_ticks(attempt, b));  // same stream, same wait
    // Jittered around base * multiplier^(k-1) by at most the jitter factor.
    const double nominal = 100.0 * std::pow(2.0, attempt - 1);
    EXPECT_GE(static_cast<double>(ticks), nominal * 0.74);
    EXPECT_LE(static_cast<double>(ticks), nominal * 1.26);
  }
}

TEST(ReprobePolicy, BackoffIsCappedForExtremeAttempts) {
  ReprobePolicy policy;
  policy.backoff_base_ticks = std::uint64_t{1} << 32;
  policy.backoff_multiplier = 64.0;
  policy.backoff_jitter = 0.0;
  Rng rng(1);
  // 64^15 * 2^32 would overflow anything; the cap keeps the clock finite.
  EXPECT_EQ(policy.backoff_ticks(16, rng), std::uint64_t{1000000000000000});
}

TEST(ReprobePolicy, StreamSeedsNeverCollide) {
  const std::uint64_t chunk_seed = 0x1234abcd5678ef00ULL;
  std::set<std::uint64_t> seeds;
  for (std::uint64_t target = 0; target < 64; ++target)
    for (int attempt = 1; attempt <= 4; ++attempt)
      seeds.insert(reprobe_stream_seed(chunk_seed, target, attempt));
  EXPECT_EQ(seeds.size(), 64u * 4u);
  // Deterministic: same inputs, same stream.
  EXPECT_EQ(reprobe_stream_seed(chunk_seed, 7, 2),
            reprobe_stream_seed(chunk_seed, 7, 2));
  // And distinct from the chunk's own primary stream seed.
  EXPECT_EQ(seeds.count(chunk_seed), 0u);
}

// ---------------- confidence units ----------------

TEST(Confidence, ScoreIsBoundedAndMonotoneInEvidence) {
  for (const Confirmation c :
       {Confirmation::kUnconfirmed, Confirmation::kIxpClient,
        Confirmation::kHybrid, Confirmation::kReachability,
        Confirmation::kAliasRelabel}) {
    for (std::uint32_t n : {0u, 1u, 2u, 8u, 1000u}) {
      const double score = confidence_score(n, 2, 1.0, confirmation_weight(c));
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 1.0);
    }
  }
  // More observations, more rounds, denser hops, stronger heuristics: each
  // axis can only raise the score.
  const double w = confirmation_weight(Confirmation::kHybrid);
  EXPECT_LT(confidence_score(1, 1, 0.5, w), confidence_score(4, 1, 0.5, w));
  EXPECT_LT(confidence_score(4, 1, 0.5, w), confidence_score(4, 2, 0.5, w));
  EXPECT_LT(confidence_score(4, 2, 0.5, w), confidence_score(4, 2, 0.9, w));
  EXPECT_LT(confidence_score(4, 2, 0.9,
                             confirmation_weight(Confirmation::kUnconfirmed)),
            confidence_score(4, 2, 0.9,
                             confirmation_weight(Confirmation::kIxpClient)));
}

TEST(Confidence, SegmentConfidenceAggregatesTrackedEvidence) {
  InferredSegment segment;
  segment.confirmation = Confirmation::kIxpClient;
  segment.observations = 4;
  segment.rounds_mask = 0b11;  // seen in rounds 1 and 2
  segment.hop_density_sum = 3.2;
  const SegmentConfidence conf = segment_confidence(segment);
  EXPECT_EQ(conf.observations, 4u);
  EXPECT_EQ(conf.rounds_seen, 2u);
  EXPECT_DOUBLE_EQ(conf.hop_density, 0.8);
  EXPECT_DOUBLE_EQ(conf.heuristic_weight, 1.0);
  EXPECT_GT(conf.score, 0.8);  // strong on every axis
  EXPECT_LE(conf.score, 1.0);

  // A never-observed segment scores only its heuristic weight share.
  const InferredSegment empty;
  const SegmentConfidence zero = segment_confidence(empty);
  EXPECT_EQ(zero.observations, 0u);
  EXPECT_DOUBLE_EQ(zero.hop_density, 0.0);
  EXPECT_LT(zero.score, 0.1);
}

// ---------------- campaign-level properties ----------------

// A copy of the shared small world in which every router always answers.
// With host_response forced to 1 and loop/queueing artifacts off, every
// probe outcome is deterministic: the only failed traces are unrouted
// targets and silent-by-policy routers, and a retry reproduces them
// identically. Re-probing therefore cannot change the inferred fabric.
const World& zero_loss_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::small();
    config.seed = 42;  // same world as small_world(), regenerated (World is
                       // move-only), then made fully responsive
    World fresh = generate_world(config);
    for (Router& router : fresh.routers) router.response_probability = 1.0;
    return fresh;
  }();
  return world;
}

PipelineOptions zero_loss_options(int threads, int budget) {
  PipelineOptions options;
  options.metrics = false;
  options.campaign.threads = threads;
  options.campaign.reprobe.budget = budget;
  options.campaign.traceroute.host_response = 1.0;
  options.campaign.traceroute.loop_probability = 0.0;
  options.campaign.traceroute.queueing_probability = 0.0;
  return options;
}

std::vector<InferredSegment> round1_fabric(const World& world,
                                           const PipelineOptions& options) {
  Pipeline pipeline(world, options);
  pipeline.run_until(StageId::kRound1);
  return pipeline.campaign().fabric().segments();
}

TEST(Reprobe, ZeroLossRetriesNeverChangeTheFabric) {
  const std::vector<InferredSegment> baseline =
      round1_fabric(zero_loss_world(), zero_loss_options(1, 0));
  ASSERT_FALSE(baseline.empty());
  EXPECT_TRUE(testfx::same_segments(
      round1_fabric(zero_loss_world(), zero_loss_options(1, 3)), baseline));
  EXPECT_TRUE(testfx::same_segments(
      round1_fabric(zero_loss_world(), zero_loss_options(4, 0)), baseline));
  EXPECT_TRUE(testfx::same_segments(
      round1_fabric(zero_loss_world(), zero_loss_options(4, 3)), baseline));
}

PipelineOptions lossy_options(int threads, int budget, double scale) {
  PipelineOptions options;
  options.metrics = false;
  options.campaign.threads = threads;
  options.campaign.reprobe.budget = budget;
  options.campaign.traceroute.response_scale = scale;
  return options;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> round1_segments(
    Pipeline& pipeline) {
  pipeline.run_until(StageId::kRound1);
  std::set<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const InferredSegment& segment : pipeline.campaign().fabric().segments())
    out.insert({segment.abi.value(), segment.cbi.value()});
  return out;
}

TEST(Reprobe, RetryResultsAreThreadCountInvariant) {
  Pipeline one(small_world(), lossy_options(1, 2, 0.6));
  Pipeline four(small_world(), lossy_options(4, 2, 0.6));
  EXPECT_EQ(round1_segments(one), round1_segments(four));
  const RoundStats& a = one.round1();
  const RoundStats& b = four.round1();
  EXPECT_EQ(a.retried_targets, b.retried_targets);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_waits, b.backoff_waits);
  EXPECT_EQ(a.backoff_ticks, b.backoff_ticks);
  EXPECT_EQ(a.recovered_targets, b.recovered_targets);
  EXPECT_GT(a.retried_targets, 0u);
  EXPECT_GT(a.recovered_targets, 0u);
}

TEST(Reprobe, MoreBudgetOnlyAddsEvidence) {
  // The attempt sequence for a target is a prefix across budgets, so a
  // bigger budget recovers a superset of targets and infers a superset of
  // segments.
  Pipeline b0(small_world(), lossy_options(2, 0, 0.6));
  Pipeline b1(small_world(), lossy_options(2, 1, 0.6));
  Pipeline b3(small_world(), lossy_options(2, 3, 0.6));
  const auto s0 = round1_segments(b0);
  const auto s1 = round1_segments(b1);
  const auto s3 = round1_segments(b3);
  for (const auto& segment : s0) EXPECT_EQ(s1.count(segment), 1u);
  for (const auto& segment : s1) EXPECT_EQ(s3.count(segment), 1u);
  EXPECT_EQ(b0.round1().retries, 0u);
  EXPECT_EQ(b0.round1().recovered_targets, 0u);
  EXPECT_EQ(b1.round1().retried_targets, b3.round1().retried_targets);
  EXPECT_GE(b3.round1().recovered_targets, b1.round1().recovered_targets);
  EXPECT_GT(b1.round1().recovered_targets, 0u);
}

TEST(Reprobe, LossSweepIsMonotoneAndFabricatesNothing) {
  // Every extracted segment demands a fully-responding prefix up to the
  // border, so even heavy loss can only *miss* segments, never invent
  // them: everything found under loss must also be found by the
  // fully-responsive campaign over the same world.
  Pipeline complete(zero_loss_world(), zero_loss_options(2, 0));
  const auto truth = round1_segments(complete);

  std::uint64_t previous_retried = 0;
  for (const double scale : {1.0, 0.75, 0.5}) {
    Pipeline lossy(small_world(), lossy_options(2, 2, scale));
    const auto segments = round1_segments(lossy);
    for (const auto& segment : segments)
      EXPECT_EQ(truth.count(segment), 1u)
          << "fabricated segment at scale " << scale;
    const RoundStats& stats = lossy.round1();
    EXPECT_GE(stats.retried_targets, previous_retried)
        << "loss went up but fewer targets failed (scale " << scale << ")";
    previous_retried = stats.retried_targets;
    EXPECT_EQ(stats.backoff_waits, stats.retries);
    EXPECT_GT(stats.backoff_ticks, stats.backoff_waits);  // base is 64 ticks
  }
}

TEST(Reprobe, RetryCountersReachTheMetricsRegistry) {
  PipelineOptions options = lossy_options(2, 2, 0.6);
  options.metrics = true;
  Pipeline pipeline(small_world(), options);
  pipeline.run_until(StageId::kRound1);
  const RoundStats& stats = pipeline.round1();
  const MetricsRegistry& metrics = pipeline.metrics();
  EXPECT_EQ(metrics.counter_value("campaign.retry.attempts"), stats.retries);
  EXPECT_EQ(metrics.counter_value("campaign.retry.backoff_waits"),
            stats.backoff_waits);
  EXPECT_EQ(metrics.counter_value("campaign.retry.backoff_ticks"),
            stats.backoff_ticks);
  EXPECT_EQ(metrics.counter_value("campaign.retry.recovered_targets"),
            stats.recovered_targets);
  EXPECT_GT(stats.retries, 0u);
  // Backoff waits occupy probe slots: the simulated campaign stretches.
  RoundStats without = stats;
  without.backoff_ticks = 0;
  EXPECT_GT(stats.duration_days(8), without.duration_days(8));
}

// ---------------- deterministic-metrics byte identity ----------------

TEST(Reprobe, DeterministicMetricsSnapshotIsByteIdentical) {
  PipelineOptions options;
  options.campaign.threads = 2;
  options.deterministic_metrics = true;
  const auto snapshot_bytes = [&options] {
    Pipeline pipeline(small_world(), options);
    std::ostringstream out;
    save_snapshot(out, pipeline.run_snapshot());
    return out.str();
  };
  const std::string first = snapshot_bytes();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, snapshot_bytes());
}

// ---------------- confidence end to end ----------------

TEST(Reprobe, EverySnapshotSegmentCarriesConfidence) {
  Pipeline pipeline(small_world(), lossy_options(2, 2, 0.8));
  const RunSnapshot& snap = pipeline.run_snapshot();
  ASSERT_FALSE(snap.segments.empty());
  for (const SnapshotSegment& segment : snap.segments) {
    EXPECT_GE(segment.observations, 1u);
    EXPECT_NE(segment.rounds_mask, 0u);
    EXPECT_GE(segment.hop_density, 0.0);
    EXPECT_LE(segment.hop_density, 1.0);
    EXPECT_GT(segment.confidence, 0.0);
    EXPECT_LE(segment.confidence, 1.0);
  }
}

}  // namespace
}  // namespace cloudmap
