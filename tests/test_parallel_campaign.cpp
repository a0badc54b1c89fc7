// Determinism of the multi-threaded campaign: the same seed must produce a
// fabric equal in every segment field, identical round stats, identical
// Table-1 rows, and an identical inference score at every thread count. Run
// under TSan, these tests also exercise the concurrent traceroute fan-out
// (threads = 4 and 8) over the shared const read path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::same_segments;
using testfx::small_world;

// Everything we demand be invariant across thread counts.
struct CampaignRun {
  RoundStats round1;
  RoundStats round2;
  InterfaceTableRow table1_round1;  // Table-1 row after round 1 (snapshot 1)
  InterfaceTableRow table1_round2;  // Table-1 row after round 2 (snapshot 2)
  InferenceScore score;
  std::vector<InferredSegment> segments;  // every field, in fabric order
  std::size_t peer_asns = 0;
};

CampaignRun run_with_threads(int threads, bool metrics = true) {
  PipelineOptions options;
  options.campaign.threads = threads;
  options.metrics = metrics;
  Pipeline pipeline(small_world(), options);

  CampaignRun run;
  run.round1 = pipeline.round1();
  Annotator annotator1 = pipeline.annotator();
  annotator1.set_snapshot(&pipeline.snapshot_round1());
  run.table1_round1 = Campaign::interface_stats(
      pipeline.campaign().fabric().unique_cbis(), annotator1);

  run.round2 = pipeline.round2();
  Annotator annotator2 = pipeline.annotator();
  annotator2.set_snapshot(&pipeline.snapshot_round2());
  run.table1_round2 = Campaign::interface_stats(
      pipeline.campaign().fabric().unique_cbis(), annotator2);
  run.peer_asns = pipeline.campaign().peer_asn_count(annotator2);

  run.score = pipeline.score();
  run.segments = pipeline.campaign().fabric().segments();
  return run;
}

void expect_same_stats(const RoundStats& a, const RoundStats& b) {
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.traceroutes, b.traceroutes);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.walk.examined, b.walk.examined);
  EXPECT_EQ(a.walk.extracted, b.walk.extracted);
  EXPECT_EQ(a.walk.never_left_cloud, b.walk.never_left_cloud);
  EXPECT_EQ(a.walk.loop, b.walk.loop);
  EXPECT_EQ(a.walk.gap_before_border, b.walk.gap_before_border);
  EXPECT_EQ(a.walk.cbi_is_destination, b.walk.cbi_is_destination);
  EXPECT_EQ(a.walk.duplicate_before_border, b.walk.duplicate_before_border);
  EXPECT_EQ(a.walk.reentered_cloud, b.walk.reentered_cloud);
}

void expect_same_row(const InterfaceTableRow& a, const InterfaceTableRow& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_DOUBLE_EQ(a.bgp_fraction, b.bgp_fraction);
  EXPECT_DOUBLE_EQ(a.whois_fraction, b.whois_fraction);
  EXPECT_DOUBLE_EQ(a.ixp_fraction, b.ixp_fraction);
}

TEST(ParallelCampaign, ThreadCountNeverChangesTheResults) {
  const CampaignRun baseline = run_with_threads(1);
  ASSERT_GT(baseline.round1.traceroutes, 0u);
  ASSERT_FALSE(baseline.segments.empty());

  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const CampaignRun run = run_with_threads(threads);
    expect_same_stats(run.round1, baseline.round1);
    expect_same_stats(run.round2, baseline.round2);
    expect_same_row(run.table1_round1, baseline.table1_round1);
    expect_same_row(run.table1_round2, baseline.table1_round2);
    EXPECT_EQ(run.peer_asns, baseline.peer_asns);

    EXPECT_EQ(run.score.true_interconnects, baseline.score.true_interconnects);
    EXPECT_EQ(run.score.discoverable_interconnects,
              baseline.score.discoverable_interconnects);
    EXPECT_EQ(run.score.discovered, baseline.score.discovered);
    EXPECT_EQ(run.score.discovered_router_level,
              baseline.score.discovered_router_level);
    EXPECT_EQ(run.score.inferred_cbis, baseline.score.inferred_cbis);
    EXPECT_EQ(run.score.inferred_true_cbis, baseline.score.inferred_true_cbis);
    EXPECT_EQ(run.score.inferred_client_router_cbis,
              baseline.score.inferred_client_router_cbis);

    EXPECT_TRUE(same_segments(run.segments, baseline.segments));
  }
}

// The acceptance criterion for the observability layer: metrics collection
// is purely write-only observation, so switching it off (or varying the
// thread count with it on) must leave the fabric, the round stats, and the
// ground-truth score bit-identical.
TEST(ParallelCampaign, MetricsOnOffNeverChangesTheResults) {
  const CampaignRun baseline = run_with_threads(1, /*metrics=*/true);
  ASSERT_GT(baseline.round1.traceroutes, 0u);
  ASSERT_FALSE(baseline.segments.empty());

  struct Variant {
    int threads;
    bool metrics;
  };
  for (const Variant v : {Variant{1, false}, Variant{4, true},
                          Variant{4, false}}) {
    SCOPED_TRACE("threads = " + std::to_string(v.threads) +
                 (v.metrics ? ", metrics on" : ", metrics off"));
    const CampaignRun run = run_with_threads(v.threads, v.metrics);
    expect_same_stats(run.round1, baseline.round1);
    expect_same_stats(run.round2, baseline.round2);
    expect_same_row(run.table1_round1, baseline.table1_round1);
    expect_same_row(run.table1_round2, baseline.table1_round2);
    EXPECT_EQ(run.peer_asns, baseline.peer_asns);
    EXPECT_EQ(run.score.discovered, baseline.score.discovered);
    EXPECT_EQ(run.score.inferred_cbis, baseline.score.inferred_cbis);
    EXPECT_EQ(run.score.inferred_true_cbis, baseline.score.inferred_true_cbis);
    EXPECT_TRUE(same_segments(run.segments, baseline.segments));
  }
}

// The TSan workhorse: both rounds plus the downstream verification stages
// at threads = 4, racing the workers over the shared const substrate (BGP
// route cache included). Asserts only sanity — the point is the interleaving.
TEST(ParallelCampaign, FourThreadsRunVerificationCleanly) {
  PipelineOptions options;
  options.campaign.threads = 4;
  Pipeline pipeline(small_world(), options);
  pipeline.alias_verification();  // rounds 1-2, §5.1 heuristics, §5.2 alias
  EXPECT_GT(pipeline.round1().traceroutes, 0u);
  EXPECT_GT(pipeline.campaign().fabric().segments().size(), 0u);
  const InferenceScore score = pipeline.score();
  EXPECT_GT(score.recall(), 0.0);
}

// Explicit-target sweeps (the §7.1 VPI path) follow the same contract.
TEST(ParallelCampaign, RunTargetsIsThreadCountInvariant) {
  std::vector<Ipv4> targets;
  for (const Prefix& prefix : small_world().probeable_slash24s())
    targets.push_back(prefix.network().next(7));

  std::vector<InferredSegment> baseline;
  for (const int threads : {1, 4}) {
    PipelineOptions options;
    options.campaign.threads = threads;
    Pipeline pipeline(small_world(), options);
    Campaign campaign(small_world(), pipeline.forwarder(),
                      CloudProvider::kAmazon, options.campaign);
    campaign.run_targets(pipeline.annotator(), targets, /*round=*/1);
    if (threads == 1) {
      baseline = campaign.fabric().segments();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_TRUE(same_segments(campaign.fabric().segments(), baseline));
    }
  }
}

}  // namespace
}  // namespace cloudmap
