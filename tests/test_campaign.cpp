// Campaign integration: rounds, expansion, Table-1 style accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::small_pipeline;

TEST(Campaign, RoundOneLeavesTheCloudMostly) {
  Pipeline& pipeline = small_pipeline();
  // The paper reports ~77% of traceroutes leaving Amazon; the synthetic
  // world is in the same regime.
  EXPECT_GT(pipeline.round1().left_cloud_fraction(), 0.5);
  EXPECT_GT(pipeline.round1().traceroutes, 1000u);
}

TEST(Campaign, ExpansionAddsCbis) {
  Pipeline& pipeline = small_pipeline();
  // first_round markers: some segments were only found in round 2.
  std::size_t round2_only = 0;
  for (const InferredSegment& segment :
       pipeline.campaign().fabric().segments())
    if (segment.first_round == 2) ++round2_only;
  EXPECT_GT(round2_only, 0u);
}

TEST(Campaign, ExpansionTargetsAvoidKnownCbisAndDotOne) {
  Pipeline& pipeline = small_pipeline();
  const auto cbis = pipeline.campaign().fabric().unique_cbis();
  const auto targets = pipeline.campaign().expansion_targets();
  EXPECT_GT(targets.size(), 0u);
  for (const Ipv4 target : targets) {
    EXPECT_EQ(cbis.count(target.value()), 0u);
    EXPECT_NE(target.value() & 0xFF, 1u);  // .1 was swept in round 1
    EXPECT_NE(target.value() & 0xFF, 0u);
    EXPECT_NE(target.value() & 0xFF, 255u);
  }
}

TEST(Campaign, InterfaceStatsSumBelowOne) {
  Pipeline& pipeline = small_pipeline();
  Annotator annotator = pipeline.annotator();
  annotator.set_snapshot(&pipeline.snapshot_round2());
  const auto row = Campaign::interface_stats(
      pipeline.campaign().fabric().unique_cbis(), annotator);
  EXPECT_EQ(row.total, pipeline.campaign().fabric().unique_cbis().size());
  EXPECT_LE(row.bgp_fraction + row.whois_fraction + row.ixp_fraction, 1.0001);
  EXPECT_GT(row.bgp_fraction, 0.0);
  EXPECT_GT(row.ixp_fraction, 0.0);
}

TEST(Campaign, AbiAddressesAreCloudOrUnknownOwned) {
  // ABIs (pre-correction artifacts aside) must never be annotated with a
  // non-Amazon client ASN after verification.
  Pipeline& pipeline = small_pipeline();
  Annotator annotator = pipeline.annotator();
  annotator.set_snapshot(&pipeline.snapshot_round2());
  const OrgId amazon_org = pipeline.campaign().subject_org();
  std::size_t client_owned = 0;
  std::size_t total = 0;
  for (const std::uint32_t abi : pipeline.campaign().fabric().unique_abis()) {
    const HopAnnotation a = annotator.annotate(Ipv4(abi));
    ++total;
    if (!a.org.is_unknown() && a.org != amazon_org) ++client_owned;
  }
  EXPECT_GT(total, 0u);
  // A small residue can survive (the paper's unconfirmed 9.8%).
  EXPECT_LT(static_cast<double>(client_owned) / static_cast<double>(total),
            0.35);
}

TEST(Campaign, PeerAsnCountPositive) {
  Pipeline& pipeline = small_pipeline();
  Annotator annotator = pipeline.annotator();
  annotator.set_snapshot(&pipeline.snapshot_round2());
  EXPECT_GT(pipeline.campaign().peer_asn_count(annotator), 5u);
}

TEST(Campaign, HeuristicsConfirmMostAbis) {
  Pipeline& pipeline = small_pipeline();
  const HeuristicCounts& counts = pipeline.heuristics();
  const std::size_t confirmed = counts.cum_ixp_abis + counts.cum_hybrid_abis +
                                counts.cum_reachable_abis;
  EXPECT_GT(counts.total_abis, 0u);
  // The paper confirms 87.8% of ABIs; demand a healthy majority here.
  EXPECT_GT(static_cast<double>(confirmed) /
                static_cast<double>(confirmed + counts.unconfirmed_abis),
            0.6);
}

TEST(Campaign, CumulativeCountsAreOrderedByConfidence) {
  Pipeline& pipeline = small_pipeline();
  const HeuristicCounts& counts = pipeline.heuristics();
  // Individual counts can only exceed or equal the cumulative ones (later
  // heuristics only see what earlier ones left unconfirmed).
  EXPECT_GE(counts.hybrid_abis + counts.ixp_abis + counts.reachable_abis,
            counts.cum_hybrid_abis + counts.cum_ixp_abis +
                counts.cum_reachable_abis);
  EXPECT_EQ(counts.ixp_abis, counts.cum_ixp_abis);  // first in order
}

TEST(Campaign, AliasVerificationIsConservative) {
  Pipeline& pipeline = small_pipeline();
  const AliasVerifyStats& stats = pipeline.alias_verification();
  EXPECT_GT(stats.sets, 0u);
  EXPECT_GT(stats.majority_fraction, 0.6);
  // Corrections are few relative to the fabric (paper: 45 of 8.68k).
  const std::size_t corrections =
      stats.abi_to_cbi + stats.cbi_to_abi + stats.cbi_to_cbi;
  EXPECT_LT(corrections, stats.interfaces_in_sets / 2 + 10);
}

TEST(Campaign, ScoreIsReasonable) {
  Pipeline& pipeline = small_pipeline();
  const InferenceScore score = pipeline.score();
  EXPECT_GT(score.discoverable_interconnects, 0u);
  EXPECT_GT(score.recall(), 0.25);
  EXPECT_GT(score.router_recall(), 0.4);
  EXPECT_GT(score.precision(), 0.4);
  EXPECT_GT(score.router_precision(), 0.5);
}

TEST(Campaign, PrivateVpisAreNeverDiscovered) {
  Pipeline& pipeline = small_pipeline();
  const World& world = pipeline.world();
  const auto cbis = pipeline.campaign().fabric().unique_cbis();
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    if (!ic.private_address) continue;
    const Ipv4 client = world.interface(ic.client_interface).address;
    EXPECT_EQ(cbis.count(client.value()), 0u) << client.to_string();
  }
}

TEST(Campaign, RefusesRegionIdsTheFabricCannotRecord) {
  // 68 regions: Amazon's ids stay below the fabric's 64-region mask,
  // Oracle's last ones do not.
  GeneratorConfig config = GeneratorConfig::small();
  config.seed = 5;
  config.metro_count = 40;
  config.amazon_regions = 20;
  config.microsoft_regions = 20;
  config.google_regions = 20;
  config.ibm_regions = 4;
  config.oracle_regions = 4;
  const World world = generate_world(config);
  ASSERT_EQ(world.regions.size(), 68u);
  const BgpSimulator sim(world);
  const Forwarder forwarder(world, sim);
  EXPECT_NO_THROW(Campaign(world, forwarder, CloudProvider::kAmazon, {}));
  try {
    const Campaign oracle(world, forwarder, CloudProvider::kOracle, {});
    ADD_FAILURE() << "a region id of 64 or more was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("has id 64"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace cloudmap
