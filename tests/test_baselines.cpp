// MAP-IT baseline and CFS facility search.
#include <gtest/gtest.h>

#include "baselines/mapit.h"
#include "fixtures.h"
#include "pinning/cfs.h"

namespace cloudmap {
namespace {

using testfx::small_pipeline;

// ---------------- MAP-IT ----------------

class MapitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Pipeline& p = small_pipeline();
    annotator_ = new Annotator(p.annotator());
    annotator_->set_snapshot(&p.snapshot_round2());
    Mapit mapit(p.world(), p.forwarder(), *annotator_);
    result_ = new MapitResult(mapit.run(CloudProvider::kAmazon));
    score_ = new MapitScore(
        score_mapit(p.world(), *result_, CloudProvider::kAmazon));
  }
  static void TearDownTestSuite() {
    delete annotator_;
    delete result_;
    delete score_;
    annotator_ = nullptr;
    result_ = nullptr;
    score_ = nullptr;
  }
  static Annotator* annotator_;
  static MapitResult* result_;
  static MapitScore* score_;
};
Annotator* MapitTest::annotator_ = nullptr;
MapitResult* MapitTest::result_ = nullptr;
MapitScore* MapitTest::score_ = nullptr;

TEST_F(MapitTest, FindsSomeEdges) {
  EXPECT_GT(result_->edges.size(), 0u);
  EXPECT_GT(result_->adjacencies_examined, result_->edges.size());
}

TEST_F(MapitTest, HasL2BlindSpot) {
  // Un-annotated adjacencies (IXP LANs, WHOIS-only space) are abundant.
  EXPECT_GT(result_->skipped_unannotated, 0u);
}

TEST_F(MapitTest, MissesIxpPeerings) {
  // §2's claim: L2 fabrics defeat MAP-IT. IXP recovery must be (near) zero
  // while cross-connect recovery is materially better.
  ASSERT_GT(score_->ixp_total, 0u);
  ASSERT_GT(score_->xconnect_total, 0u);
  EXPECT_LT(score_->ixp_rate(), 0.05);
  EXPECT_GT(score_->xconnect_rate(), score_->ixp_rate());
}

TEST_F(MapitTest, EdgesHaveDistinctAsns) {
  for (const MapitEdge& edge : result_->edges) {
    EXPECT_NE(edge.near_as, edge.far_as);
    EXPECT_FALSE(edge.near_as.is_unknown());
    EXPECT_FALSE(edge.far_as.is_unknown());
  }
}

TEST_F(MapitTest, ProcessRecordSkipsSilentHops) {
  Mapit mapit(small_pipeline().world(), small_pipeline().forwarder(),
              *annotator_);
  TracerouteRecord record;
  record.destination = Ipv4(20, 0, 0, 1);
  record.hops.push_back(TracerouteHop{Ipv4(20, 0, 0, 9), 1.0, true});
  record.hops.push_back(TracerouteHop{});  // silence breaks adjacency
  record.hops.push_back(TracerouteHop{Ipv4(20, 4, 0, 9), 2.0, true});
  MapitResult result;
  mapit.process_record(record, result);
  EXPECT_EQ(result.adjacencies_examined, 0u);
}

// ---------------- CFS ----------------

TEST(Cfs, PinsSomeFacilitiesAccurately) {
  Pipeline& p = small_pipeline();
  Annotator annotator = p.annotator();
  annotator.set_snapshot(&p.snapshot_round2());
  ConstrainedFacilitySearch::Inputs inputs;
  inputs.fabric = &p.campaign().fabric();
  inputs.annotator = &annotator;
  inputs.peeringdb = &p.peeringdb();
  inputs.world = &p.world();
  inputs.rtts = &p.mutable_rtts();
  inputs.vps = &p.campaign().vantage_points();
  ConstrainedFacilitySearch cfs(inputs);
  const CfsResult result = cfs.run();
  EXPECT_GT(result.pinned.size(), 0u);
  // Every failure class is accounted for.
  const std::size_t cbis = p.campaign().fabric().unique_cbis().size();
  EXPECT_LE(result.pinned.size() + result.no_tenant_candidates +
                result.rtt_eliminated_all + result.ambiguous +
                result.unattributed,
            cbis);

  const CfsScore score = score_cfs(p.world(), result, CloudProvider::kAmazon);
  EXPECT_GT(score.pinned, 0u);
  EXPECT_GT(score.metro_accuracy(), 0.5);
}

TEST(Cfs, CoversLessThanCoPresencePinning) {
  Pipeline& p = small_pipeline();
  Annotator annotator = p.annotator();
  annotator.set_snapshot(&p.snapshot_round2());
  ConstrainedFacilitySearch::Inputs inputs;
  inputs.fabric = &p.campaign().fabric();
  inputs.annotator = &annotator;
  inputs.peeringdb = &p.peeringdb();
  inputs.world = &p.world();
  inputs.rtts = &p.mutable_rtts();
  inputs.vps = &p.campaign().vantage_points();
  ConstrainedFacilitySearch cfs(inputs);
  const CfsResult result = cfs.run();
  // The paper's co-presence method pins far more interfaces than the
  // single-facility intersection can resolve.
  EXPECT_LT(result.pinned.size(), p.pinning().pins.size());
}

}  // namespace
}  // namespace cloudmap
