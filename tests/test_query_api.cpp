// The unified request/response query API (query/request.h): execute()
// bumps exactly one metrics counter per call, honors min-confidence
// filtering and brief expansion, and turns malformed requests into
// kBadRequest instead of throwing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/request.h"

namespace cloudmap {
namespace {

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& [key, value] : registry.snapshot().counters)
    if (key == name) return value;
  return 0;
}

TEST(QueryApi, EveryCallBumpsItsOwnCounter) {
  MetricsRegistry registry(true);
  const QueryEngine engine(testfx::small_view(), &registry);

  const struct {
    QueryKind kind;
    const char* name;
  } cases[] = {
      {QueryKind::kCounts, "query.counts"},
      {QueryKind::kPeersOf, "query.peers_of"},
      {QueryKind::kPeerList, "query.peer_list"},
      {QueryKind::kInterfacesIn, "query.interfaces_in"},
      {QueryKind::kVpiCandidates, "query.vpi_candidates"},
      {QueryKind::kLookup, "query.lookups"},
      {QueryKind::kMinConfidence, "query.min_confidence"},
      {QueryKind::kConfidenceHistogram, "query.confidence_histogram"},
  };
  // All eight counters exist before any query runs (artifact completeness).
  for (const auto& [kind, name] : cases)
    EXPECT_EQ(counter_value(registry, name), 0u) << name;
  for (const auto& [kind, name] : cases) {
    QueryRequest request;
    request.kind = kind;
    EXPECT_EQ(engine.execute(request).status, QueryStatus::kOk) << name;
    EXPECT_EQ(counter_value(registry, name), 1u) << name;
  }
  // Exactly one counter moved per call: eight calls, total eight.
  std::uint64_t total = 0;
  for (const auto& [kind, name] : cases)
    total += counter_value(registry, name);
  EXPECT_EQ(total, 8u);

  // A second call of one kind moves that kind's counter and no other.
  QueryRequest lookup;
  lookup.kind = QueryKind::kLookup;
  lookup.address = Ipv4(10, 0, 0, 1).value();
  engine.execute(lookup);
  EXPECT_EQ(counter_value(registry, "query.lookups"), 2u);
  EXPECT_EQ(counter_value(registry, "query.vpi_candidates"), 1u);
}

TEST(QueryApi, MinConfidenceFiltersPeersOfAndVpiCandidates) {
  const FabricView& view = testfx::small_view();
  const QueryEngine engine(view);
  // The unfiltered answer (default threshold -1) with every item scoring
  // below `min` dropped.
  const auto kept = [&](QueryRequest request, double min) {
    request.min_confidence = -1.0;
    std::vector<std::uint32_t> out;
    for (const std::uint32_t i : engine.execute(request).items)
      if (view.segment(i).confidence >= min) out.push_back(i);
    return out;
  };

  QueryRequest request;
  request.kind = QueryKind::kVpiCandidates;
  request.min_confidence = 0.6;
  EXPECT_EQ(engine.execute(request).items, kept(request, 0.6));
  // The default threshold (-1) filters nothing.
  request.min_confidence = -1.0;
  EXPECT_EQ(engine.execute(request).items.size(), view.vpi_list().size());

  ASSERT_FALSE(view.asn_list().empty());
  for (const std::uint32_t asn : view.asn_list()) {
    request = {};
    request.kind = QueryKind::kPeersOf;
    request.asn = asn;
    request.min_confidence = 0.6;
    EXPECT_EQ(engine.execute(request).items, kept(request, 0.6))
        << "AS" << asn;
  }
}

TEST(QueryApi, WantBriefsExpandsSegmentIndexResults) {
  const FabricView& view = testfx::small_view();
  const QueryEngine engine(view);

  QueryRequest request;
  request.kind = QueryKind::kVpiCandidates;
  request.want_briefs = true;
  const QueryResponse response = engine.execute(request);
  ASSERT_EQ(response.briefs.size(), response.items.size());
  for (std::size_t i = 0; i < response.items.size(); ++i) {
    const SegmentBrief& brief = response.briefs[i];
    const SegmentFacts facts = view.segment(response.items[i]);
    EXPECT_EQ(brief.index, response.items[i]);
    EXPECT_EQ(brief.abi, facts.abi);
    EXPECT_EQ(brief.cbi, facts.cbi);
    EXPECT_EQ(brief.peer_asn, facts.peer_asn);
    EXPECT_EQ(brief.confirmation, facts.confirmation);
    EXPECT_EQ(brief.ixp, facts.ixp);
    EXPECT_EQ(brief.vpi, facts.vpi);
    EXPECT_DOUBLE_EQ(brief.confidence, facts.confidence);
  }

  // Briefs are opt-in; address/ASN lists never carry them.
  request.want_briefs = false;
  EXPECT_TRUE(engine.execute(request).briefs.empty());
  request = {};
  request.kind = QueryKind::kPeerList;
  request.want_briefs = true;
  EXPECT_TRUE(engine.execute(request).briefs.empty());
}

TEST(QueryApi, MalformedRequestsComeBackAsBadRequest) {
  const QueryEngine engine(testfx::small_view());
  QueryRequest request;
  request.kind = static_cast<QueryKind>(200);
  const QueryResponse response = engine.execute(request);
  EXPECT_EQ(response.status, QueryStatus::kBadRequest);
  EXPECT_FALSE(response.error.empty());
  EXPECT_TRUE(response.items.empty());

  request.kind = static_cast<QueryKind>(kQueryKindCount);
  EXPECT_EQ(engine.execute(request).status, QueryStatus::kBadRequest);
}

}  // namespace
}  // namespace cloudmap
