// QueryEngine correctness (src/query/): every query kind, run through
// execute() over a FabricView of the small pipeline's snapshot, cross-checked
// against a brute-force scan of the RunSnapshot it was saved from, and the
// zero-locking claim exercised with concurrent readers (this file matches
// the CI TSan filter, so data races here fail the sanitize job).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "fixtures.h"
#include "query/diff.h"
#include "query/engine.h"

namespace cloudmap {
namespace {

// The brute-force reference: the canonical snapshot the view was saved from,
// so segment indices agree between the two.
const RunSnapshot& reference() {
  return testfx::small_pipeline().run_snapshot();
}

QueryRequest request_of(QueryKind kind) {
  QueryRequest request;
  request.kind = kind;
  return request;
}

TEST(QueryEngine, PeersOfMatchesBruteForce) {
  const RunSnapshot& snap = reference();
  const QueryEngine engine(testfx::small_view());
  std::set<std::uint32_t> asns;
  for (const SnapshotSegment& seg : snap.segments)
    if (!seg.peer_asn.is_unknown()) asns.insert(seg.peer_asn.value);
  ASSERT_FALSE(asns.empty());
  EXPECT_EQ(engine.execute(request_of(QueryKind::kPeerList)).items,
            std::vector<std::uint32_t>(asns.begin(), asns.end()));
  QueryRequest request = request_of(QueryKind::kPeersOf);
  for (const std::uint32_t asn : asns) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < snap.segments.size(); ++i)
      if (snap.segments[i].peer_asn == Asn{asn}) expected.push_back(i);
    request.asn = asn;
    EXPECT_EQ(engine.execute(request).items, expected) << "AS" << asn;
  }
  request.asn = 4294967295u;
  EXPECT_TRUE(engine.execute(request).items.empty());
}

TEST(QueryEngine, InterfacesInMatchesBruteForce) {
  const RunSnapshot& snap = reference();
  const FabricView& view = testfx::small_view();
  const QueryEngine engine(view);
  std::set<std::uint32_t> metros;
  for (const SnapshotPin& pin : snap.pins) metros.insert(pin.metro);
  ASSERT_FALSE(metros.empty());
  EXPECT_EQ(std::vector<std::uint32_t>(view.metro_list().begin(),
                                       view.metro_list().end()),
            std::vector<std::uint32_t>(metros.begin(), metros.end()));
  QueryRequest request = request_of(QueryKind::kInterfacesIn);
  for (const std::uint32_t metro : metros) {
    std::vector<std::uint32_t> expected;
    for (const SnapshotPin& pin : snap.pins)
      if (pin.metro == metro) expected.push_back(pin.address);
    request.metro = metro;
    EXPECT_EQ(engine.execute(request).items, expected) << "metro " << metro;
  }
  request.metro = kInvalidIndex;
  EXPECT_TRUE(engine.execute(request).items.empty());
}

TEST(QueryEngine, VpiCandidatesMatchBruteForce) {
  const RunSnapshot& snap = reference();
  const QueryEngine engine(testfx::small_view());
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < snap.segments.size(); ++i)
    if (snap.segments[i].vpi) expected.push_back(i);
  EXPECT_EQ(engine.execute(request_of(QueryKind::kVpiCandidates)).items,
            expected);
}

TEST(QueryEngine, LookupFindsEveryInterfaceExactly) {
  const RunSnapshot& snap = reference();
  const QueryEngine engine(testfx::small_view());
  QueryRequest request = request_of(QueryKind::kLookup);
  for (std::uint32_t i = 0; i < snap.segments.size(); ++i) {
    const SnapshotSegment& seg = snap.segments[i];
    for (const Ipv4 address : {seg.abi, seg.cbi}) {
      request.address = address.value();
      const QueryResponse hit = engine.execute(request);
      ASSERT_TRUE(hit.found) << address.to_string();
      EXPECT_TRUE(hit.is_interface);
      EXPECT_EQ(hit.prefix_length, 32);
      EXPECT_EQ(hit.prefix_network, address.value());
      EXPECT_TRUE(std::find(hit.items.begin(), hit.items.end(), i) !=
                  hit.items.end());
      EXPECT_TRUE(address == seg.abi ? hit.role_abi : hit.role_cbi);
    }
  }
}

TEST(QueryEngine, LookupCoversDestinationCones) {
  const RunSnapshot& snap = reference();
  const QueryEngine engine(testfx::small_view());
  QueryRequest request = request_of(QueryKind::kLookup);
  bool checked = false;
  for (std::uint32_t i = 0; i < snap.segments.size(); ++i) {
    for (std::uint32_t network : snap.segments[i].dest_slash24s) {
      // Probe a host inside the /24 that is not itself an interface.
      const Ipv4 probe(network | 0xFDu);
      request.address = probe.value();
      const QueryResponse hit = engine.execute(request);
      ASSERT_TRUE(hit.found) << probe.to_string();
      if (hit.is_interface) continue;  // a /32 interface shadowed the cone
      EXPECT_EQ(hit.prefix_length, 24);
      EXPECT_TRUE(std::find(hit.items.begin(), hit.items.end(), i) !=
                  hit.items.end());
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
  request.address = Ipv4(255, 255, 255, 254).value();
  EXPECT_FALSE(engine.execute(request).found);
}

TEST(QueryEngine, CountsMatchBruteForce) {
  const RunSnapshot& snap = reference();
  const QueryEngine engine(testfx::small_view());
  const FabricCounts counts =
      *engine.execute(request_of(QueryKind::kCounts)).counts;

  std::unordered_set<std::uint32_t> abis, cbis, ases, orgs, vpi_cbis;
  std::size_t ixp = 0, unattributed = 0;
  std::array<std::size_t, 5> by_conf{};
  std::array<std::size_t, kPeeringGroupCount> group_segments{};
  std::array<std::set<std::uint32_t>, kPeeringGroupCount> group_ases;
  for (const SnapshotSegment& seg : snap.segments) {
    abis.insert(seg.abi.value());
    cbis.insert(seg.cbi.value());
    if (seg.peer_asn != Asn{0}) ases.insert(seg.peer_asn.value);
    if (seg.peer_org != OrgId{0}) orgs.insert(seg.peer_org.value);
    ++by_conf[static_cast<std::size_t>(seg.confirmation)];
    if (seg.ixp) ++ixp;
    if (seg.vpi) vpi_cbis.insert(seg.cbi.value());
    if (seg.group == kSnapshotNoGroup) {
      ++unattributed;
    } else {
      ++group_segments[seg.group];
      group_ases[seg.group].insert(seg.peer_asn.value);
    }
  }
  EXPECT_EQ(counts.segments, snap.segments.size());
  EXPECT_EQ(counts.unique_abis, abis.size());
  EXPECT_EQ(counts.unique_cbis, cbis.size());
  EXPECT_EQ(counts.peer_ases, ases.size());
  EXPECT_EQ(counts.peer_orgs, orgs.size());
  for (std::size_t c = 0; c < by_conf.size(); ++c)
    EXPECT_EQ(counts.by_confirmation[c], by_conf[c]) << "confirmation " << c;
  EXPECT_EQ(counts.ixp_segments, ixp);
  EXPECT_EQ(counts.vpi_cbis, vpi_cbis.size());
  for (std::size_t g = 0; g < kPeeringGroupCount; ++g) {
    EXPECT_EQ(counts.group_segments[g], group_segments[g]) << "group " << g;
    EXPECT_EQ(counts.group_ases[g], group_ases[g].size()) << "group " << g;
  }
  EXPECT_EQ(counts.unattributed_segments, unattributed);
  EXPECT_EQ(counts.pinned_interfaces, snap.pins.size());
  EXPECT_EQ(counts.regional_only, snap.regional.size());
  EXPECT_GT(counts.segments, 0u);
  EXPECT_GT(counts.peer_ases, 0u);
}

TEST(QueryEngine, MinConfidenceMatchesBruteForce) {
  const RunSnapshot& snap = reference();
  MetricsRegistry registry(true);
  const QueryEngine engine(testfx::small_view(), &registry);
  const auto at_least = [&](double threshold) {
    QueryRequest request = request_of(QueryKind::kMinConfidence);
    request.min_confidence = threshold;
    return engine.execute(request).items;
  };
  for (const double threshold : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < snap.segments.size(); ++i)
      if (snap.segments[i].confidence >= threshold) expected.push_back(i);
    EXPECT_EQ(at_least(threshold), expected) << "threshold " << threshold;
  }
  // Thresholds only shrink the answer; <= 0 returns the whole fabric.
  EXPECT_EQ(at_least(0.0).size(), snap.segments.size());
  EXPECT_GE(at_least(0.3).size(), at_least(0.6).size());
  // Every call above bumped the counter: 6 thresholds + 3 shape checks.
  EXPECT_EQ(registry.counter_value("query.min_confidence"), 9u);
}

TEST(QueryEngine, ConfidenceHistogramCoversEverySegment) {
  const RunSnapshot& snap = reference();
  MetricsRegistry registry(true);
  const QueryEngine engine(testfx::small_view(), &registry);
  const ConfidenceHistogram hist =
      *engine.execute(request_of(QueryKind::kConfidenceHistogram)).histogram;
  EXPECT_EQ(hist.segments, snap.segments.size());
  std::size_t binned = 0;
  for (const std::size_t bin : hist.bins) binned += bin;
  EXPECT_EQ(binned, snap.segments.size());
  double sum = 0.0, lo = 1.0, hi = 0.0;
  for (const SnapshotSegment& seg : snap.segments) {
    sum += seg.confidence;
    lo = std::min(lo, seg.confidence);
    hi = std::max(hi, seg.confidence);
  }
  ASSERT_FALSE(snap.segments.empty());
  EXPECT_DOUBLE_EQ(hist.mean, sum / static_cast<double>(hist.segments));
  EXPECT_DOUBLE_EQ(hist.min, lo);
  EXPECT_DOUBLE_EQ(hist.max, hi);
  // The pipeline's fabric carries real (nonzero) confidence throughout.
  EXPECT_GT(hist.min, 0.0);
  EXPECT_LE(hist.max, 1.0);
  EXPECT_EQ(registry.counter_value("query.confidence_histogram"), 1u);

  // The counts aggregates agree with the histogram's moments.
  const FabricCounts counts =
      *engine.execute(request_of(QueryKind::kCounts)).counts;
  EXPECT_DOUBLE_EQ(counts.mean_confidence, hist.mean);
  std::size_t confident = 0;
  for (const SnapshotSegment& seg : snap.segments)
    if (seg.confidence >= 0.5) ++confident;
  EXPECT_EQ(counts.confident_segments, confident);
}

// One reader's deterministic work slice: a digest over every query class.
// Bit-identical answers at any thread count means identical digests.
std::uint64_t query_digest(const QueryEngine& engine, std::size_t slice,
                           std::size_t slices) {
  const FabricView& view = testfx::small_view();
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t value) {
    digest = (digest ^ value) * 1099511628211ull;
  };
  QueryRequest request = request_of(QueryKind::kPeersOf);
  for (std::size_t a = slice; a < view.asn_list().size(); a += slices) {
    request.asn = view.asn_list()[a];
    for (std::uint32_t seg : engine.execute(request).items) mix(seg);
  }
  request = request_of(QueryKind::kInterfacesIn);
  for (std::size_t m = slice; m < view.metro_list().size(); m += slices) {
    request.metro = view.metro_list()[m];
    for (std::uint32_t addr : engine.execute(request).items) mix(addr);
  }
  for (std::uint32_t seg :
       engine.execute(request_of(QueryKind::kVpiCandidates)).items)
    mix(seg);
  request = request_of(QueryKind::kLookup);
  for (std::size_t i = slice; i < view.segment_count(); i += slices) {
    request.address = view.segment(static_cast<std::uint32_t>(i)).cbi;
    mix(engine.execute(request).items.size());
  }
  const FabricCounts counts =
      *engine.execute(request_of(QueryKind::kCounts)).counts;
  mix(counts.segments);
  mix(counts.peer_ases);
  mix(counts.vpi_cbis);
  return digest;
}

TEST(QueryEngine, ConcurrentReadersMatchSingleThread) {
  MetricsRegistry registry(true);
  const QueryEngine engine(testfx::small_view(), &registry);
  constexpr std::size_t kSlices = 4;

  // Reference: every slice computed on one thread.
  std::vector<std::uint64_t> expected(kSlices);
  for (std::size_t s = 0; s < kSlices; ++s)
    expected[s] = query_digest(engine, s, kSlices);

  // Same slices, one thread each, sharing the engine with no locking.
  std::vector<std::uint64_t> got(kSlices);
  std::vector<std::thread> readers;
  for (std::size_t s = 0; s < kSlices; ++s)
    readers.emplace_back(
        [&, s] { got[s] = query_digest(engine, s, kSlices); });
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(got, expected);
  // The shared counters saw both passes (2× each query class).
  EXPECT_GT(registry.counter_value("query.lookups"), 0u);
  EXPECT_GT(registry.counter_value("query.counts"), 0u);
}

TEST(QueryEngine, DiffOfIdenticalSnapshotsIsEmpty) {
  const RunSnapshot& snap = testfx::small_pipeline().run_snapshot();
  const SnapshotDiff diff = diff_snapshots(snap, snap);
  EXPECT_TRUE(diff.identical());
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  EXPECT_TRUE(diff.reconfirmed.empty());
  EXPECT_TRUE(diff.repinned.empty());
  EXPECT_EQ(diff.common_segments, snap.segments.size());
}

TEST(QueryEngine, DiffReportsEachChangeClass) {
  RunSnapshot before = testfx::small_pipeline().run_snapshot();
  RunSnapshot after = before;
  ASSERT_GE(after.segments.size(), 2u);
  ASSERT_FALSE(after.pins.empty());

  // Remove one segment, re-confirm another, add a brand-new one, and move
  // one pin to a different metro.
  const SnapshotSegment removed = after.segments.back();
  after.segments.pop_back();
  const Confirmation old_conf = after.segments[0].confirmation;
  after.segments[0].confirmation = old_conf == Confirmation::kHybrid
                                       ? Confirmation::kReachability
                                       : Confirmation::kHybrid;
  SnapshotSegment added;
  added.abi = Ipv4(10, 99, 99, 1);
  added.cbi = Ipv4(10, 99, 99, 2);
  after.segments.push_back(added);
  after.pins[0].metro += 1;
  canonicalize(after);

  const SnapshotDiff diff = diff_snapshots(before, after);
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0].abi, added.abi);
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0].cbi, removed.cbi);
  ASSERT_EQ(diff.reconfirmed.size(), 1u);
  EXPECT_EQ(diff.reconfirmed[0].before, old_conf);
  ASSERT_EQ(diff.repinned.size(), 1u);
  EXPECT_EQ(diff.repinned[0].metro_after, after.pins[0].metro);
}

}  // namespace
}  // namespace cloudmap
