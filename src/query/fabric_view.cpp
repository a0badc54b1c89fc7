#include "query/fabric_view.h"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace cloudmap {

namespace {

// V3Segment::flags bits (io/snapshot_v3.h): shifted|ixp|vpi.
constexpr std::uint8_t kSegIxp = 0x02;
constexpr std::uint8_t kSegVpi = 0x04;
// V3TrieEntry::flags bits: is_interface|abi|cbi.
constexpr std::uint8_t kTrieInterface = 0x01;
constexpr std::uint8_t kTrieAbi = 0x02;
constexpr std::uint8_t kTrieCbi = 0x04;

}  // namespace

FabricView::FabricView(const unsigned char* blob)
    : v_(snapv3::V3View::over(blob)) {
  const std::uint32_t total = v_.dir->segment_count;
  histogram_.segments = total;
  counts_.segments = total;
  counts_.peer_ases = asn_list().size();
  counts_.pinned_interfaces = v_.dir->pin_count;
  counts_.regional_only = v_.dir->regional_count;
  if (total == 0) return;

  // One pass over the segment records feeds both aggregates. The sets are
  // this pass's temporaries.
  std::unordered_set<std::uint32_t> abis;
  std::unordered_set<std::uint32_t> cbis;
  std::unordered_set<std::uint32_t> orgs;
  std::unordered_set<std::uint32_t> vpi_cbis;
  std::array<std::unordered_set<std::uint32_t>, kPeeringGroupCount>
      group_ases;
  double sum = 0.0;
  histogram_.min = v_.segments[0].confidence;
  histogram_.max = histogram_.min;
  for (std::uint32_t i = 0; i < total; ++i) {
    const SegmentFacts seg = segment(i);
    const double score = seg.confidence;
    sum += score;
    histogram_.min = std::min(histogram_.min, score);
    histogram_.max = std::max(histogram_.max, score);
    auto bin = static_cast<std::size_t>(score * 10.0);
    if (bin >= histogram_.bins.size())
      bin = histogram_.bins.size() - 1;  // score == 1.0
    ++histogram_.bins[bin];

    if (score >= 0.5) ++counts_.confident_segments;
    abis.insert(seg.abi);
    cbis.insert(seg.cbi);
    if (seg.peer_org != 0) orgs.insert(seg.peer_org);
    ++counts_.by_confirmation[seg.confirmation];
    if (seg.ixp) ++counts_.ixp_segments;
    if (seg.vpi) vpi_cbis.insert(seg.cbi);
    if (seg.group == kSnapshotNoGroup) {
      ++counts_.unattributed_segments;
    } else {
      ++counts_.group_segments[seg.group];
      if (seg.peer_asn != 0) group_ases[seg.group].insert(seg.peer_asn);
    }
  }
  histogram_.mean = sum / static_cast<double>(total);
  counts_.mean_confidence = histogram_.mean;
  counts_.unique_abis = abis.size();
  counts_.unique_cbis = cbis.size();
  counts_.peer_orgs = orgs.size();
  counts_.vpi_cbis = vpi_cbis.size();
  for (std::size_t g = 0; g < kPeeringGroupCount; ++g)
    counts_.group_ases[g] = group_ases[g].size();
}

SegmentFacts FabricView::segment(std::uint32_t index) const {
  const snapv3::V3Segment& seg = v_.segments[index];
  SegmentFacts facts;
  facts.abi = seg.abi;
  facts.cbi = seg.cbi;
  facts.peer_asn = seg.peer_asn;
  facts.peer_org = seg.peer_org;
  facts.confirmation = seg.confirmation;
  facts.group = seg.group;
  facts.ixp = (seg.flags & kSegIxp) != 0;
  facts.vpi = (seg.flags & kSegVpi) != 0;
  facts.confidence = seg.confidence;
  return facts;
}

Span32 FabricView::peer_segments(std::uint32_t peer_asn) const {
  const snapv3::V3KeySpan* first = v_.by_peer;
  const snapv3::V3KeySpan* last = first + v_.dir->by_peer_count;
  const auto it = std::lower_bound(
      first, last, peer_asn,
      [](const snapv3::V3KeySpan& e, std::uint32_t key) {
        return e.key < key;
      });
  if (it == last || it->key != peer_asn) return {};
  return pool_span(it->span);
}

Span32 FabricView::metro_interfaces(std::uint32_t metro) const {
  const snapv3::V3KeySpan* first = v_.by_metro;
  const snapv3::V3KeySpan* last = first + v_.dir->by_metro_count;
  const auto it = std::lower_bound(
      first, last, metro,
      [](const snapv3::V3KeySpan& e, std::uint32_t key) {
        return e.key < key;
      });
  if (it == last || it->key != metro) return {};
  return pool_span(it->span);
}

std::optional<BackendHit> FabricView::find(Ipv4 address) const {
  // Longest prefix first: per-length groups are sorted by network, so each
  // candidate length costs one binary search over its group.
  for (int plen = 32; plen >= 0; --plen) {
    const snapv3::V3Span group = v_.dir->trie_by_len[plen];
    if (group.len == 0) continue;
    const Prefix probe(address, static_cast<std::uint8_t>(plen));
    const std::uint32_t network = probe.network().value();
    const snapv3::V3TrieEntry* first = v_.trie + group.off;
    const snapv3::V3TrieEntry* last = first + group.len;
    const auto it = std::lower_bound(
        first, last, network,
        [](const snapv3::V3TrieEntry& e, std::uint32_t key) {
          return e.network < key;
        });
    if (it == last || it->network != network) continue;
    BackendHit hit;
    hit.prefix = probe;
    hit.is_interface = (it->flags & kTrieInterface) != 0;
    hit.abi = (it->flags & kTrieAbi) != 0;
    hit.cbi = (it->flags & kTrieCbi) != 0;
    hit.segments = pool_span(it->segments);
    return hit;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> FabricView::min_confidence_list(
    double min_confidence) const {
  const Span32 order = pool_span(v_.dir->conf_order);
  std::vector<std::uint32_t> out;
  for (const std::uint32_t i : order) {
    if (v_.segments[i].confidence < min_confidence)
      break;  // descending: nothing further matches
    out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cloudmap
