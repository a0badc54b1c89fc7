#include "queries.h"

#include <algorithm>
#include <cstring>

#include "trace.h"

namespace perfbench {

using cloudmap::QueryKind;
using cloudmap::QueryRequest;
using cloudmap::QueryResponse;

const char* kind_slug(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCounts: return "counts";
    case QueryKind::kPeersOf: return "peers_of";
    case QueryKind::kVpiCandidates: return "vpi_candidates";
    case QueryKind::kInterfacesIn: return "interfaces_in";
    case QueryKind::kLookup: return "lookup";
    default: return "other";
  }
}

std::size_t mix_slot(QueryKind kind) {
  for (std::size_t i = 0; i < kMixKinds.size(); ++i)
    if (kMixKinds[i] == kind) return i;
  return kMixKinds.size();
}

namespace {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + stream;
  return cloudmap::splitmix64(state);
}

}  // namespace

RequestStream::RequestStream(Mix mix, const cloudmap::FabricBackend& backend,
                             std::uint64_t seed, std::uint64_t stream)
    : mix_(mix), rng_(stream_seed(seed, stream)) {
  for (std::uint32_t i = 0; i < backend.segment_count(); ++i) {
    const cloudmap::SegmentFacts facts = backend.segment(i);
    addresses_.push_back(facts.abi);
    addresses_.push_back(facts.cbi);
  }
  std::sort(addresses_.begin(), addresses_.end());
  addresses_.erase(std::unique(addresses_.begin(), addresses_.end()),
                   addresses_.end());
  const cloudmap::Span32 asns = backend.asn_list();
  peers_.assign(asns.begin(), asns.end());
}

QueryRequest RequestStream::next() {
  const std::uint64_t roll = rng_.next();
  QueryRequest request;
  request.want_briefs = true;
  if (mix_ == Mix::kPoint) {
    if ((roll & 3u) != 0 || peers_.empty()) {
      request.kind = QueryKind::kLookup;
      request.address = addresses_.empty()
                            ? 0u
                            : addresses_[(roll >> 8) % addresses_.size()];
    } else {
      request.kind = QueryKind::kPeersOf;
      request.asn = peers_[(roll >> 8) % peers_.size()];
    }
    return request;
  }
  // The BM_QuerySaturation mix (bench/perf_micro.cpp), with briefs.
  if (next_in_block_ == block_.size()) {
    block_ = {QueryKind::kCounts,       QueryKind::kPeersOf,
              QueryKind::kVpiCandidates, QueryKind::kInterfacesIn,
              QueryKind::kLookup,       QueryKind::kLookup,
              QueryKind::kLookup,       QueryKind::kLookup};
    for (std::size_t i = block_.size() - 1; i > 0; --i)
      std::swap(block_[i], block_[rng_.bounded(i + 1)]);
    next_in_block_ = 0;
  }
  request.kind = block_[next_in_block_++];
  switch (request.kind) {
    case QueryKind::kPeersOf:
      request.asn = peers_.empty() ? 0u : peers_[roll % peers_.size()];
      break;
    case QueryKind::kInterfacesIn:
      request.metro = static_cast<std::uint32_t>(roll >> 8) % 64;
      break;
    case QueryKind::kLookup:
      request.address = static_cast<std::uint32_t>(roll >> 16);
      break;
    default:
      break;
  }
  return request;
}

ReplayTimes replay(const cloudmap::QueryEngine& engine,
                   const std::vector<QueryRequest>& requests) {
  ReplayTimes times;
  times.us.reserve(requests.size());
  const std::int64_t started = now_ns();
  for (const QueryRequest& request : requests) {
    const std::int64_t t0 = now_ns();
    const QueryResponse response = engine.execute(request);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    times.us.push_back(us);
    const std::size_t slot = mix_slot(request.kind);
    if (slot < kMixKinds.size()) times.by_kind_us[slot].push_back(us);
  }
  times.wall_s = static_cast<double>(now_ns() - started) / 1e9;
  return times;
}

namespace {

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_brief(const cloudmap::SegmentBrief& a,
                const cloudmap::SegmentBrief& b) {
  return a.index == b.index && a.abi == b.abi && a.cbi == b.cbi &&
         a.peer_asn == b.peer_asn && a.confirmation == b.confirmation &&
         a.ixp == b.ixp && a.vpi == b.vpi &&
         same_double(a.confidence, b.confidence);
}

bool same_counts(const cloudmap::FabricCounts& a,
                 const cloudmap::FabricCounts& b) {
  return a.segments == b.segments && a.unique_abis == b.unique_abis &&
         a.unique_cbis == b.unique_cbis && a.peer_ases == b.peer_ases &&
         a.peer_orgs == b.peer_orgs && a.by_confirmation == b.by_confirmation &&
         a.ixp_segments == b.ixp_segments && a.vpi_cbis == b.vpi_cbis &&
         a.group_segments == b.group_segments &&
         a.group_ases == b.group_ases &&
         a.unattributed_segments == b.unattributed_segments &&
         a.pinned_interfaces == b.pinned_interfaces &&
         a.regional_only == b.regional_only &&
         same_double(a.mean_confidence, b.mean_confidence) &&
         a.confident_segments == b.confident_segments;
}

bool same_histogram(const cloudmap::ConfidenceHistogram& a,
                    const cloudmap::ConfidenceHistogram& b) {
  return a.bins == b.bins && a.segments == b.segments &&
         same_double(a.mean, b.mean) && same_double(a.min, b.min) &&
         same_double(a.max, b.max);
}

}  // namespace

std::string compare_responses(const QueryResponse& got,
                              const QueryResponse& want) {
  if (got.status != want.status) return "status";
  if (got.kind != want.kind) return "kind";
  if (got.error != want.error) return "error";
  if (got.items != want.items) return "items";
  if (got.briefs.size() != want.briefs.size()) return "briefs.size";
  for (std::size_t i = 0; i < got.briefs.size(); ++i)
    if (!same_brief(got.briefs[i], want.briefs[i]))
      return "briefs[" + std::to_string(i) + "]";
  if (got.counts.has_value() != want.counts.has_value()) return "counts";
  if (got.counts && !same_counts(*got.counts, *want.counts)) return "counts";
  if (got.histogram.has_value() != want.histogram.has_value())
    return "histogram";
  if (got.histogram && !same_histogram(*got.histogram, *want.histogram))
    return "histogram";
  if (got.found != want.found) return "found";
  if (got.prefix_network != want.prefix_network) return "prefix_network";
  if (got.prefix_length != want.prefix_length) return "prefix_length";
  if (got.is_interface != want.is_interface) return "is_interface";
  if (got.role_abi != want.role_abi) return "role_abi";
  if (got.role_cbi != want.role_cbi) return "role_cbi";
  return "";
}

}  // namespace perfbench
