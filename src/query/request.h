// The uniform query API: every question the query layer answers — for the
// CLI, the serve daemon's wire protocol, and the tests — is one
// QueryRequest tagged by QueryKind, dispatched through
// QueryEngine::execute() (query/engine.h), and answered with one
// QueryResponse. Centralizing dispatch keeps metrics counters,
// min-confidence filtering, and error reporting in a single place.
//
// Both structs are flat POD-ish values with fixed-width fields, so the
// serve protocol (serve/protocol.h) encodes them field-for-field without a
// separate schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/backend.h"

namespace cloudmap {

// One tag per query class. Values are part of the serve wire protocol —
// append only, never renumber.
enum class QueryKind : std::uint8_t {
  kCounts = 0,               // precomputed aggregates (Tables 1–5 shapes)
  kPeersOf = 1,              // segments of one peer ASN (uses `asn`)
  kPeerList = 2,             // all peer ASNs present, ascending
  kInterfacesIn = 3,         // pinned interface addresses (uses `metro`)
  kVpiCandidates = 4,        // §7.1 multi-cloud overlap segments
  kLookup = 5,               // longest-prefix match (uses `address`)
  kMinConfidence = 6,        // segments >= min_confidence
  kConfidenceHistogram = 7,  // precomputed confidence distribution
};
inline constexpr std::uint8_t kQueryKindCount = 8;

struct QueryRequest {
  QueryKind kind = QueryKind::kCounts;
  std::uint32_t asn = 0;      // kPeersOf
  std::uint32_t metro = 0;    // kInterfacesIn
  std::uint32_t address = 0;  // kLookup (host-order IPv4)
  // kMinConfidence threshold; for kPeersOf / kVpiCandidates a value >= 0
  // additionally filters the result to segments scoring at least this.
  double min_confidence = -1.0;
  // Expand segment-index results into SegmentBriefs (one index lookup per
  // hit, done once at the dispatch point instead of by every caller).
  bool want_briefs = false;
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,  // malformed kind or parameter; `error` says what
};

// The per-segment summary returned when want_briefs is set: enough to print
// a result row without another round trip to the engine.
struct SegmentBrief {
  std::uint32_t index = 0;
  std::uint32_t abi = 0;
  std::uint32_t cbi = 0;
  std::uint32_t peer_asn = 0;
  std::uint8_t confirmation = 0;
  bool ixp = false;
  bool vpi = false;
  double confidence = 0.0;
};

struct QueryResponse {
  QueryStatus status = QueryStatus::kOk;
  QueryKind kind = QueryKind::kCounts;  // echoes the request
  std::string error;                    // set when status != kOk

  // Index results: segment indices for kPeersOf / kVpiCandidates /
  // kMinConfidence, peer ASNs for kPeerList, interface addresses for
  // kInterfacesIn. Ascending in every case.
  std::vector<std::uint32_t> items;
  std::vector<SegmentBrief> briefs;  // filled when want_briefs was set

  // kCounts / kConfidenceHistogram payloads.
  std::optional<FabricCounts> counts;
  std::optional<ConfidenceHistogram> histogram;

  // kLookup payload.
  bool found = false;
  std::uint32_t prefix_network = 0;  // host-order, masked
  std::uint8_t prefix_length = 0;
  bool is_interface = false;
  bool role_abi = false;
  bool role_cbi = false;
};

}  // namespace cloudmap
