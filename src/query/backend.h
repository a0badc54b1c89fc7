// The value types the query engine reads out of a FabricView
// (query/fabric_view.h), the zero-copy view over a format-v3 flat fabric
// blob: spans into the blob, per-segment facts, lookup hits, and the two
// aggregates the view precomputes, the confidence histogram and the
// fabric counts.
//
// Spans point into the view's backing storage: valid for the lifetime of
// the view, never null (empty spans have size 0).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "analysis/grouping.h"
#include "net/prefix.h"

namespace cloudmap {

// A read-only view over a contiguous run of u32 values owned by the blob.
struct Span32 {
  const std::uint32_t* values = nullptr;
  std::size_t count = 0;

  const std::uint32_t* begin() const { return values; }
  const std::uint32_t* end() const { return values + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  std::uint32_t operator[](std::size_t i) const { return values[i]; }
};

// The per-segment fields the engine aggregates and reports, copied out of
// one fixed-width segment record.
struct SegmentFacts {
  std::uint32_t abi = 0;       // host-order interface addresses
  std::uint32_t cbi = 0;
  std::uint32_t peer_asn = 0;  // 0 = unknown
  std::uint32_t peer_org = 0;  // 0 = unknown
  std::uint8_t confirmation = 0;
  std::uint8_t group = 0;      // kSnapshotNoGroup = unattributed
  bool ixp = false;
  bool vpi = false;
  double confidence = 0.0;
};

// One longest-prefix match: a /32 hit names an interface (with its fabric
// roles), a shorter hit a destination cone reached through the listed
// segments (ascending, deduplicated).
struct BackendHit {
  Prefix prefix;
  bool is_interface = false;
  bool abi = false;
  bool cbi = false;
  Span32 segments;
};

// Distribution of per-segment confidence scores: ten equal-width bins over
// [0, 1] (scores of exactly 1.0 land in the last bin) plus summary moments.
// Precomputed when the view is built.
struct ConfidenceHistogram {
  std::array<std::size_t, 10> bins{};
  std::size_t segments = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Aggregate answers in the shape of the paper's tables: interface totals
// per confirmation class (Tables 1/2), the VPI overlap (Table 4), and the
// six-group peering breakdown (Table 5), plus the §6 pinning coverage.
// Precomputed, like the histogram, in the one pass over the segment
// records that builds the view.
struct FabricCounts {
  std::size_t segments = 0;
  std::size_t unique_abis = 0;
  std::size_t unique_cbis = 0;
  std::size_t peer_ases = 0;
  std::size_t peer_orgs = 0;
  std::array<std::size_t, 5> by_confirmation{};  // indexed by Confirmation
  std::size_t ixp_segments = 0;   // public peerings (CBI on an IXP LAN)
  std::size_t vpi_cbis = 0;       // unique CBIs in the multi-cloud overlap
  std::array<std::size_t, kPeeringGroupCount> group_segments{};
  std::array<std::size_t, kPeeringGroupCount> group_ases{};
  std::size_t unattributed_segments = 0;
  std::size_t pinned_interfaces = 0;   // metro-level pins
  std::size_t regional_only = 0;       // regional fallback entries
  // Confidence aggregates.
  double mean_confidence = 0.0;
  std::size_t confident_segments = 0;  // confidence >= 0.5
};

// FabricView is the one query backend. Its former interface name stays as
// an alias only because perfbench/ (the repo benchmark, which changes only
// together with its baselines) still spells it; new code names FabricView.
class FabricView;
using FabricBackend = FabricView;

}  // namespace cloudmap
