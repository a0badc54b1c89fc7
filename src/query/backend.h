// The value types the query engine reads out of a FabricView
// (query/fabric_view.h), the zero-copy view over a format-v3 flat fabric
// blob: spans into the blob, per-segment facts, lookup hits, and the
// confidence histogram.
//
// Spans point into the view's backing storage: valid for the lifetime of
// the view, never null (empty spans have size 0).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

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

// FabricView is the one query backend. Its former interface name stays as
// an alias only because perfbench/ (the repo benchmark, which changes only
// together with its baselines) still spells it; new code names FabricView.
class FabricView;
using FabricBackend = FabricView;

}  // namespace cloudmap
