// FabricView: the query backend — a zero-copy view over a validated
// format-v3 flat fabric blob (io/snapshot_v3.h). Construction casts typed
// pointers over the blob and precomputes only the confidence histogram —
// no per-segment decode, no allocation proportional to fabric size — so a
// daemon can open a snapshot, validate it once, and start answering
// queries out of the page cache immediately.
//
// The view borrows the blob: keep the backing storage (typically a
// MappedSnapshot, io/mapped_snapshot.h) alive for the view's lifetime.
// Immutable after construction; safe for any number of reader threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "io/snapshot_v3.h"
#include "query/backend.h"

namespace cloudmap {

class FabricView {
 public:
  // `blob` must be 8-byte aligned and already accepted by
  // snapv3::validate_flat_fabric() (MappedSnapshot guarantees both).
  explicit FabricView(const unsigned char* blob);
  FabricView(const FabricView&) = delete;
  FabricView& operator=(const FabricView&) = delete;

  std::size_t segment_count() const { return v_.dir->segment_count; }
  // `index` must be < segment_count().
  SegmentFacts segment(std::uint32_t index) const;

  // Segment indices whose peer AS is `peer_asn`, ascending; empty = none.
  Span32 peer_segments(std::uint32_t peer_asn) const;
  // Peer ASNs present in the fabric, ascending (unknown/0 excluded).
  Span32 asn_list() const { return pool_span(v_.dir->peer_asns); }
  // Segments in the §7.1 multi-cloud overlap, ascending.
  Span32 vpi_list() const { return pool_span(v_.dir->vpi); }
  // Interface addresses pinned to `metro`, ascending; empty = none.
  Span32 metro_interfaces(std::uint32_t metro) const;
  // Metros with at least one pinned interface, ascending.
  Span32 metro_list() const { return pool_span(v_.dir->pinned_metros); }

  // Longest-prefix lookup of an arbitrary address against the fabric.
  std::optional<BackendHit> find(Ipv4 address) const;

  // Segment indices with confidence >= min_confidence, ascending.
  std::vector<std::uint32_t> min_confidence_list(double min_confidence) const;
  const ConfidenceHistogram& histogram() const { return histogram_; }

  // Aggregate totals the counts query folds in.
  std::size_t pin_total() const { return v_.dir->pin_count; }
  std::size_t regional_total() const { return v_.dir->regional_count; }

 private:
  Span32 pool_span(snapv3::V3Span span) const {
    return {v_.pool + span.off, span.len};
  }

  snapv3::V3View v_;
  ConfidenceHistogram histogram_;
};

}  // namespace cloudmap
