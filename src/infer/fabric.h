// The inferred fabric: the aggregation of every candidate interconnection
// segment observed across the traceroute campaigns, deduplicated per
// (ABI, CBI) pair, plus the hop-adjacency pairs the hybrid heuristic needs.
// This is the central mutable state of the inference pipeline — verification
// (§5) edits it in place and annotations are recomputed against the freshest
// BGP snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "infer/annotate.h"
#include "infer/border.h"
#include "net/flat_hash.h"

namespace cloudmap {

// How a segment's ABI ended up confirmed (§5.1 heuristics, in confidence
// order) or corrected.
enum class Confirmation : std::uint8_t {
  kUnconfirmed = 0,
  kIxpClient,
  kHybrid,
  kReachability,
  kAliasRelabel,  // corrected/confirmed by the §5.2 alias-set check
};
const char* to_string(Confirmation c);

struct InferredSegment {
  Ipv4 abi;
  Ipv4 cbi;
  Ipv4 prior_abi;  // most recent observation's prior hop
  Ipv4 post_cbi;   // most recent observation's next hop
  int first_round = 1;
  std::uint64_t regions = 0;                 // bit r: source region r
  std::vector<std::uint32_t> dest_slash24s;  // /24s reached, ascending
  std::vector<Ipv4> sample_destinations;     // ≤ kMaxSampleDests
  Confirmation confirmation = Confirmation::kUnconfirmed;
  bool shifted = false;  // corrected to the preceding segment (Fig. 2)
  // Multi-pass evidence feeding the per-segment confidence score
  // (infer/confidence.h): how many candidate observations merged into this
  // segment, a bitmask of the campaign rounds that contributed (bit r-1 for
  // round r, rounds beyond 32 saturate into the top bit), and the summed
  // responding-hop density of the source traceroutes.
  std::uint32_t observations = 0;
  std::uint32_t rounds_mask = 0;
  double hop_density_sum = 0.0;
  // Owner attribution fallback: when the (corrected) CBI carries a
  // cloud-provided address, the peer AS is taken from the downstream hop or
  // the alias-set majority instead of the CBI's own annotation.
  Asn owner_hint;

  // Every field, the confidence evidence included; the identity tests hold
  // fabrics equal with it across thread counts and retry budgets.
  bool operator==(const InferredSegment&) const = default;
};

// The source-region ids of a segment's region mask, ascending.
std::vector<std::uint32_t> region_ids(std::uint64_t regions);

class Fabric {
 public:
  static constexpr std::size_t kMaxSampleDests = 4;
  // InferredSegment::regions has one bit per region id.
  static constexpr std::uint32_t kMaxRegions = 64;

  // Merge one observation; creates or updates the (abi, cbi) segment.
  // Throws std::out_of_range, leaving the fabric unchanged, when the
  // candidate's region id is kMaxRegions or more.
  void add_segment(const CandidateSegment& candidate, int round);

  // Record a consecutive-responding-hop adjacency (for hybrid detection).
  void add_adjacency(Ipv4 from, Ipv4 to);

  std::vector<InferredSegment>& segments() { return segments_; }
  const std::vector<InferredSegment>& segments() const { return segments_; }

  // Distinct successors of an address across all traceroutes, in no
  // particular order; empty when it has none. The span stays valid until
  // the next add_adjacency. The first call after an add_adjacency indexes
  // every pair (a pass over them, no sort), so that call must not race
  // with another successors_of on the same fabric.
  std::span<const std::uint32_t> successors_of(Ipv4 address) const;

  // Unique ABI / CBI address sets implied by the current segments.
  std::unordered_set<std::uint32_t> unique_abis() const;
  std::unordered_set<std::uint32_t> unique_cbis() const;

  // Segment indices grouped by ABI address.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_abi() const;
  // Segment indices grouped by CBI address.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_cbi() const;

  // Rewrite a segment in place to the preceding traceroute segment
  // (prior_abi becomes the ABI, the old ABI becomes the CBI). Deduplicates
  // against an existing (prior_abi, abi) segment when present. Returns false
  // when no prior hop is known (the shift cannot be applied).
  bool shift_segment(std::size_t index, Confirmation reason);

  // Rewrite a segment to the *following* traceroute segment (the old CBI
  // becomes the ABI, post_cbi the CBI) — the CBI→ABI correction of §5.2.
  // Returns false when no downstream hop is known.
  bool advance_segment(std::size_t index, Confirmation reason);

  // Drop segments flagged for removal (empty cbi) after edits.
  void compact();

 private:
  static std::uint64_t key(Ipv4 abi, Ipv4 cbi) {
    return (static_cast<std::uint64_t>(abi.value()) << 32) | cbi.value();
  }

  // successors_of's index entry: a run of successor_list_.
  struct SuccessorRun {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  // FlatHashMap reserves key 0; the tag bit keeps address 0.0.0.0 usable.
  static std::uint64_t run_key(std::uint64_t from) {
    return (std::uint64_t{1} << 32) | from;
  }
  void index_successors() const;

  std::vector<InferredSegment> segments_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  // Every distinct adjacency as from << 32 | to, and every distinct from.
  FlatKeySet adjacencies_;
  FlatKeySet adjacency_sources_;
  // The successor index, built from adjacencies_ on the first
  // successors_of after a new pair: each from's successors contiguous in
  // successor_list_, found through successor_runs_.
  mutable FlatHashMap<std::uint64_t, SuccessorRun> successor_runs_;
  mutable std::vector<std::uint32_t> successor_list_;
  mutable bool successors_indexed_ = false;
};

}  // namespace cloudmap
