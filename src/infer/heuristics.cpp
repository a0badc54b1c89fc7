#include "infer/heuristics.h"

#include <unordered_map>
#include <unordered_set>

namespace cloudmap {

HeuristicVerifier::HeuristicVerifier(const Forwarder& forwarder,
                                     const Annotator& annotator,
                                     OrgId subject_org,
                                     VantagePoint public_vp)
    : forwarder_(&forwarder),
      annotator_(&annotator),
      subject_org_(subject_org),
      public_vp_(std::move(public_vp)) {}

bool HeuristicVerifier::cbi_in_ixp(const Fabric& fabric,
                                   std::size_t segment_index) const {
  return annotator_->annotate(fabric.segments()[segment_index].cbi).ixp;
}

bool HeuristicVerifier::is_hybrid(const Fabric& fabric, Ipv4 address) const {
  bool has_cloud_successor = false;
  bool has_client_successor = false;
  for (const std::uint32_t next : fabric.successors_of(address)) {
    const HopAnnotation a = annotator_->annotate(Ipv4(next));
    if (a.org == subject_org_) {
      has_cloud_successor = true;
    } else if (!a.org.is_unknown() || a.ixp) {
      has_client_successor = true;
    }
    if (has_cloud_successor && has_client_successor) return true;
  }
  return false;
}

bool HeuristicVerifier::reachable_from_public(Ipv4 address) const {
  return forwarder_->rtt_to_address(public_vp_, address).has_value();
}

HeuristicCounts HeuristicVerifier::apply(Fabric& fabric) {
  HeuristicCounts counts;

  // --- individual evaluation (no mutation) ---
  {
    const auto by_abi = fabric.by_abi();
    counts.total_abis = by_abi.size();
    counts.total_cbis = fabric.unique_cbis().size();
    for (const auto& [abi_value, segment_indices] : by_abi) {
      const Ipv4 abi(abi_value);
      std::unordered_set<std::uint32_t> cbis;
      for (const std::size_t index : segment_indices)
        cbis.insert(fabric.segments()[index].cbi.value());

      bool ixp_hit = false;
      for (const std::size_t index : segment_indices)
        if (cbi_in_ixp(fabric, index)) ixp_hit = true;
      if (ixp_hit) {
        ++counts.ixp_abis;
        counts.ixp_cbis += cbis.size();
      }
      if (is_hybrid(fabric, abi)) {
        ++counts.hybrid_abis;
        counts.hybrid_cbis += cbis.size();
      }
      bool abi_unreachable = !reachable_from_public(abi);
      bool any_cbi_reachable = false;
      for (const std::uint32_t cbi : cbis)
        if (reachable_from_public(Ipv4(cbi))) any_cbi_reachable = true;
      if (abi_unreachable && any_cbi_reachable) {
        ++counts.reachable_abis;
        counts.reachable_cbis += cbis.size();
      }
    }
  }

  // --- cumulative application in confidence order, with corrections ---
  std::unordered_set<std::uint32_t> confirmed_abis;
  auto confirm = [&](std::size_t index, Confirmation reason) {
    InferredSegment& segment = fabric.segments()[index];
    if (segment.confirmation == Confirmation::kUnconfirmed)
      segment.confirmation = reason;
  };

  // Pass 1: IXP-client.
  {
    const auto by_abi = fabric.by_abi();
    for (const auto& [abi_value, segment_indices] : by_abi) {
      bool hit = false;
      for (const std::size_t index : segment_indices)
        if (cbi_in_ixp(fabric, index)) hit = true;
      if (!hit) continue;
      confirmed_abis.insert(abi_value);
      ++counts.cum_ixp_abis;
      std::unordered_set<std::uint32_t> cbis;
      for (const std::size_t index : segment_indices) {
        confirm(index, Confirmation::kIxpClient);
        cbis.insert(fabric.segments()[index].cbi.value());
      }
      counts.cum_ixp_cbis += cbis.size();
    }
  }

  // Pass 2: hybrid confirmation, plus Fig. 2 shift when the evidence points
  // one hop back.
  {
    const auto by_abi = fabric.by_abi();
    for (const auto& [abi_value, segment_indices] : by_abi) {
      if (confirmed_abis.count(abi_value)) continue;
      const Ipv4 abi(abi_value);
      if (is_hybrid(fabric, abi)) {
        confirmed_abis.insert(abi_value);
        ++counts.cum_hybrid_abis;
        std::unordered_set<std::uint32_t> cbis;
        for (const std::size_t index : segment_indices) {
          confirm(index, Confirmation::kHybrid);
          cbis.insert(fabric.segments()[index].cbi.value());
        }
        counts.cum_hybrid_cbis += cbis.size();
        continue;
      }
      // Shift check: the candidate ABI is not hybrid, its prior hop is, and
      // everything downstream of the candidate is client-side — the
      // interconnect is the preceding segment (cloud-provided /30).
      for (const std::size_t index : segment_indices) {
        InferredSegment& segment = fabric.segments()[index];
        if (segment.prior_abi.is_unspecified()) continue;
        if (!is_hybrid(fabric, segment.prior_abi)) continue;
        const auto successors = fabric.successors_of(abi);
        bool all_client = !successors.empty();
        for (const std::uint32_t next : successors) {
          if (annotator_->annotate(Ipv4(next)).org == subject_org_)
            all_client = false;
        }
        if (!all_client) continue;
        const Asn hint = annotator_->annotate(segment.cbi).asn;
        if (fabric.shift_segment(index, Confirmation::kHybrid)) {
          if (!segment.cbi.is_unspecified() && segment.owner_hint.is_unknown())
            segment.owner_hint = hint;
          ++counts.shifts_applied;
        }
      }
    }
    fabric.compact();
  }

  // Pass 3: reachability.
  {
    const auto by_abi = fabric.by_abi();
    for (const auto& [abi_value, segment_indices] : by_abi) {
      if (confirmed_abis.count(abi_value)) continue;
      const Ipv4 abi(abi_value);
      if (reachable_from_public(abi)) continue;  // suspicious ABI, skip
      std::unordered_set<std::uint32_t> cbis;
      bool any_cbi_reachable = false;
      for (const std::size_t index : segment_indices) {
        cbis.insert(fabric.segments()[index].cbi.value());
        if (reachable_from_public(fabric.segments()[index].cbi))
          any_cbi_reachable = true;
      }
      if (!any_cbi_reachable) continue;
      confirmed_abis.insert(abi_value);
      ++counts.cum_reachable_abis;
      counts.cum_reachable_cbis += cbis.size();
      for (const std::size_t index : segment_indices)
        confirm(index, Confirmation::kReachability);
    }
  }

  // Remaining unconfirmed ABIs.
  {
    const auto by_abi = fabric.by_abi();
    for (const auto& [abi_value, segment_indices] : by_abi) {
      (void)segment_indices;
      if (!confirmed_abis.count(abi_value)) ++counts.unconfirmed_abis;
    }
  }
  return counts;
}

}  // namespace cloudmap
