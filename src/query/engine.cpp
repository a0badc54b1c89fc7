#include "query/engine.h"

#include <algorithm>

namespace cloudmap {

namespace {

// One metrics counter per QueryKind, resolved once at engine construction.
constexpr std::array<const char*, kQueryKindCount> kCounterNames = {
    "query.counts",         "query.peers_of",
    "query.peer_list",      "query.interfaces_in",
    "query.vpi_candidates", "query.lookups",
    "query.min_confidence", "query.confidence_histogram",
};

SegmentBrief brief_of(const FabricView& view, std::uint32_t index) {
  const SegmentFacts facts = view.segment(index);
  SegmentBrief brief;
  brief.index = index;
  brief.abi = facts.abi;
  brief.cbi = facts.cbi;
  brief.peer_asn = facts.peer_asn;
  brief.confirmation = facts.confirmation;
  brief.ixp = facts.ixp;
  brief.vpi = facts.vpi;
  brief.confidence = facts.confidence;
  return brief;
}

}  // namespace

QueryEngine::QueryEngine(const FabricView& view, MetricsRegistry* metrics)
    : view_(view) {
  if (metrics != nullptr && metrics->enabled()) {
    for (std::size_t k = 0; k < kCounterNames.size(); ++k)
      counters_[k] = &metrics->counter(kCounterNames[k]);
  }
}

QueryResponse QueryEngine::execute(const QueryRequest& request) const {
  QueryResponse out;
  out.kind = request.kind;
  const auto k = static_cast<std::size_t>(request.kind);
  if (k >= kQueryKindCount) {
    out.status = QueryStatus::kBadRequest;
    out.error = "unknown query kind " + std::to_string(k);
    return out;
  }
  if (MetricsRegistry::Counter* c = counter(request.kind); c != nullptr)
    c->add();

  // Segment-index results share the filter + brief tail below; the other
  // kinds return directly from their case.
  bool segment_items = false;
  switch (request.kind) {
    case QueryKind::kCounts: {
      out.counts = view_.counts();
      return out;
    }
    case QueryKind::kPeersOf: {
      const Span32 hits = view_.peer_segments(request.asn);
      out.items.assign(hits.begin(), hits.end());
      segment_items = true;
      break;
    }
    case QueryKind::kPeerList: {
      const Span32 asns = view_.asn_list();
      out.items.assign(asns.begin(), asns.end());
      return out;
    }
    case QueryKind::kInterfacesIn: {
      const Span32 hits = view_.metro_interfaces(request.metro);
      out.items.assign(hits.begin(), hits.end());
      return out;  // items are addresses, not segment indices: no briefs
    }
    case QueryKind::kVpiCandidates: {
      const Span32 hits = view_.vpi_list();
      out.items.assign(hits.begin(), hits.end());
      segment_items = true;
      break;
    }
    case QueryKind::kLookup: {
      const auto hit = view_.find(Ipv4(request.address));
      if (hit) {
        out.found = true;
        out.prefix_network = hit->prefix.network().value();
        out.prefix_length = static_cast<std::uint8_t>(hit->prefix.length());
        out.is_interface = hit->is_interface;
        out.role_abi = hit->abi;
        out.role_cbi = hit->cbi;
        out.items.assign(hit->segments.begin(), hit->segments.end());
        if (request.want_briefs)
          for (const std::uint32_t i : out.items)
            out.briefs.push_back(brief_of(view_, i));
      }
      return out;
    }
    case QueryKind::kMinConfidence: {
      out.items = view_.min_confidence_list(
          std::max(request.min_confidence, 0.0));
      segment_items = true;
      break;
    }
    case QueryKind::kConfidenceHistogram: {
      out.histogram = view_.histogram();
      return out;
    }
  }

  if (segment_items) {
    // kMinConfidence already honoured its threshold as the query itself.
    if (request.min_confidence >= 0.0 &&
        request.kind != QueryKind::kMinConfidence) {
      std::erase_if(out.items, [&](std::uint32_t i) {
        return view_.segment(i).confidence < request.min_confidence;
      });
    }
    if (request.want_briefs)
      for (const std::uint32_t i : out.items)
        out.briefs.push_back(brief_of(view_, i));
  }
  return out;
}

}  // namespace cloudmap
