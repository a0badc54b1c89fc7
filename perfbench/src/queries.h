// The serve workloads' request streams, the in-process replay through
// QueryEngine::execute, and the field-by-field reply comparison used by the
// serve output check.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "query/backend.h"
#include "query/engine.h"
#include "query/request.h"
#include "util/rng.h"

namespace perfbench {

// The five query kinds the workloads issue, in metric-name order.
inline constexpr std::array<cloudmap::QueryKind, 5> kMixKinds = {
    cloudmap::QueryKind::kCounts, cloudmap::QueryKind::kPeersOf,
    cloudmap::QueryKind::kVpiCandidates, cloudmap::QueryKind::kInterfacesIn,
    cloudmap::QueryKind::kLookup};
// "counts", "peers_of", "vpi_candidates", "interfaces_in", "lookup".
const char* kind_slug(cloudmap::QueryKind kind);
// Position of `kind` in kMixKinds (kMixKinds.size() when absent).
std::size_t mix_slot(cloudmap::QueryKind kind);

enum class Mix {
  kPoint,  // 3/4 lookups of present addresses, 1/4 peers_of present ASNs
  kMixed,  // BM_QuerySaturation's 1/8 mix: counts, peers_of,
           // vpi_candidates, interfaces_in, and half random lookups; kinds
           // come in shuffled blocks of eight that hold the mix exactly, so
           // a short replay has the same share of kCounts as a long one
};

// Deterministic request stream `stream` of a workload, drawing addresses
// and peer ASNs from the snapshot the workload serves. Every request sets
// want_briefs, as `cloudmap_cli remote` does.
class RequestStream {
 public:
  RequestStream(Mix mix, const cloudmap::FabricBackend& backend,
                std::uint64_t seed, std::uint64_t stream);
  cloudmap::QueryRequest next();

 private:
  Mix mix_;
  cloudmap::Rng rng_;
  std::array<cloudmap::QueryKind, 8> block_{};
  std::size_t next_in_block_ = 8;
  std::vector<std::uint32_t> addresses_;  // ABIs and CBIs of the snapshot
  std::vector<std::uint32_t> peers_;
};

// Per-request latencies of an in-process replay through
// QueryEngine::execute, overall and per kind (indexed like kMixKinds).
struct ReplayTimes {
  std::vector<double> us;
  std::array<std::vector<double>, kMixKinds.size()> by_kind_us;
  double wall_s = 0.0;
};
ReplayTimes replay(const cloudmap::QueryEngine& engine,
                   const std::vector<cloudmap::QueryRequest>& requests);

// Empty when the two replies agree on every field; otherwise the first
// field that differs.
std::string compare_responses(const cloudmap::QueryResponse& got,
                              const cloudmap::QueryResponse& want);

}  // namespace perfbench
