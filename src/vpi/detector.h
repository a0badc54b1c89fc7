// VPI detection (§7.1): build the target pool (all non-IXP CBIs, their +1
// neighbor addresses, and the destinations whose traceroutes discovered each
// CBI), probe it from every region of each foreign cloud, run the same
// border inference with that cloud as the subject, and intersect the
// resulting CBI sets with Amazon's. A CBI visible from two or more clouds
// sits on a shared cloud-exchange port — a virtual private interconnection.
// The result is a lower bound by construction.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "infer/annotate.h"
#include "infer/campaign.h"
#include "obs/metrics.h"
#include "util/parallel.h"

namespace cloudmap {

struct VpiCloudResult {
  CloudProvider provider = CloudProvider::kNone;
  std::size_t overlap = 0;            // pairwise common CBIs with the subject
  std::size_t cumulative_overlap = 0; // union up to and including this cloud
};

struct VpiDetectionResult {
  std::vector<VpiCloudResult> per_cloud;       // in probing order
  std::unordered_set<std::uint32_t> vpi_cbis;  // all overlapping CBIs
  std::size_t subject_cbis = 0;                // denominator for Table 4 %
  std::size_t target_pool = 0;
};

class VpiDetector {
 public:
  // `threads` is forwarded to the foreign-cloud campaigns (same contract as
  // CampaignConfig::threads: 0 = hardware_concurrency, results identical
  // for every value).
  VpiDetector(const World& world, const Forwarder& forwarder,
              const Annotator& annotator, std::uint64_t seed = 31,
              int threads = 0);

  // `subject_campaign` must have completed its rounds. `clouds` are probed
  // in order (Table 4 reads Microsoft, Google, IBM, Oracle).
  VpiDetectionResult detect(const Campaign& subject_campaign,
                            const std::vector<CloudProvider>& clouds);

  // The §7.1 target pool for a finished campaign (exposed for tests).
  static std::vector<Ipv4> target_pool(const Campaign& campaign,
                                       const Annotator& annotator);

  // Attach a metrics registry (may be null): foreign campaigns then record
  // their sweeps into it, and detect() accumulates the telemetry below.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Probe accounting across all foreign-cloud sweeps of the last detect().
  // Counts are always exact; `pool` aggregates worker busy/wall time and is
  // populated only when an enabled metrics registry is attached.
  struct Telemetry {
    std::uint64_t traceroutes = 0;
    std::uint64_t probes = 0;
    std::uint64_t foreign_campaigns = 0;
    PoolStats pool;  // summed busy/wall ns; workers = max across sweeps
  };
  const Telemetry& telemetry() const noexcept { return telemetry_; }

 private:
  const World* world_;
  const Forwarder* forwarder_;
  const Annotator* annotator_;
  std::uint64_t seed_;
  int threads_;
  MetricsRegistry* metrics_ = nullptr;
  Telemetry telemetry_;
};

}  // namespace cloudmap
