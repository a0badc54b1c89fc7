#include "vpi/detector.h"

#include <algorithm>

namespace cloudmap {

VpiDetector::VpiDetector(const World& world, const Forwarder& forwarder,
                         const Annotator& annotator, std::uint64_t seed,
                         int threads)
    : world_(&world),
      forwarder_(&forwarder),
      annotator_(&annotator),
      seed_(seed),
      threads_(threads) {}

std::vector<Ipv4> VpiDetector::target_pool(const Campaign& campaign,
                                           const Annotator& annotator) {
  std::unordered_set<std::uint32_t> pool;
  for (const InferredSegment& segment : campaign.fabric().segments()) {
    const HopAnnotation a = annotator.annotate(segment.cbi);
    if (a.ixp) continue;  // public peerings cannot be VPIs
    pool.insert(segment.cbi.value());
    pool.insert(segment.cbi.value() + 1);  // the +1 neighbor address
    for (const Ipv4 dest : segment.sample_destinations)
      pool.insert(dest.value());
  }
  std::vector<std::uint32_t> ordered(pool.begin(), pool.end());
  std::sort(ordered.begin(), ordered.end());
  std::vector<Ipv4> out;
  out.reserve(ordered.size());
  for (const std::uint32_t address : ordered) out.emplace_back(address);
  return out;
}

VpiDetectionResult VpiDetector::detect(
    const Campaign& subject_campaign,
    const std::vector<CloudProvider>& clouds) {
  VpiDetectionResult result;

  // Subject's non-IXP CBI set (the candidate VPI endpoints).
  std::unordered_set<std::uint32_t> subject_cbis;
  for (const std::uint32_t cbi : subject_campaign.fabric().unique_cbis()) {
    if (!annotator_->annotate(Ipv4(cbi)).ixp) subject_cbis.insert(cbi);
  }
  result.subject_cbis = subject_campaign.fabric().unique_cbis().size();

  const std::vector<Ipv4> pool =
      target_pool(subject_campaign, *annotator_);
  result.target_pool = pool.size();

  telemetry_ = Telemetry{};
  std::unordered_set<std::uint32_t> cumulative;
  std::uint64_t seed = seed_;
  for (const CloudProvider provider : clouds) {
    CampaignConfig config;
    config.seed = ++seed;
    config.threads = threads_;
    Campaign foreign(*world_, *forwarder_, provider, config);
    foreign.set_metrics(metrics_);
    const RoundStats sweep = foreign.run_targets(*annotator_, pool, 1);
    ++telemetry_.foreign_campaigns;
    telemetry_.traceroutes += sweep.traceroutes;
    telemetry_.probes += sweep.probes;
    const PoolStats& pool_stats = foreign.last_pool_stats();
    telemetry_.pool.items += pool_stats.items;
    telemetry_.pool.wall_ns += pool_stats.wall_ns;
    telemetry_.pool.busy_ns += pool_stats.busy_ns;
    telemetry_.pool.workers =
        std::max(telemetry_.pool.workers, pool_stats.workers);

    VpiCloudResult cloud_result;
    cloud_result.provider = provider;
    for (const std::uint32_t cbi : foreign.fabric().unique_cbis()) {
      if (!subject_cbis.count(cbi)) continue;
      ++cloud_result.overlap;
      cumulative.insert(cbi);
    }
    cloud_result.cumulative_overlap = cumulative.size();
    result.per_cloud.push_back(cloud_result);
  }
  result.vpi_cbis = std::move(cumulative);
  return result;
}

}  // namespace cloudmap
