#include "infer/campaign.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "net/flat_hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace cloudmap {

namespace {

// RNG stream for one (sweep, region, chunk) work item. Mixed through
// splitmix64 at each step so streams are decorrelated however the inputs
// collide; depends on nothing that varies with the thread count.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t sweep,
                          std::uint64_t region, std::uint64_t chunk) {
  std::uint64_t state = seed + 0x632be59bd9b4e019ULL * (sweep + 1);
  state ^= splitmix64(state) + 0x9e3779b97f4a7c15ULL * (region + 1);
  state ^= splitmix64(state) + 0xbf58476d1ce4e5b9ULL * (chunk + 1);
  return splitmix64(state);
}

}  // namespace

Campaign::Campaign(const World& world, const Forwarder& forwarder,
                   CloudProvider subject, const CampaignConfig& config)
    : world_(&world),
      forwarder_(&forwarder),
      subject_(subject),
      subject_org_(world.ases[world.cloud_primary(subject).value].org),
      config_(config) {
  for (RegionId region : world.regions_of(subject)) {
    // Refused here, before any sweep: a worker's throw could not reach the
    // caller as cleanly as this one.
    if (region.value >= Fabric::kMaxRegions) {
      throw std::invalid_argument(
          "campaign: region " + world.region(region).name + " has id " +
          std::to_string(region.value) + "; the fabric records at most " +
          std::to_string(Fabric::kMaxRegions) + " regions");
    }
    vps_.push_back(VantagePoint::cloud_vm(
        subject, region, world.region(region).name));
  }
}

Campaign::SweepChunkResult Campaign::sweep_chunk(
    const Annotator& annotator, const std::vector<Ipv4>& targets,
    std::size_t vp_index, std::size_t begin, std::size_t end,
    std::uint64_t chunk, std::uint64_t sweep_index,
    std::uint32_t epoch) const {
  const VantagePoint& vp = vps_[vp_index];
  const std::uint64_t chunk_seed =
      stream_seed(config_.seed, sweep_index, vp.region.value, chunk);
  // The work item's forwarding-state epoch rides on the engine options so
  // primary and retry engines see the same state. epoch 0 leaves the copy
  // equal to config_.traceroute — the hazard-off path builds the exact
  // engines it always built.
  TracerouteOptions traceroute = config_.traceroute;
  traceroute.hazards.epoch = epoch;
  TracerouteEngine engine(*forwarder_, chunk_seed, traceroute);
  SweepChunkResult result;
  // Adjacencies repeat heavily across traces into the same /24; dedup per
  // chunk to keep the merge buffers small (the fabric keeps each pair once,
  // so dropping duplicates changes nothing). result.adjacencies keeps
  // first-sighting order.
  FlatKeySet seen_adjacencies;
  // Fold one trace — primary or retry — into the chunk result. Returns
  // whether a candidate segment came out of it.
  const auto process = [&](const TracerouteRecord& record) {
    ++result.traceroutes;
    // Adjacencies between consecutive responding hops feed the hybrid
    // heuristic (Fig. 3).
    Ipv4 previous;
    for (const TracerouteHop& hop : record.hops) {
      if (!hop.responded) {
        previous = Ipv4{};
        continue;
      }
      if (!previous.is_unspecified()) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(previous.value()) << 32) |
            hop.address.value();
        if (seen_adjacencies.insert(key))
          result.adjacencies.emplace_back(previous.value(),
                                          hop.address.value());
      }
      previous = hop.address;
    }
    if (auto segment =
            extract_segment(record, annotator, subject_org_, result.walk)) {
      result.segments.push_back(std::move(*segment));
      return true;
    }
    return false;
  };

  const ReprobePolicy reprobe = config_.reprobe.clamped();
  std::vector<std::size_t> failed;
  // One record per chunk: trace_into reuses its hop storage, so the probe
  // loop stops allocating once the deepest trace has sized the buffers.
  TracerouteRecord record;
  for (std::size_t t = begin; t < end; ++t) {
    engine.trace_into(vp, targets[t], record);
    process(record);
    if (reprobe.enabled() && record.status != TracerouteStatus::kCompleted)
      failed.push_back(t);
  }
  result.probes = engine.probes_sent();

  // Re-probe pass: each failed target earns up to `budget` extra traces with
  // exponential, jittered backoff in the simulated clock. Every attempt
  // draws from its own (chunk, target, attempt) RNG stream — the primary
  // engine above is never touched, so a zero budget is bit-identical to the
  // seed behaviour and results stay thread-count invariant.
  for (const std::size_t t : failed) {
    ++result.retried_targets;
    bool recovered = false;
    for (int attempt = 1; attempt <= reprobe.budget && !recovered; ++attempt) {
      Rng retry_rng(reprobe_stream_seed(chunk_seed, t, attempt));
      result.backoff_ticks += reprobe.backoff_ticks(attempt, retry_rng);
      ++result.backoff_waits;
      TracerouteEngine retry_engine(*forwarder_, retry_rng.next(),
                                    traceroute);
      retry_engine.trace_into(vp, targets[t], record);
      ++result.retries;
      const bool extracted = process(record);
      result.probes += retry_engine.probes_sent();
      if (record.status == TracerouteStatus::kCompleted || extracted) {
        recovered = true;
        ++result.recovered_targets;
      }
    }
  }
  return result;
}

Campaign::SweepPlan Campaign::make_plan(std::size_t target_count) const {
  SweepPlan plan;
  // Work items in canonical (region, chunk) order — the same order the
  // sequential loop used to visit (vantage-point outer, targets inner).
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    std::uint64_t chunk = 0;
    for (std::size_t begin = 0; begin < target_count;
         begin += kSweepChunk, ++chunk) {
      plan.items.push_back(WorkItem{
          v, begin, std::min(begin + kSweepChunk, target_count), chunk});
    }
  }

  // Route-churn hazard: the last `route_churn` fraction of the canonical
  // work-item list runs against forwarding-state epoch 1 — an atomic,
  // fabric-wide swap at a deterministic item boundary, independent of the
  // thread count and of sharding (the boundary is an index into the
  // canonical list, never a function of scheduling).
  const double route_churn =
      config_.traceroute.hazards.clamped().route_churn;
  plan.swap_at =
      route_churn <= 0.0
          ? plan.items.size()
          : plan.items.size() -
                static_cast<std::size_t>(
                    static_cast<double>(plan.items.size()) * route_churn);
  return plan;
}

std::uint64_t Campaign::sweep_item_count(std::size_t target_count) const {
  const std::uint64_t chunks_per_vp =
      (target_count + kSweepChunk - 1) / kSweepChunk;
  return static_cast<std::uint64_t>(vps_.size()) * chunks_per_vp;
}

void Campaign::merge_result(RoundStats& stats, const SweepChunkResult& result,
                            int round) {
  stats.traceroutes += result.traceroutes;
  stats.probes += result.probes;
  stats.retried_targets += result.retried_targets;
  stats.retries += result.retries;
  stats.backoff_waits += result.backoff_waits;
  stats.backoff_ticks += result.backoff_ticks;
  stats.recovered_targets += result.recovered_targets;
  stats.walk.add(result.walk);
  for (const auto& [from, to] : result.adjacencies)
    fabric_.add_adjacency(Ipv4(from), Ipv4(to));
  for (const CandidateSegment& segment : result.segments)
    fabric_.add_segment(segment, round);
}

void Campaign::add_sweep_metrics(const RoundStats& stats) {
  if (metrics_ == nullptr || !metrics_->enabled()) return;
  metrics_->add("campaign.sweeps");
  metrics_->add("campaign.targets", stats.targets);
  metrics_->add("campaign.traceroutes", stats.traceroutes);
  metrics_->add("campaign.probes", stats.probes);
  // Registered even when zero so every artifact carries the retry family
  // (tools/metrics_schema.json lists them as retry_counters).
  metrics_->add("campaign.retry.attempts", stats.retries);
  metrics_->add("campaign.retry.backoff_waits", stats.backoff_waits);
  metrics_->add("campaign.retry.backoff_ticks", stats.backoff_ticks);
  metrics_->add("campaign.retry.recovered_targets", stats.recovered_targets);
}

RoundStats Campaign::sweep(const Annotator& annotator,
                           const std::vector<Ipv4>& targets, int round) {
  const bool metered = metrics_ != nullptr && metrics_->enabled();
  const MetricsRegistry::ScopedTimer sweep_timer(
      metered ? metrics_ : nullptr, "campaign.sweep");
  RoundStats stats;
  stats.targets = targets.size();
  const std::uint64_t sweep_index = sweep_counter_++;
  const SweepPlan plan = make_plan(targets.size());

  // Stream each item's contribution to the calling thread, which merges in
  // canonical work-item order: segment insertion order (and with it
  // prior/post-hop freshness and destination sampling) matches a serial run
  // exactly, while peak buffering stays O(workers) instead of
  // materializing every chunk's output (flat RSS at Internet scale).
  last_pool_stats_ = PoolStats{};
  parallel_consume(
      plan.items.size(), config_.threads,
      [&](std::size_t i) {
        const WorkItem& item = plan.items[i];
        return sweep_chunk(annotator, targets, item.vp, item.begin, item.end,
                           item.chunk, sweep_index,
                           i >= plan.swap_at ? 1u : 0u);
      },
      [&](std::size_t, SweepChunkResult&& result) {
        merge_result(stats, result, round);
      },
      metered ? &last_pool_stats_ : nullptr);
  add_sweep_metrics(stats);
  return stats;
}

void Campaign::run_shard_sweep(const Annotator& annotator,
                               const std::vector<Ipv4>& targets,
                               const ShardSink& sink) {
  const bool metered = metrics_ != nullptr && metrics_->enabled();
  const MetricsRegistry::ScopedTimer sweep_timer(
      metered ? metrics_ : nullptr, "campaign.sweep");
  const std::uint64_t sweep_index = sweep_counter_++;
  const SweepPlan plan = make_plan(targets.size());

  const std::size_t shard_count =
      config_.shard_count < 1 ? 1 : static_cast<std::size_t>(config_.shard_count);
  const std::size_t shard_index =
      config_.shard_index < 0 ? 0 : static_cast<std::size_t>(config_.shard_index);
  std::vector<std::size_t> owned;
  for (std::size_t i = shard_index; i < plan.items.size(); i += shard_count)
    owned.push_back(i);

  // Same per-item execution as sweep(), but results flow to the sink (the
  // part writer) instead of the fabric: merging must happen in GLOBAL
  // canonical order across all shards, which only the absorb side can do.
  last_pool_stats_ = PoolStats{};
  parallel_consume(
      owned.size(), config_.threads,
      [&](std::size_t k) {
        const std::size_t i = owned[k];
        const WorkItem& item = plan.items[i];
        return sweep_chunk(annotator, targets, item.vp, item.begin, item.end,
                           item.chunk, sweep_index,
                           i >= plan.swap_at ? 1u : 0u);
      },
      [&](std::size_t k, SweepChunkResult&& result) {
        sink(owned[k], result);
      },
      metered ? &last_pool_stats_ : nullptr);
}

RoundStats Campaign::absorb_sweep(const ShardSource& source,
                                  std::size_t target_count, int round) {
  const bool metered = metrics_ != nullptr && metrics_->enabled();
  const MetricsRegistry::ScopedTimer sweep_timer(
      metered ? metrics_ : nullptr, "campaign.sweep");
  RoundStats stats;
  stats.targets = target_count;
  // The absorbed sweep occupies the same RNG-stream slot the probing sweep
  // would have, so later in-process sweeps (round 2, VPI detection) draw
  // from the same streams as a single-process run.
  sweep_counter_++;
  const std::uint64_t items = sweep_item_count(target_count);
  last_pool_stats_ = PoolStats{};
  SweepChunkResult result;
  for (std::uint64_t i = 0; i < items; ++i) {
    result = SweepChunkResult{};
    if (!source(result)) {
      throw std::runtime_error(
          "campaign: shard part stream ended after " + std::to_string(i) +
          " of " + std::to_string(items) + " work items");
    }
    merge_result(stats, result, round);
  }
  add_sweep_metrics(stats);
  return stats;
}

RoundStats Campaign::run_round1(const Annotator& annotator) {
  return sweep(annotator, round1_targets(), 1);
}

std::vector<Ipv4> Campaign::round1_targets() const {
  std::vector<Ipv4> targets;
  for (const Prefix& prefix : world_->probeable_slash24s())
    targets.push_back(prefix.network().next(1));
  return targets;
}

void Campaign::run_round1_shard(const Annotator& annotator,
                                const ShardSink& sink) {
  run_shard_sweep(annotator, round1_targets(), sink);
}

void Campaign::run_round2_shard(const Annotator& annotator,
                                const ShardSink& sink) {
  run_shard_sweep(annotator, expansion_targets(), sink);
}

RoundStats Campaign::absorb_round1(const ShardSource& source) {
  return absorb_sweep(source, round1_targets().size(), 1);
}

RoundStats Campaign::absorb_round2(const ShardSource& source) {
  return absorb_sweep(source, expansion_targets().size(), 2);
}

std::vector<Ipv4> Campaign::expansion_targets() const {
  // The /24s of every discovered CBI, all addresses except the ones already
  // swept (.1) and the CBI itself.
  std::unordered_set<std::uint32_t> slash24s;
  std::unordered_set<std::uint32_t> cbis;
  for (const InferredSegment& segment : fabric_.segments()) {
    slash24s.insert(segment.cbi.value() & 0xFFFFFF00u);
    cbis.insert(segment.cbi.value());
  }
  std::vector<std::uint32_t> ordered(slash24s.begin(), slash24s.end());
  std::sort(ordered.begin(), ordered.end());

  std::vector<Ipv4> targets;
  const int stride = std::max(1, config_.expansion_stride);
  for (const std::uint32_t network : ordered) {
    for (std::uint32_t host = 2; host <= 254;
         host += static_cast<std::uint32_t>(stride)) {
      const std::uint32_t address = network | host;
      if (cbis.count(address)) continue;
      targets.emplace_back(address);
    }
  }
  return targets;
}

RoundStats Campaign::run_round2(const Annotator& annotator) {
  return sweep(annotator, expansion_targets(), 2);
}

RoundStats Campaign::run_targets(const Annotator& annotator,
                                 const std::vector<Ipv4>& targets,
                                 int round) {
  return sweep(annotator, targets, round);
}

InterfaceTableRow Campaign::interface_stats(
    const std::unordered_set<std::uint32_t>& addresses,
    const Annotator& annotator) {
  InterfaceTableRow row;
  row.total = addresses.size();
  if (addresses.empty()) return row;
  std::size_t bgp = 0;
  std::size_t whois = 0;
  std::size_t ixp = 0;
  for (const std::uint32_t address : addresses) {
    const HopAnnotation a = annotator.annotate(Ipv4(address));
    if (a.ixp) {
      ++ixp;  // IXP membership takes precedence, as in Table 1
    } else if (a.source == AnnotationSource::kBgp) {
      ++bgp;
    } else if (a.source == AnnotationSource::kWhois) {
      ++whois;
    }
  }
  const double total = static_cast<double>(row.total);
  row.bgp_fraction = static_cast<double>(bgp) / total;
  row.whois_fraction = static_cast<double>(whois) / total;
  row.ixp_fraction = static_cast<double>(ixp) / total;
  return row;
}

std::size_t Campaign::peer_asn_count(const Annotator& annotator) const {
  std::unordered_set<std::uint32_t> asns;
  for (const InferredSegment& segment : fabric_.segments()) {
    const HopAnnotation a = annotator.annotate(segment.cbi);
    if (!a.asn.is_unknown()) asns.insert(a.asn.value);
  }
  return asns.size();
}

}  // namespace cloudmap
