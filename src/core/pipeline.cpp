#include "core/pipeline.h"

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

#include "infer/confidence.h"
#include "obs/emit.h"

namespace cloudmap {

namespace {

// The clouds whose sweeps §7.1 intersects with the subject's CBIs, probed
// in Table 4's order.
const std::vector<CloudProvider> kForeignClouds = {
    CloudProvider::kMicrosoft, CloudProvider::kGoogle, CloudProvider::kIbm,
    CloudProvider::kOracle};

}  // namespace

Pipeline::Pipeline(const World& world, PipelineOptions options)
    : world_(&world),
      options_(std::move(options)),
      metrics_(options_.metrics),
      annotator_(nullptr, nullptr, nullptr, nullptr) {
  metrics_.set_deterministic(options_.deterministic_metrics);
  bgp_ = std::make_unique<BgpSimulator>(world);

  const auto feeds = default_collector_feeds(world, options_.seed + 11);
  SnapshotOptions round1_options = options_.snapshot;
  round1_options.include_intermittent = false;
  snapshot1_ = build_snapshot(world, *bgp_, feeds, round1_options);
  SnapshotOptions round2_options = options_.snapshot;
  round2_options.include_intermittent = true;
  snapshot2_ = build_snapshot(world, *bgp_, feeds, round2_options);

  whois_ = WhoisRegistry::from_world(world);
  as2org_ = As2Org::from_world(world);
  peeringdb_ = PeeringDb::from_world(world, options_.peeringdb);
  dns_ = DnsRegistry::from_world(world, options_.dns);
  cones_ = customer_cone_slash24s(world);
  for (AsId id : world.cloud_ases[static_cast<int>(options_.subject)])
    subject_asns_.push_back(world.ases[id.value].asn);

  forwarder_ = std::make_unique<Forwarder>(world, *bgp_);
  annotator_ = Annotator(&snapshot1_, &whois_, &as2org_, &peeringdb_);

  CampaignConfig campaign_config = options_.campaign;
  campaign_config.seed ^= options_.seed;
  campaign_ =
      std::make_unique<Campaign>(world, *forwarder_, options_.subject,
                                 campaign_config);
  campaign_->set_metrics(&metrics_);
  rtts_ = std::make_unique<RttCampaign>(
      *forwarder_, campaign_->vantage_points(), options_.seed + 101);

  // Public-Internet vantage: a router of the first access network (a stand-
  // in for the paper's University of Oregon node).
  for (const AutonomousSystem& as : world.ases) {
    if (as.type == AsType::kAccess && !as.routers.empty()) {
      public_vp_ = VantagePoint::public_node(as.routers.front(), "public-vp");
      break;
    }
  }
}

Pipeline::~Pipeline() = default;

// ---------------------------------------------------------------------------
// The stage graph. One table row per stage: prerequisites and the body.
// run_until()/run_stage() own staging, memoization, and every metrics hook;
// the bodies below only do stage work and report stage-specific fields.
// ---------------------------------------------------------------------------

const std::array<Pipeline::StageDef, kStageCount>& Pipeline::stage_table() {
  using S = StageId;
  static const std::array<StageDef, kStageCount> table = {{
      {S::kRound1, {}, 0, &Pipeline::stage_round1},
      {S::kRound2, {S::kRound1}, 1, &Pipeline::stage_round2},
      {S::kHeuristics, {S::kRound2}, 1, &Pipeline::stage_heuristics},
      {S::kAliasVerification, {S::kHeuristics}, 1, &Pipeline::stage_alias},
      {S::kVpiDetection, {S::kAliasVerification}, 1, &Pipeline::stage_vpis},
      {S::kAnchors, {S::kAliasVerification}, 1, &Pipeline::stage_anchors},
      {S::kPinning, {S::kAnchors}, 1, &Pipeline::stage_pinning},
  }};
  return table;
}

void Pipeline::run_until(StageId stage) {
  const StageDef& def = stage_table()[stage_index(stage)];
  for (std::size_t d = 0; d < def.dep_count; ++d) run_until(def.deps[d]);
  run_stage(stage);
}

void Pipeline::run_stage(StageId stage) {
  const std::size_t i = stage_index(stage);
  if (reports_[i]) return;

  StageReport report;
  report.id = stage;
  report.threads = options_.campaign.threads;

  const BgpCacheStats bgp_before = bgp_->cache_stats();
  // lint: wall-clock-ok(stage wall_ms is observability only; zeroed under --deterministic-metrics)
  const auto started = std::chrono::steady_clock::now();

  (this->*stage_table()[i].body)(report);

  if (metrics_.enabled() && !options_.deterministic_metrics) {
    // lint: wall-clock-ok(stage wall_ms is observability only; zeroed under --deterministic-metrics)
    const auto elapsed = std::chrono::steady_clock::now() - started;
    report.wall_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        1e6;
  }
  const BgpCacheStats bgp_after = bgp_->cache_stats();
  report.bgp_cache_hits = bgp_after.hits - bgp_before.hits;
  report.bgp_cache_misses = bgp_after.misses - bgp_before.misses;
  if (options_.deterministic_metrics) {
    // Execution-environment fields: how many workers drained the queue, how
    // the shared BGP route cache happened to interleave, what the thread
    // knob was. None of them affect results, but all of them land in the
    // snapshot's stage-metrics section — zero them so a snapshot's bytes
    // are identical across thread counts and across the sharded-campaign
    // merge path (absorbing shards does no probing and no BGP traffic).
    report.threads = 0;
    report.workers = 0;
    report.worker_utilization = 0.0;
    report.bgp_cache_hits = 0;
    report.bgp_cache_misses = 0;
  }

  const std::string prefix = std::string("stage.") + to_string(stage);
  metrics_.add(prefix + ".runs", 1);
  if (metrics_.enabled()) {
    metrics_.add(prefix + ".bgp_cache_hits", report.bgp_cache_hits);
    metrics_.add(prefix + ".bgp_cache_misses", report.bgp_cache_misses);
    metrics_.set_gauge(prefix + ".wall_ms", report.wall_ms);
    if (report.probes > 0) metrics_.add(prefix + ".probes", report.probes);
  }

  reports_[i] = std::move(report);
}

void Pipeline::set_absorb_sources(Campaign::ShardSource round1,
                                  Campaign::ShardSource round2) {
  absorb_round1_ = std::move(round1);
  absorb_round2_ = std::move(round2);
}

void Pipeline::stage_round1(StageReport& report) {
  annotator_.set_snapshot(&snapshot1_);
  round1_ = absorb_round1_ ? campaign_->absorb_round1(absorb_round1_)
                           : campaign_->run_round1(annotator_);
  report.targets = round1_->targets;
  report.traceroutes = round1_->traceroutes;
  report.probes = round1_->probes;
  report.retries = round1_->retries;
  report.backoff_waits = round1_->backoff_waits;
  report.backoff_ticks = round1_->backoff_ticks;
  report.recovered_targets = round1_->recovered_targets;
  report.workers = campaign_->last_pool_stats().workers;
  report.worker_utilization = campaign_->last_pool_stats().utilization();
}

void Pipeline::stage_round2(StageReport& report) {
  // §4.2: expansion probing, annotated against the fresher snapshot.
  annotator_.set_snapshot(&snapshot2_);
  round2_ = absorb_round2_ ? campaign_->absorb_round2(absorb_round2_)
                           : campaign_->run_round2(annotator_);
  report.targets = round2_->targets;
  report.traceroutes = round2_->traceroutes;
  report.probes = round2_->probes;
  report.retries = round2_->retries;
  report.backoff_waits = round2_->backoff_waits;
  report.backoff_ticks = round2_->backoff_ticks;
  report.recovered_targets = round2_->recovered_targets;
  report.workers = campaign_->last_pool_stats().workers;
  report.worker_utilization = campaign_->last_pool_stats().utilization();
}

void Pipeline::stage_heuristics(StageReport& report) {
  annotator_.set_snapshot(&snapshot2_);
  HeuristicVerifier verifier(*forwarder_, annotator_,
                             campaign_->subject_org(), public_vp_);
  heuristics_ = verifier.apply(campaign_->fabric());
  const HeuristicCounts& h = *heuristics_;
  report.tallies = {
      {"cum_hybrid_abis", static_cast<double>(h.cum_hybrid_abis)},
      {"cum_ixp_abis", static_cast<double>(h.cum_ixp_abis)},
      {"cum_reachable_abis", static_cast<double>(h.cum_reachable_abis)},
      {"hybrid_abis", static_cast<double>(h.hybrid_abis)},
      {"ixp_abis", static_cast<double>(h.ixp_abis)},
      {"reachable_abis", static_cast<double>(h.reachable_abis)},
      {"shifts_applied", static_cast<double>(h.shifts_applied)},
      {"total_abis", static_cast<double>(h.total_abis)},
      {"total_cbis", static_cast<double>(h.total_cbis)},
      {"unconfirmed_abis", static_cast<double>(h.unconfirmed_abis)},
  };
}

void Pipeline::stage_alias(StageReport& report) {
  AliasOptions alias_options = options_.alias;
  alias_options.seed ^= options_.seed;
  alias_verifier_ = std::make_unique<AliasVerifier>(
      *forwarder_, annotator_, campaign_->subject_org(), alias_options);
  alias_stats_ = alias_verifier_->apply(campaign_->fabric(),
                                        campaign_->vantage_points());
  const AliasVerifyStats& a = *alias_stats_;
  report.tallies = {
      {"abi_to_cbi", static_cast<double>(a.abi_to_cbi)},
      {"abis_in_sets", static_cast<double>(a.abis_in_sets)},
      {"cbi_to_abi", static_cast<double>(a.cbi_to_abi)},
      {"cbi_to_cbi", static_cast<double>(a.cbi_to_cbi)},
      {"cbis_in_sets", static_cast<double>(a.cbis_in_sets)},
      {"interfaces_in_sets", static_cast<double>(a.interfaces_in_sets)},
      {"majority_fraction", a.majority_fraction},
      {"sets", static_cast<double>(a.sets)},
      {"unanimous_fraction", a.unanimous_fraction},
  };
}

void Pipeline::stage_vpis(StageReport& report) {
  VpiDetector detector(*world_, *forwarder_, annotator_, options_.seed + 31,
                       options_.campaign.threads);
  detector.set_metrics(&metrics_);
  vpis_ = detector.detect(*campaign_, kForeignClouds);
  const VpiDetector::Telemetry& telemetry = detector.telemetry();
  report.traceroutes = telemetry.traceroutes;
  report.probes = telemetry.probes;
  report.targets =
      static_cast<std::uint64_t>(vpis_->target_pool) *
      telemetry.foreign_campaigns;
  report.workers = telemetry.pool.workers;
  report.worker_utilization = telemetry.pool.utilization();
  report.tallies = {
      {"subject_cbis", static_cast<double>(vpis_->subject_cbis)},
      {"target_pool", static_cast<double>(vpis_->target_pool)},
      {"vpi_cbis", static_cast<double>(vpis_->vpi_cbis.size())},
  };
  for (const VpiCloudResult& cloud : vpis_->per_cloud) {
    report.tallies.emplace_back(
        std::string("overlap.") + to_string(cloud.provider),
        static_cast<double>(cloud.overlap));
  }
}

void Pipeline::stage_anchors(StageReport& report) {
  anchors_ = ensure_pinner().identify_anchors();
  const AnchorSet& a = *anchors_;
  report.tallies = {
      {"anchors", static_cast<double>(a.anchors.size())},
      {"conflict_alias", static_cast<double>(a.conflict_alias)},
      {"conflict_evidence", static_cast<double>(a.conflict_evidence)},
      {"dns", static_cast<double>(a.dns)},
      {"dns_rtt_excluded", static_cast<double>(a.dns_rtt_excluded)},
      {"ixp", static_cast<double>(a.ixp)},
      {"ixp_multi_metro_excluded",
       static_cast<double>(a.ixp_multi_metro_excluded)},
      {"ixp_remote_excluded", static_cast<double>(a.ixp_remote_excluded)},
      {"metro_footprint", static_cast<double>(a.metro_footprint)},
      {"multi_evidence", static_cast<double>(a.multi_evidence)},
      {"native", static_cast<double>(a.native)},
  };
}

void Pipeline::stage_pinning(StageReport& report) {
  pinning_ = ensure_pinner().propagate(*anchors_);
  const PinningResult& p = *pinning_;
  report.tallies = {
      {"pinned", static_cast<double>(p.pins.size())},
      {"pinned_by_alias", static_cast<double>(p.pinned_by_alias)},
      {"pinned_by_rtt", static_cast<double>(p.pinned_by_rtt)},
      {"propagation_conflicts", static_cast<double>(p.propagation_conflicts)},
      {"regional", static_cast<double>(p.regional.size())},
      {"regional_by_ratio", static_cast<double>(p.regional_by_ratio)},
      {"regional_single_visibility",
       static_cast<double>(p.regional_single_visibility)},
      {"rounds", static_cast<double>(p.rounds)},
  };
}

void Pipeline::run_all() {
  run_until(StageId::kVpiDetection);
  run_until(StageId::kPinning);
}

std::vector<StageReport> Pipeline::reports() const {
  std::vector<StageReport> out;
  for (const StageId stage : all_stages()) {
    if (const StageReport* report = this->report(stage))
      out.push_back(*report);
  }
  return out;
}

void Pipeline::write_metrics_json(std::ostream& out) const {
  MetricsMeta meta;
  meta.seed = options_.seed;
  meta.threads = options_.campaign.threads;
  meta.subject = to_string(options_.subject);
  cloudmap::write_metrics_json(out, meta, reports(), metrics_);
}

void Pipeline::write_metrics_csv(std::ostream& out) const {
  cloudmap::write_metrics_csv(out, reports());
}

// ---------------------------------------------------------------------------
// Artifact accessors (each runs its prerequisites on demand).
// ---------------------------------------------------------------------------

const RoundStats& Pipeline::round1() {
  run_until(StageId::kRound1);
  return *round1_;
}
const RoundStats& Pipeline::round2() {
  run_until(StageId::kRound2);
  return *round2_;
}
const HeuristicCounts& Pipeline::heuristics() {
  run_until(StageId::kHeuristics);
  return *heuristics_;
}
const AliasVerifyStats& Pipeline::alias_verification() {
  run_until(StageId::kAliasVerification);
  return *alias_stats_;
}
const VpiDetectionResult& Pipeline::vpis() {
  run_until(StageId::kVpiDetection);
  return *vpis_;
}
const AnchorSet& Pipeline::anchors() {
  run_until(StageId::kAnchors);
  return *anchors_;
}
const PinningResult& Pipeline::pinning() {
  run_until(StageId::kPinning);
  return *pinning_;
}

const AliasSets& Pipeline::alias_sets() {
  run_until(StageId::kAliasVerification);
  return alias_verifier_->sets();
}

const RunSnapshot& Pipeline::run_snapshot() {
  if (run_snapshot_) return *run_snapshot_;
  run_all();
  annotator_.set_snapshot(&snapshot2_);
  const PeeringClassifier cls = classifier();

  RunSnapshot out;
  out.seed = options_.seed;
  // The thread knob is execution environment, not a result — blank it under
  // deterministic metrics so snapshots cmp equal across thread counts.
  out.threads = options_.deterministic_metrics ? 0 : options_.campaign.threads;
  out.subject = static_cast<std::uint8_t>(options_.subject);
  out.hazard_profile = options_.hazard_label;

  out.segments.reserve(campaign_->fabric().segments().size());
  for (const InferredSegment& seg : campaign_->fabric().segments()) {
    SnapshotSegment snap;
    snap.abi = seg.abi;
    snap.cbi = seg.cbi;
    snap.prior_abi = seg.prior_abi;
    snap.post_cbi = seg.post_cbi;
    snap.first_round = seg.first_round;
    snap.confirmation = seg.confirmation;
    snap.shifted = seg.shifted;
    snap.owner_hint = seg.owner_hint;
    snap.ixp = annotator_.annotate(seg.cbi).ixp;
    snap.vpi = vpis_->vpi_cbis.count(seg.cbi.value()) > 0;
    snap.peer_asn = cls.segment_owner(seg);
    if (!snap.peer_asn.is_unknown())
      snap.peer_org = annotator_.org_of_asn(snap.peer_asn);
    if (const auto group = cls.classify(seg))
      snap.group = static_cast<std::uint8_t>(*group);
    const SegmentConfidence conf = segment_confidence(seg);
    snap.observations = conf.observations;
    snap.rounds_mask = seg.rounds_mask;
    snap.hop_density = conf.hop_density;
    snap.confidence = conf.score;
    snap.regions = region_ids(seg.regions);
    snap.dest_slash24s = seg.dest_slash24s;
    out.segments.push_back(std::move(snap));
  }

  out.pins.reserve(pinning_->pins.size());
  for (const auto& [address, pin] : pinning_->pins) {
    SnapshotPin snap;
    snap.address = address;
    snap.metro = pin.metro.value;
    snap.rule = static_cast<std::uint8_t>(pin.rule);
    snap.anchor_source = static_cast<std::uint8_t>(pin.anchor_source);
    snap.round = pin.round;
    out.pins.push_back(snap);
  }
  out.regional.assign(pinning_->regional.begin(), pinning_->regional.end());

  out.alias_sets.reserve(alias_verifier_->sets().sets.size());
  for (const std::vector<Ipv4>& set : alias_verifier_->sets().sets) {
    std::vector<std::uint32_t> members;
    members.reserve(set.size());
    for (const Ipv4 member : set) members.push_back(member.value());
    out.alias_sets.push_back(std::move(members));
  }

  out.stage_reports = reports();
  canonicalize(out);
  run_snapshot_ = std::move(out);
  return *run_snapshot_;
}

Pinner& Pipeline::ensure_pinner() {
  run_until(StageId::kAliasVerification);
  if (!pinner_) {
    Pinner::Inputs inputs;
    inputs.fabric = &campaign_->fabric();
    inputs.annotator = &annotator_;
    inputs.peeringdb = &peeringdb_;
    inputs.dns = &dns_;
    inputs.aliases = &alias_verifier_->sets();
    inputs.world = world_;
    inputs.rtts = rtts_.get();
    inputs.vps = &campaign_->vantage_points();
    pinner_ = std::make_unique<Pinner>(inputs, options_.pinning);
  }
  return *pinner_;
}

const Pinner& Pipeline::pinner() { return ensure_pinner(); }

Pinner& Pipeline::mutable_pinner() { return ensure_pinner(); }

PeeringClassifier Pipeline::classifier() {
  const std::unordered_set<std::uint32_t>* vpi_set =
      vpis_ ? &vpis_->vpi_cbis : nullptr;
  return PeeringClassifier(&annotator_, &snapshot2_, subject_asns_, vpi_set);
}

std::uint64_t Pipeline::cone_of(Asn asn) const {
  const auto it = world_->as_by_asn.find(asn.value);
  if (it == world_->as_by_asn.end()) return 0;
  return cones_[it->second.value];
}

InferenceScore Pipeline::score() const {
  InferenceScore out;
  std::unordered_set<std::uint32_t> true_cbis;
  for (const GroundTruthInterconnect& ic : world_->interconnects) {
    if (ic.cloud != options_.subject) continue;
    ++out.true_interconnects;
    if (ic.private_address) continue;
    ++out.discoverable_interconnects;
    true_cbis.insert(
        world_->interfaces[ic.client_interface.value].address.value());
  }
  // Client border routers of the subject's interconnects.
  std::unordered_set<std::uint32_t> client_border_routers;
  for (const GroundTruthInterconnect& ic : world_->interconnects) {
    if (ic.cloud != options_.subject || ic.private_address) continue;
    client_border_routers.insert(
        world_->interfaces[ic.client_interface.value].router.value);
  }

  const auto inferred = campaign_->fabric().unique_cbis();
  out.inferred_cbis = inferred.size();
  std::unordered_set<std::uint32_t> matched;
  std::unordered_set<std::uint32_t> matched_routers;
  for (const std::uint32_t cbi : inferred) {
    if (true_cbis.count(cbi)) {
      ++out.inferred_true_cbis;
      matched.insert(cbi);
    }
    const InterfaceId iface = world_->find_interface(Ipv4(cbi));
    if (iface.valid()) {
      const std::uint32_t router = world_->interface(iface).router.value;
      if (client_border_routers.count(router)) {
        ++out.inferred_client_router_cbis;
        matched_routers.insert(router);
      }
    }
  }
  // Discovered interconnects: planted client interfaces we actually saw
  // (several interconnects can share a client address on a shared port),
  // and — looser — client border routers observed through any interface.
  for (const GroundTruthInterconnect& ic : world_->interconnects) {
    if (ic.cloud != options_.subject || ic.private_address) continue;
    const Interface& client = world_->interfaces[ic.client_interface.value];
    if (matched.count(client.address.value())) ++out.discovered;
    if (matched_routers.count(client.router.value))
      ++out.discovered_router_level;
  }
  return out;
}

std::unordered_set<std::uint32_t> Pipeline::peer_asns() {
  run_until(StageId::kAliasVerification);
  std::unordered_set<std::uint32_t> out;
  const PeeringClassifier cls = classifier();
  for (const InferredSegment& segment : campaign_->fabric().segments()) {
    const Asn owner = cls.segment_owner(segment);
    if (!owner.is_unknown()) out.insert(owner.value);
  }
  return out;
}

}  // namespace cloudmap
