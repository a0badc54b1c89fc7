// The one-call facade over the whole reproduction: builds the measurement
// substrate views (BGP snapshots, WHOIS, AS2ORG, PeeringDB, DNS), runs the
// two traceroute rounds, the §5 verification, the §6 pinning, and the §7.1
// VPI detection, and exposes the analysis products each bench/table needs.
//
// Execution is organized as a table-driven stage graph keyed by StageId
// (obs/stage_report.h). Stages are lazy and memoized: run_until(stage) — or
// any artifact accessor — runs every prerequisite exactly once. Each stage
// that runs leaves a StageReport (wall time, probe counts, BGP route-cache
// traffic, worker utilization, heuristic tallies) behind, and the whole run
// can be emitted as a JSON/CSV metrics artifact. Metrics are observational
// only: results are bit-identical with metrics on or off, at any thread
// count (enforced by the ParallelCampaign tests).
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <optional>

#include "alias/midar.h"
#include "analysis/dns_evidence.h"
#include "analysis/features.h"
#include "analysis/graph.h"
#include "analysis/grouping.h"
#include "bdrmap/bdrmap.h"
#include "controlplane/as2org.h"
#include "controlplane/bgp.h"
#include "controlplane/dns.h"
#include "controlplane/peeringdb.h"
#include "controlplane/whois.h"
#include "dataplane/forwarding.h"
#include "dataplane/ping.h"
#include "infer/alias_verify.h"
#include "infer/campaign.h"
#include "infer/heuristics.h"
#include "obs/metrics.h"
#include "obs/stage_report.h"
#include "pinning/evaluate.h"
#include "pinning/pinning.h"
#include "query/snapshot.h"
#include "topology/generator.h"
#include "vpi/detector.h"

namespace cloudmap {

struct PipelineOptions {
  CloudProvider subject = CloudProvider::kAmazon;
  std::uint64_t seed = 1;
  // campaign.threads also governs the VPI detector's foreign-cloud sweeps;
  // every thread count produces bit-identical results.
  CampaignConfig campaign;
  AliasOptions alias;
  PinningOptions pinning;
  SnapshotOptions snapshot;
  DnsOptions dns;
  PeeringDbOptions peeringdb;
  // Collect per-stage metrics (wall clocks, registry counters, pool stats).
  // Purely observational: inference outputs are identical either way.
  bool metrics = true;
  // Zero every wall-clock-derived metrics field (stage wall_ms, worker
  // utilization, timer totals) so the metrics artifact — and with it the
  // binary snapshot's stage-metrics section — is byte-identical across
  // runs. Counters and structural fields are untouched. CI uses this to
  // assert snapshot identity with `cmp` instead of result-level diffing.
  bool deterministic_metrics = false;
  // Hazard provenance stamped into the RunSnapshot (the canonical
  // HazardProfile spec string; scenario/hazard.h). Informational only — the
  // hazards themselves ride on campaign.traceroute.hazards and on the world
  // passed in. Empty ⇒ the snapshot carries no hazard section and keeps its
  // pre-hazard bytes.
  std::string hazard_label;
};

// Ground-truth scoring of the inferred fabric (only possible because the
// substrate is synthetic; §9 of the paper laments the lack of exactly this).
struct InferenceScore {
  std::size_t true_interconnects = 0;        // all planted, subject cloud
  std::size_t discoverable_interconnects = 0;  // excl. private-address VPIs
  std::size_t discovered = 0;                // exact client-CBI matches
  std::size_t discovered_router_level = 0;   // client border router observed
  std::size_t inferred_cbis = 0;
  std::size_t inferred_true_cbis = 0;        // inferred CBIs matching truth
  std::size_t inferred_client_router_cbis = 0;  // CBI on some client border
  double recall() const {
    return discoverable_interconnects == 0
               ? 0.0
               : static_cast<double>(discovered) /
                     static_cast<double>(discoverable_interconnects);
  }
  // Router-level recall: the interconnect's client border router was seen as
  // a CBI even if through a different interface (Fig. 2 shifts the paper
  // could not always correct either).
  double router_recall() const {
    return discoverable_interconnects == 0
               ? 0.0
               : static_cast<double>(discovered_router_level) /
                     static_cast<double>(discoverable_interconnects);
  }
  double precision() const {
    return inferred_cbis == 0 ? 0.0
                              : static_cast<double>(inferred_true_cbis) /
                                    static_cast<double>(inferred_cbis);
  }
  // Router-level precision: fraction of inferred CBIs on true client border
  // routers (as opposed to deeper client-internal or wrong-side interfaces).
  double router_precision() const {
    return inferred_cbis == 0
               ? 0.0
               : static_cast<double>(inferred_client_router_cbis) /
                     static_cast<double>(inferred_cbis);
  }
};

class Pipeline {
 public:
  // The world must outlive the pipeline.
  Pipeline(const World& world, PipelineOptions options = {});
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // --- staged execution (table-driven, each stage memoized) ---
  // Run `stage` and every prerequisite, each exactly once; repeated calls
  // are no-ops.
  void run_until(StageId stage);
  void run_all();
  bool stage_ran(StageId stage) const {
    return reports_[stage_index(stage)].has_value();
  }
  // The stage's accounting, or nullptr if it has not run yet.
  const StageReport* report(StageId stage) const {
    const auto& slot = reports_[stage_index(stage)];
    return slot ? &*slot : nullptr;
  }
  // Reports of every stage that ran, in canonical order.
  std::vector<StageReport> reports() const;

  // --- observability ---
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  // Emit the metrics artifact for the stages run so far (schema documented
  // in obs/emit.h; validated in CI against tools/metrics_schema.json).
  void write_metrics_json(std::ostream& out) const;
  void write_metrics_csv(std::ostream& out) const;

  // --- stage artifacts (running prerequisites on demand) ---
  const RoundStats& round1();
  const RoundStats& round2();
  const HeuristicCounts& heuristics();          // §5.1
  const AliasVerifyStats& alias_verification(); // §5.2
  const VpiDetectionResult& vpis();             // §7.1
  const AnchorSet& anchors();                   // §6.1
  const PinningResult& pinning();               // §6.1
  const AliasSets& alias_sets();
  // The full-run snapshot artifact: every stage is run, then the annotated
  // fabric, pins, alias sets, and stage metrics are captured as one
  // canonical RunSnapshot (persisted via io/snapshot.h, served via
  // query/). Memoized like every other stage artifact.
  const RunSnapshot& run_snapshot();

  // Sharded-campaign merge mode: when sources are set, the round-1/round-2
  // stages absorb the merged part streams (io/shard.h) instead of probing —
  // the fabric, stats, and RNG-stream bookkeeping come out exactly as if
  // this process had probed everything itself, so the rest of the pipeline
  // (heuristics, verification, VPI detection, pinning, snapshot) runs
  // unchanged and the final snapshot is byte-identical to a single-process
  // run under --deterministic-metrics. Must be called before any stage runs.
  void set_absorb_sources(Campaign::ShardSource round1,
                          Campaign::ShardSource round2);

  // --- components (prepared on construction) ---
  // Accessors are const; mutation is explicit via the mutable_* variants so
  // benches cannot silently perturb a memoized stage.
  const World& world() const noexcept { return *world_; }
  const Forwarder& forwarder() const noexcept { return *forwarder_; }
  const BgpSimulator& bgp() const noexcept { return *bgp_; }
  const BgpSnapshot& snapshot_round1() const noexcept { return snapshot1_; }
  const BgpSnapshot& snapshot_round2() const noexcept { return snapshot2_; }
  const WhoisRegistry& whois() const noexcept { return whois_; }
  const As2Org& as2org() const noexcept { return as2org_; }
  const PeeringDb& peeringdb() const noexcept { return peeringdb_; }
  const DnsRegistry& dns() const noexcept { return dns_; }
  const Campaign& campaign() const noexcept { return *campaign_; }
  Campaign& mutable_campaign() { return *campaign_; }
  const Annotator& annotator() const noexcept { return annotator_; }
  const RttCampaign& rtts() const noexcept { return *rtts_; }
  RttCampaign& mutable_rtts() { return *rtts_; }
  const VantagePoint& public_vantage() const noexcept { return public_vp_; }
  const std::vector<Asn>& subject_asns() const { return subject_asns_; }

  // The pinner is built lazily on top of the §5.2 alias sets, so both
  // accessors run prerequisites; only mutable_pinner() hands out a reference
  // that can re-measure RTTs or re-run pinning stages.
  const Pinner& pinner();
  Pinner& mutable_pinner();

  // Classifier over the verified fabric (valid once vpis() has run; before
  // that the VPI axis is empty).
  PeeringClassifier classifier();

  // Customer-cone /24 size for an ASN (synthetic CAIDA AS-rank analogue).
  std::uint64_t cone_of(Asn asn) const;

  // Ground-truth scoring of the current fabric.
  InferenceScore score() const;

  // The unique peer ASNs of the verified fabric.
  std::unordered_set<std::uint32_t> peer_asns();

  const PipelineOptions& options() const noexcept { return options_; }

 private:
  // One row of the stage graph: prerequisites plus the stage body. Staging,
  // memoization, and metrics hooks all live in run_until(); bodies only do
  // the stage's work and fill in stage-specific report fields.
  struct StageDef {
    StageId id;
    std::array<StageId, 2> deps;
    std::size_t dep_count;
    void (Pipeline::*body)(StageReport& report);
  };
  static const std::array<StageDef, kStageCount>& stage_table();

  void run_stage(StageId stage);
  void stage_round1(StageReport& report);
  void stage_round2(StageReport& report);
  void stage_heuristics(StageReport& report);
  void stage_alias(StageReport& report);
  void stage_vpis(StageReport& report);
  void stage_anchors(StageReport& report);
  void stage_pinning(StageReport& report);
  Pinner& ensure_pinner();

  const World* world_;
  PipelineOptions options_;
  MetricsRegistry metrics_;

  // Control-plane views.
  std::unique_ptr<BgpSimulator> bgp_;
  BgpSnapshot snapshot1_;
  BgpSnapshot snapshot2_;
  WhoisRegistry whois_;
  As2Org as2org_;
  PeeringDb peeringdb_;
  DnsRegistry dns_;
  std::vector<std::uint64_t> cones_;
  std::vector<Asn> subject_asns_;

  // Data plane.
  std::unique_ptr<Forwarder> forwarder_;
  std::unique_ptr<Campaign> campaign_;
  std::unique_ptr<RttCampaign> rtts_;
  VantagePoint public_vp_;

  Annotator annotator_;

  // Merge-mode part streams (empty = probe in-process as usual).
  Campaign::ShardSource absorb_round1_;
  Campaign::ShardSource absorb_round2_;

  // Stage artifacts; reports_ doubles as the memoization state (a stage ran
  // iff its report slot is filled).
  std::array<std::optional<StageReport>, kStageCount> reports_;
  std::optional<RoundStats> round1_;
  std::optional<RoundStats> round2_;
  std::optional<HeuristicCounts> heuristics_;
  std::unique_ptr<AliasVerifier> alias_verifier_;
  std::optional<AliasVerifyStats> alias_stats_;
  std::optional<VpiDetectionResult> vpis_;
  std::unique_ptr<Pinner> pinner_;
  std::optional<AnchorSet> anchors_;
  std::optional<PinningResult> pinning_;
  std::optional<RunSnapshot> run_snapshot_;
};

}  // namespace cloudmap
