// cloudmap_cli — an operator-style command-line front end that separates
// collection from analysis, the way a real multi-day campaign works:
//
//   cloudmap_cli worldgen [seed]          summarize the synthetic world
//   cloudmap_cli campaign [seed] [file]   run both rounds, save the fabric
//   cloudmap_cli analyze  [seed] [file]   load a saved fabric and report
//   cloudmap_cli all      [seed]          everything in one process
//   cloudmap_cli snapshot [seed] [file]   full pipeline → binary snapshot
//   cloudmap_cli query FILE ACTION [ARG]  serve queries from a snapshot
//                                         (counts | peers [asn] | metro N |
//                                          vpis | lookup IP | confidence |
//                                          resave OUT)
//   cloudmap_cli remote HOST:PORT ACTION [ARG]
//                                         same query actions against a
//                                         running cloudmap_serve daemon,
//                                         plus swap PATH | stats | ping |
//                                         stop
//   cloudmap_cli campaign SEED PREFIX --shard I/N [--shard-round R]
//                                         run only shard I of an N-way
//                                         campaign round, streaming its
//                                         share of the sweep to
//                                         PREFIX.r<R>.s<I>of<N>.part (round
//                                         2 needs all round-1 parts)
//   cloudmap_cli merge-shards SEED PREFIX N OUT.snap
//                                         absorb every shard's parts, run
//                                         the remaining stages, write the
//                                         snapshot — byte-identical to a
//                                         single-process `snapshot` run
//                                         under --deterministic-metrics
//   cloudmap_cli diff A B                 longitudinal snapshot comparison
//   cloudmap_cli hazards list             presets + hazard kinds
//   cloudmap_cli hazards describe P       canonical spec of a profile
//   cloudmap_cli hazards score [P ...]    degradation scorecard per profile
//                                         [--json PATH] [--out-dir DIR]
//
// Local and remote queries build the same QueryRequest and print through
// the same code; the only difference is whether execute() runs in-process
// or across the serve wire protocol.
//
// Shared flags (parsed by cloudmap::options_from_env_and_args, so the CLI,
// the examples, and the benches agree on validation and precedence):
//   --threads N          campaign worker count (0 = one per hardware thread,
//                        the default; results are identical for every value)
//   --metrics-json PATH  write the per-stage metrics artifact after the run
//                        (campaign/all run the FULL pipeline — VPI detection
//                        and pinning included — so the artifact covers every
//                        stage; the saved fabric is unaffected). For `query`
//                        the stage section comes from the snapshot and the
//                        counters section carries the query.* counters.
//   --metrics-csv PATH   same accounting as flat stage,metric,value rows
//   --no-metrics         disable metrics collection entirely
//   --snapshot PATH      also write the binary run snapshot (campaign/all)
//   --retry-budget N     re-probe failed targets up to N times (default 0)
//   --retry-backoff T    base backoff in simulated probe ticks (default 64)
//   --response-scale X   scale router response probabilities by X in [0,1]
//                        (loss injection for campaign experiments)
//   --host-response X    override the target-host response probability
//   --deterministic-metrics  zero wall-clock metrics fields so artifacts and
//                        snapshots are byte-identical across runs
//   --min-confidence X   filter query listings to segments scoring >= X
//   --hazard-profile P   apply an adversarial hazard profile (preset name or
//                        spec like "loss:0.2,mpls:0.3") to the world and the
//                        campaign; churn profiles only take effect under
//                        `hazards score` (they emit world sequences)
//   --shard I/N          campaign only: run shard I of an N-way campaign
//                        (0 <= I < N; N = 1 still writes a part file)
//   --shard-round R      which round a --shard invocation executes (1 or 2)
//   CLOUDMAP_THREADS / CLOUDMAP_METRICS_JSON / CLOUDMAP_SNAPSHOT /
//   CLOUDMAP_RETRY_BUDGET / CLOUDMAP_DETERMINISTIC_METRICS env equivalents
//
// With no arguments it runs `all 7`.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/graph.h"
#include "analysis/grouping.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "io/serialize.h"
#include "io/shard.h"
#include "io/snapshot.h"
#include "obs/emit.h"
#include "query/diff.h"
#include "query/engine.h"
#include "query/request.h"
#include "scenario/score.h"
#include "scenario/world_hazards.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace cloudmap;

namespace {

// The hazard master seed is the world seed: `--hazard-profile P SEED` is a
// complete replay key (profile + seed => byte-identical snapshot).
World make_world(std::uint64_t seed, const HazardProfile& hazards) {
  GeneratorConfig config = GeneratorConfig::small();
  config.seed = seed;
  World world = generate_world(config);
  if (!hazards.empty()) apply_world_hazards(world, hazards, seed);
  return world;
}

int cmd_worldgen(std::uint64_t seed, const FrontendOptions& front) {
  const World world = make_world(seed, front.hazard_profile);
  std::printf("world (seed %llu)\n", static_cast<unsigned long long>(seed));
  std::printf("  metros        %zu\n", world.metros.size());
  std::printf("  colos         %zu\n", world.colos.size());
  std::printf("  IXPs          %zu\n", world.ixps.size());
  std::printf("  regions       %zu\n", world.regions.size());
  std::printf("  ASes          %zu\n", world.ases.size());
  std::printf("  routers       %zu\n", world.routers.size());
  std::printf("  interfaces    %zu\n", world.interfaces.size());
  std::printf("  links         %zu\n", world.links.size());
  std::printf("  interconnects %zu\n", world.interconnects.size());
  std::size_t by_kind[3] = {0, 0, 0};
  std::size_t private_vpis = 0;
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    ++by_kind[static_cast<int>(ic.kind)];
    if (ic.private_address) ++private_vpis;
  }
  std::printf("    public IXP %zu, cross-connect %zu, VPI %zu "
              "(%zu private-address)\n",
              by_kind[0], by_kind[1], by_kind[2], private_vpis);
  const std::string issue = world.validate();
  std::printf("  validate: %s\n", issue.empty() ? "ok" : issue.c_str());
  return issue.empty() ? 0 : 1;
}

// Write the metrics artifacts the front end asked for; 0 on success.
int emit_metrics(const Pipeline& pipeline, const FrontendOptions& front) {
  if (!front.metrics_json.empty()) {
    std::ofstream out(front.metrics_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", front.metrics_json.c_str());
      return 1;
    }
    pipeline.write_metrics_json(out);
    std::printf("metrics: wrote %s (%zu stages)\n",
                front.metrics_json.c_str(), pipeline.reports().size());
  }
  if (!front.metrics_csv.empty()) {
    std::ofstream out(front.metrics_csv);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", front.metrics_csv.c_str());
      return 1;
    }
    pipeline.write_metrics_csv(out);
    std::printf("metrics: wrote %s\n", front.metrics_csv.c_str());
  }
  return 0;
}

// Canonical configuration key of a campaign run: every knob that changes
// campaign RESULTS (never execution-environment knobs like --threads or
// --shard). All shard and merge invocations of one campaign must hash to
// the same digest, or the merge refuses the parts.
std::string shard_campaign_key(std::uint64_t seed,
                               const FrontendOptions& front) {
  const CampaignConfig& campaign = front.pipeline.campaign;
  std::string key = "world:" + std::to_string(seed);
  key += "|seed:" + std::to_string(front.pipeline.seed);
  key += "|subject:" +
         std::to_string(static_cast<int>(front.pipeline.subject));
  key += "|stride:" + std::to_string(campaign.expansion_stride);
  key += "|retry:" + std::to_string(campaign.reprobe.budget) + ":" +
         std::to_string(campaign.reprobe.backoff_base_ticks);
  key += "|response:" + std::to_string(campaign.traceroute.response_scale) +
         ":" + std::to_string(campaign.traceroute.host_response);
  key += "|hazards:" + front.hazard_profile.spec_string();
  return key;
}

// One shard of the distributed campaign: run only this process's share of
// one round's canonical work items and stream the results to
// PREFIX.r<round>.s<i>of<n>.part. Round 2 first absorbs the merged round-1
// parts (identically in every shard), because its expansion targets derive
// from the round-1 fabric.
int cmd_campaign_shard(std::uint64_t seed, const std::string& prefix,
                       const FrontendOptions& front) {
  const World world = make_world(seed, front.hazard_profile);
  Pipeline pipeline(world, front.pipeline);
  Campaign& campaign = pipeline.mutable_campaign();
  const int index = front.pipeline.campaign.shard_index;
  const int count = front.pipeline.campaign.shard_count;
  const int round = front.shard_round;
  const std::uint64_t digest = shard_digest(shard_campaign_key(seed, front));
  std::string error;

  ShardMerge round1_parts;
  if (round == 2) {
    std::vector<std::string> paths;
    for (int s = 0; s < count; ++s)
      paths.push_back(shard_part_path(prefix, 1, s, count));
    if (!round1_parts.open(paths, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (round1_parts.header().config_digest != digest) {
      std::fprintf(stderr,
                   "round-1 parts were produced under a different "
                   "configuration (digest mismatch); re-run round 1\n");
      return 1;
    }
  }

  try {
    if (round == 2)
      campaign.absorb_round1([&round1_parts](Campaign::SweepChunkResult& r) {
        return round1_parts.next(r);
      });

    Annotator annotator = pipeline.annotator();
    annotator.set_snapshot(round == 1 ? &pipeline.snapshot_round1()
                                      : &pipeline.snapshot_round2());
    const std::vector<Ipv4> targets =
        round == 1 ? campaign.round1_targets() : campaign.expansion_targets();

    ShardPartHeader header;
    header.config_digest = digest;
    header.round = static_cast<std::uint32_t>(round);
    header.shard_index = static_cast<std::uint32_t>(index);
    header.shard_count = static_cast<std::uint32_t>(count);
    header.total_items = campaign.sweep_item_count(targets.size());
    header.target_count = targets.size();
    const std::string path = shard_part_path(prefix, round, index, count);
    ShardPartWriter writer;
    if (!writer.open(path, header, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    bool write_ok = true;
    const Campaign::ShardSink sink =
        [&](std::uint64_t item, const Campaign::SweepChunkResult& result) {
          if (write_ok && !writer.append(item, result, &error))
            write_ok = false;
        };
    if (round == 1)
      campaign.run_round1_shard(annotator, sink);
    else
      campaign.run_round2_shard(annotator, sink);
    if (!write_ok || !writer.finish(&error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("shard %d/%d round %d: wrote %s (%llu of %llu work items)\n",
                index, count, round, path.c_str(),
                static_cast<unsigned long long>(
                    header.total_items / count +
                    (static_cast<std::uint64_t>(index) <
                             header.total_items % count
                         ? 1
                         : 0)),
                static_cast<unsigned long long>(header.total_items));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

// merge-shards SEED PREFIX N OUT.snap: absorb every shard's round-1 and
// round-2 parts in canonical order, run the remaining pipeline stages
// in-process, and write the final snapshot — byte-identical to a
// single-process `snapshot` run under --deterministic-metrics.
int cmd_merge_shards(const std::vector<std::string>& args,
                     FrontendOptions front) {
  if (args.size() < 5) {
    std::fprintf(stderr, "usage: merge-shards SEED PREFIX N OUT.snap\n");
    return 2;
  }
  const std::uint64_t seed = std::strtoull(args[1].c_str(), nullptr, 10);
  const std::string& prefix = args[2];
  const int count = static_cast<int>(std::strtol(args[3].c_str(), nullptr, 10));
  const std::string& out_path = args[4];
  if (count < 1) {
    std::fprintf(stderr, "merge-shards: shard count must be >= 1, got '%s'\n",
                 args[3].c_str());
    return 2;
  }
  // The merge process runs heuristics/VPI/pinning itself; the shard split
  // only ever applied to the probe sweeps.
  front.pipeline.campaign.shard_index = 0;
  front.pipeline.campaign.shard_count = 1;
  const std::uint64_t digest = shard_digest(shard_campaign_key(seed, front));

  std::string error;
  ShardMerge round1_parts;
  ShardMerge round2_parts;
  for (int round = 1; round <= 2; ++round) {
    ShardMerge& merge = round == 1 ? round1_parts : round2_parts;
    std::vector<std::string> paths;
    for (int s = 0; s < count; ++s)
      paths.push_back(shard_part_path(prefix, round, s, count));
    if (!merge.open(paths, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (merge.header().config_digest != digest) {
      std::fprintf(stderr,
                   "round-%d parts were produced under a different "
                   "configuration (digest mismatch)\n",
                   round);
      return 1;
    }
  }

  const World world = make_world(seed, front.hazard_profile);
  Pipeline pipeline(world, front.pipeline);
  pipeline.set_absorb_sources(
      [&round1_parts](Campaign::SweepChunkResult& r) {
        return round1_parts.next(r);
      },
      [&round2_parts](Campaign::SweepChunkResult& r) {
        return round2_parts.next(r);
      });
  try {
    const RunSnapshot& snap = pipeline.run_snapshot();
    if (!save_snapshot_file(out_path, snap, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("merged %d shards: wrote %s (%zu segments, %zu pins)\n",
                count, out_path.c_str(), snap.segments.size(),
                snap.pins.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return emit_metrics(pipeline, front);
}

int cmd_campaign(std::uint64_t seed, const std::string& path,
                 const FrontendOptions& front) {
  if (front.shard_requested)
    return cmd_campaign_shard(seed, path, front);
  const World world = make_world(seed, front.hazard_profile);
  Pipeline pipeline(world, front.pipeline);
  if (front.metrics_json.empty() && front.metrics_csv.empty()) {
    pipeline.run_until(StageId::kAliasVerification);  // rounds + §5
  } else {
    // A metrics artifact was requested: run every stage so the report
    // covers the whole pipeline. VPI detection and pinning never modify
    // the fabric, so the file written below is byte-identical either way.
    pipeline.run_all();
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  write_fabric(out, pipeline.campaign().fabric());
  std::printf("campaign done: %zu segments saved to %s\n",
              pipeline.campaign().fabric().segments().size(), path.c_str());
  std::printf("  round1 left-cloud %.1f%%, %llu traceroutes\n",
              100.0 * pipeline.round1().left_cloud_fraction(),
              static_cast<unsigned long long>(pipeline.round1().traceroutes));
  if (!front.snapshot_out.empty()) {
    // The snapshot needs every stage; run_snapshot() runs the rest.
    const RunSnapshot& snap = pipeline.run_snapshot();
    std::string error;
    if (!save_snapshot_file(front.snapshot_out, snap, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("snapshot: wrote %s (%zu segments)\n",
                front.snapshot_out.c_str(), snap.segments.size());
  }
  return emit_metrics(pipeline, front);
}

int cmd_analyze(std::uint64_t seed, const std::string& path,
                const FrontendOptions& front) {
  const World world = make_world(seed, front.hazard_profile);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s (run `campaign` first)\n",
                 path.c_str());
    return 1;
  }
  const Fabric fabric = read_fabric(in);
  std::printf("loaded fabric: %zu segments, %zu ABIs, %zu CBIs\n",
              fabric.segments().size(), fabric.unique_abis().size(),
              fabric.unique_cbis().size());

  // Datasets rebuild deterministically from the same seed, so offline
  // analysis matches the collection run.
  Pipeline pipeline(world, front.pipeline);
  Annotator annotator = pipeline.annotator();
  annotator.set_snapshot(&pipeline.snapshot_round2());
  PeeringClassifier classifier(&annotator, &pipeline.snapshot_round2(),
                               pipeline.subject_asns(), nullptr);
  const GroupBreakdown groups = breakdown(fabric, classifier);
  std::printf("peer ASes: %zu (public %zu, private non-BGP %zu, "
              "private BGP %zu)\n",
              groups.total_ases, groups.pb.ases.size(),
              groups.pr_nb.ases.size(), groups.pr_b.ases.size());
  const IcgStats icg = icg_stats(fabric);
  std::printf("ICG: %zu nodes, %zu edges, largest component %.1f%%\n",
              icg.abi_nodes + icg.cbi_nodes, icg.edges,
              100.0 * icg.largest_component_fraction);
  return 0;
}

// Full pipeline → binary snapshot (io/snapshot.h). The snapshot is the
// queryable artifact: everything `analyze` recomputes from the seed is
// stored, so `query` below never needs the world.
int cmd_snapshot(std::uint64_t seed, const std::string& path,
                 const FrontendOptions& front) {
  const World world = make_world(seed, front.hazard_profile);
  Pipeline pipeline(world, front.pipeline);
  const RunSnapshot& snap = pipeline.run_snapshot();
  std::string error;
  if (!save_snapshot_file(path, snap, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot: wrote %s (%zu segments, %zu pins, %zu alias sets, "
              "%zu stage reports)\n",
              path.c_str(), snap.segments.size(), snap.pins.size(),
              snap.alias_sets.size(), snap.stage_reports.size());
  return emit_metrics(pipeline, front);
}

void print_counts(const FabricCounts& c) {
  std::printf("segments        %zu (ABIs %zu, CBIs %zu)\n", c.segments,
              c.unique_abis, c.unique_cbis);
  std::printf("peer ASes       %zu (orgs %zu)\n", c.peer_ases, c.peer_orgs);
  for (std::size_t i = 0; i < c.by_confirmation.size(); ++i)
    std::printf("  %-18s %zu\n",
                to_string(static_cast<Confirmation>(i)),
                c.by_confirmation[i]);
  std::printf("IXP segments    %zu\n", c.ixp_segments);
  std::printf("VPI CBIs        %zu\n", c.vpi_cbis);
  for (std::size_t g = 0; g < kPeeringGroupCount; ++g)
    std::printf("  group %-12s %zu segments, %zu ASes\n",
                to_string(static_cast<PeeringGroup>(g)), c.group_segments[g],
                c.group_ases[g]);
  std::printf("unattributed    %zu\n", c.unattributed_segments);
  std::printf("pinned          %zu interfaces (+%zu regional-only)\n",
              c.pinned_interfaces, c.regional_only);
  std::printf("confidence      mean %.3f, %zu segments >= 0.5\n",
              c.mean_confidence, c.confident_segments);
}

void print_brief_line(const SegmentBrief& b) {
  std::printf("  [%u] %s > %s  peer AS%u  %s%s%s  conf %.3f\n", b.index,
              Ipv4(b.abi).to_string().c_str(), Ipv4(b.cbi).to_string().c_str(),
              b.peer_asn, to_string(static_cast<Confirmation>(b.confirmation)),
              b.ixp ? " ixp" : "", b.vpi ? " vpi" : "", b.confidence);
}

// How a query actually runs: in-process (engine.execute) or across the
// serve wire protocol (serve::Client::query). Returns false with a
// diagnostic when transport or execution fails.
using QueryExec = std::function<bool(const QueryRequest&, QueryResponse&,
                                     std::string*)>;

// Execute one request and surface transport or request errors uniformly.
bool run_query(const QueryExec& exec, const QueryRequest& request,
               QueryResponse& response) {
  std::string error;
  if (!exec(request, response, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  if (response.status != QueryStatus::kOk) {
    std::fprintf(stderr, "query failed: %s\n", response.error.c_str());
    return false;
  }
  return true;
}

// The shared ACTION [ARG] front end for `query` (local) and `remote`
// (daemon): builds one QueryRequest per action, runs it through `exec`,
// and prints from the QueryResponse alone — so local and remote output are
// identical bytes. `at` is the index of ACTION in args.
int run_action(const QueryExec& exec, const std::vector<std::string>& args,
               std::size_t at, double min_confidence) {
  const std::string& action = args[at];
  QueryRequest request;
  request.min_confidence = min_confidence;
  request.want_briefs = true;
  QueryResponse response;

  if (action == "counts") {
    request.kind = QueryKind::kCounts;
    if (!run_query(exec, request, response)) return 1;
    print_counts(*response.counts);
  } else if (action == "peers") {
    if (args.size() > at + 1) {
      request.kind = QueryKind::kPeersOf;
      request.asn = static_cast<std::uint32_t>(
          std::strtoul(args[at + 1].c_str(), nullptr, 10));
      if (!run_query(exec, request, response)) return 1;
      std::printf("AS%u: %zu segments\n", request.asn,
                  response.items.size());
      for (const SegmentBrief& b : response.briefs) print_brief_line(b);
    } else {
      request.kind = QueryKind::kPeerList;
      if (!run_query(exec, request, response)) return 1;
      std::printf("%zu peer ASes\n", response.items.size());
      for (const std::uint32_t asn : response.items) {
        QueryRequest per_asn;
        per_asn.kind = QueryKind::kPeersOf;
        per_asn.asn = asn;
        QueryResponse segs;
        if (!run_query(exec, per_asn, segs)) return 1;
        std::printf("  AS%-10u %zu segments\n", asn, segs.items.size());
      }
    }
  } else if (action == "metro") {
    if (args.size() < at + 2) {
      std::fprintf(stderr, "query metro requires a metro index\n");
      return 2;
    }
    request.kind = QueryKind::kInterfacesIn;
    request.metro = static_cast<std::uint32_t>(
        std::strtoul(args[at + 1].c_str(), nullptr, 10));
    if (!run_query(exec, request, response)) return 1;
    std::printf("metro %u: %zu pinned interfaces\n", request.metro,
                response.items.size());
    for (const std::uint32_t a : response.items)
      std::printf("  %s\n", Ipv4(a).to_string().c_str());
  } else if (action == "vpis") {
    request.kind = QueryKind::kVpiCandidates;
    if (!run_query(exec, request, response)) return 1;
    std::printf("%zu VPI segments\n", response.items.size());
    for (const SegmentBrief& b : response.briefs) print_brief_line(b);
  } else if (action == "confidence") {
    request.kind = QueryKind::kConfidenceHistogram;
    if (!run_query(exec, request, response)) return 1;
    const ConfidenceHistogram& hist = *response.histogram;
    std::printf("confidence over %zu segments: mean %.3f, min %.3f, "
                "max %.3f\n",
                hist.segments, hist.mean, hist.min, hist.max);
    for (std::size_t b = 0; b < hist.bins.size(); ++b)
      std::printf("  [%.1f, %.1f%c %zu\n", 0.1 * static_cast<double>(b),
                  0.1 * static_cast<double>(b + 1),
                  b + 1 == hist.bins.size() ? ']' : ')', hist.bins[b]);
    if (min_confidence >= 0.0) {
      QueryRequest threshold;
      threshold.kind = QueryKind::kMinConfidence;
      threshold.min_confidence = min_confidence;
      threshold.want_briefs = true;
      QueryResponse matches;
      if (!run_query(exec, threshold, matches)) return 1;
      std::printf("%zu segments with confidence >= %.3f\n",
                  matches.items.size(), min_confidence);
      for (const SegmentBrief& b : matches.briefs) print_brief_line(b);
    }
  } else if (action == "lookup") {
    if (args.size() < at + 2) {
      std::fprintf(stderr, "query lookup requires an IPv4 address\n");
      return 2;
    }
    const std::optional<Ipv4> address = Ipv4::parse(args[at + 1]);
    if (!address) {
      std::fprintf(stderr, "bad IPv4 address '%s'\n", args[at + 1].c_str());
      return 2;
    }
    request.kind = QueryKind::kLookup;
    request.address = address->value();
    if (!run_query(exec, request, response)) return 1;
    if (!response.found) {
      std::printf("%s: no covering fabric entry\n",
                  address->to_string().c_str());
    } else {
      const Prefix prefix(Ipv4(response.prefix_network),
                          response.prefix_length);
      std::printf("%s: %s %s%s%s, %zu segments\n",
                  address->to_string().c_str(), prefix.to_string().c_str(),
                  response.is_interface ? "interface" : "destination cone",
                  response.role_abi ? " abi" : "",
                  response.role_cbi ? " cbi" : "", response.items.size());
      for (const SegmentBrief& b : response.briefs) print_brief_line(b);
    }
  } else {
    std::fprintf(stderr, "unknown query action '%s'\n", action.c_str());
    return 2;
  }
  return 0;
}

// Serve typed queries from a saved snapshot; no world or pipeline needed.
int cmd_query(const std::vector<std::string>& args,
              const FrontendOptions& front) {
  if (args.size() < 3) {
    std::fprintf(stderr,
                 "usage: query FILE counts | peers [asn] | metro N | vpis | "
                 "lookup IP | confidence | resave OUT  [--min-confidence X]\n");
    return 2;
  }
  std::string error;
  MetricsRegistry registry(front.pipeline.metrics);
  // The daemon's own loader: answers come from the same mapping, view and
  // engine a cloudmap_serve process builds over this file.
  const std::shared_ptr<const serve::ServedSnapshot> served =
      serve::load_served_snapshot(args[1], &registry, &error);
  if (served == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const SnapshotContainer& file = served->mapping.container();
  const std::string& action = args[2];

  if (action == "resave") {
    if (args.size() < 4) {
      std::fprintf(stderr, "query resave requires an output path\n");
      return 2;
    }
    if (!save_snapshot_file(args[3], decode_snapshot(file), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("resaved %s -> %s\n", args[1].c_str(), args[3].c_str());
  } else {
    const QueryExec local = [&served](const QueryRequest& request,
                                      QueryResponse& response,
                                      std::string*) {
      response = served->engine->execute(request);
      return true;
    };
    if (const int rc = run_action(local, args, 2, front.min_confidence))
      return rc;
  }

  if (!front.metrics_json.empty()) {
    std::ofstream out(front.metrics_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", front.metrics_json.c_str());
      return 1;
    }
    // The stage section replays the producing run's reports (stored in the
    // snapshot); the counters section carries this process's query.* totals.
    MetricsMeta meta;
    meta.seed = file.seed;
    meta.threads = file.threads;
    meta.subject = file.subject < kCloudProviderCount
                       ? to_string(static_cast<CloudProvider>(file.subject))
                       : "unknown";
    write_metrics_json(out, meta, decode_snapshot(file).stage_reports,
                       registry);
    std::printf("metrics: wrote %s\n", front.metrics_json.c_str());
  }
  return 0;
}

// The same query actions against a running cloudmap_serve daemon, plus the
// daemon-control verbs. One connection per invocation.
int cmd_remote(const std::vector<std::string>& args,
               const FrontendOptions& front) {
  if (args.size() < 3) {
    std::fprintf(stderr,
                 "usage: remote HOST:PORT counts | peers [asn] | metro N | "
                 "vpis | lookup IP | confidence | swap PATH | stats | ping | "
                 "stop  [--min-confidence X]\n");
    return 2;
  }
  const std::string& endpoint = args[1];
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "remote expects HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const unsigned long port = std::strtoul(endpoint.c_str() + colon + 1,
                                          nullptr, 10);
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "bad port in '%s'\n", endpoint.c_str());
    return 2;
  }
  std::string error;
  std::optional<serve::Client> client = serve::Client::connect(
      host, static_cast<std::uint16_t>(port), &error);
  if (!client) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const std::string& action = args[2];
  if (action == "swap") {
    if (args.size() < 4) {
      std::fprintf(stderr, "remote swap requires a snapshot path\n");
      return 2;
    }
    if (!client->swap(args[3], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("swapped to %s\n", args[3].c_str());
    return 0;
  }
  if (action == "stats") {
    serve::ServerStats stats;
    if (!client->stats(stats, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("served %llu, failed %llu, swaps %llu, clients %llu\n",
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.swaps),
                static_cast<unsigned long long>(stats.clients));
    return 0;
  }
  if (action == "ping") {
    if (!client->ping(&error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (action == "stop") {
    if (!client->stop_server(&error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("server stopping\n");
    return 0;
  }

  const QueryExec remote = [&client](const QueryRequest& request,
                                     QueryResponse& response,
                                     std::string* exec_error) {
    return client->query(request, response, exec_error);
  };
  return run_action(remote, args, 2, front.min_confidence);
}

// Longitudinal comparison of two snapshots (query/diff.h).
int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    std::fprintf(stderr, "usage: diff A.snap B.snap\n");
    return 2;
  }
  std::string error;
  std::optional<RunSnapshot> a = load_snapshot_file(args[1], &error);
  if (!a) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::optional<RunSnapshot> b = load_snapshot_file(args[2], &error);
  if (!b) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const SnapshotDiff diff = diff_snapshots(*a, *b);
  write_diff(std::cout, diff);
  return 0;
}

void print_score_row(const HazardScore& row) {
  std::printf("%-14s segments %4zu  precision %.3f  recall %.3f  "
              "pin %.3f  conf %.3f  calib %+.3f\n",
              row.profile.c_str(), row.segments, row.precision, row.recall,
              row.pinning_accuracy, row.mean_confidence, row.calibration_gap);
  if (row.has_remote_rule)
    std::printf("    remote-rule: planted %zu, measured %zu, recovered %zu, "
                "false-remote %zu (>= %.1f ms)\n",
                row.remote_rule.planted, row.remote_rule.measured,
                row.remote_rule.recovered, row.remote_rule.false_remote,
                row.remote_rule.threshold_ms);
  if (row.has_churn)
    std::printf("    churn: %zu events, %zu observable, %zu reconstructed\n",
                row.churn.events, row.churn.observable,
                row.churn.reconstructed);
}

// hazards list | describe NAME|SPEC | score [PROFILE ...] [--json PATH]
// [--out-dir DIR]. The scorecard runs the full pipeline once per profile
// (plus a longitudinal world per churn step) on the fixed scorecard world.
int cmd_hazards(const std::vector<std::string>& args,
                const FrontendOptions& front) {
  const std::string action = args.size() > 1 ? args[1] : "list";

  if (action == "list") {
    std::printf("hazard kinds:\n");
    for (int k = 0; k < kHazardKindCount; ++k) {
      const auto kind = static_cast<HazardKind>(k);
      std::printf("  %-12s %s\n", hazard_kind_name(kind),
                  hazard_kind_description(kind));
    }
    std::printf("presets:\n");
    for (const std::string& name : HazardProfile::preset_names()) {
      const auto preset = HazardProfile::preset(name);
      const std::string spec = preset->spec_string();
      std::printf("  %-16s %s\n", name.c_str(),
                  spec.empty() ? "(no hazards)" : spec.c_str());
    }
    return 0;
  }

  if (action == "describe") {
    if (args.size() < 3) {
      std::fprintf(stderr, "usage: hazards describe NAME|SPEC\n");
      return 2;
    }
    std::string error;
    const auto profile = HazardProfile::parse(args[2], &error);
    if (!profile) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const std::string spec = profile->spec_string();
    std::printf("profile %s: %s\n", profile->name.c_str(),
                spec.empty() ? "(no hazards)" : spec.c_str());
    for (const HazardSpec& hazard : profile->hazards) {
      std::printf("  %-12s intensity %.3g%s  %s\n",
                  hazard_kind_name(hazard.kind), hazard.intensity,
                  hazard.kind == HazardKind::kPeeringChurn
                      ? (" over " + std::to_string(hazard.steps) + " steps")
                            .c_str()
                      : "",
                  hazard_kind_description(hazard.kind));
    }
    return 0;
  }

  if (action != "score") {
    std::fprintf(stderr,
                 "usage: hazards list | describe NAME|SPEC | "
                 "score [PROFILE ...] [--json PATH] [--out-dir DIR]\n");
    return 2;
  }

  // Flags land in `args` because the shared option parser does not know
  // them; split them from the profile operands here.
  std::string json_path;
  std::string out_dir;
  std::vector<std::string> names;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--json" || args[i] == "--out-dir") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires a value\n", args[i].c_str());
        return 2;
      }
      std::string& into = args[i] == "--json" ? json_path : out_dir;
      into = args[++i];
    } else {
      names.push_back(args[i]);
    }
  }
  if (names.empty())
    for (const std::string& name : HazardProfile::preset_names())
      if (name != "baseline") names.push_back(name);

  std::vector<HazardProfile> profiles;
  for (const std::string& name : names) {
    std::string error;
    const auto profile = HazardProfile::parse(name, &error);
    if (!profile) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    profiles.push_back(*profile);
  }

  ScorecardConfig config;
  config.threads = front.pipeline.campaign.threads;
  config.deterministic_metrics = front.pipeline.deterministic_metrics;

  const HazardScore baseline = score_profile(HazardProfile{}, config);
  std::printf("scorecard (world seed %llu, hazard seed %llu)\n",
              static_cast<unsigned long long>(config.world_seed),
              static_cast<unsigned long long>(config.hazard_seed));
  print_score_row(baseline);
  std::vector<HazardScore> rows;
  for (const HazardProfile& profile : profiles) {
    rows.push_back(score_profile(profile, config));
    print_score_row(rows.back());
    if (!out_dir.empty() &&
        profile.find(HazardKind::kPeeringChurn) != nullptr) {
      const ChurnRun run = run_churn_sequence(profile, config);
      for (std::size_t t = 0; t < run.snapshots.size(); ++t) {
        const std::string path =
            out_dir + "/world_t" + std::to_string(t) + ".snap";
        std::string error;
        if (!save_snapshot_file(path, run.snapshots[t], &error)) {
          std::fprintf(stderr, "%s\n", error.c_str());
          return 1;
        }
      }
      std::printf("    wrote %zu churn-step snapshots to %s\n",
                  run.snapshots.size(), out_dir.c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    write_scorecard_json(out, baseline, rows, config);
    std::printf("scorecard: wrote %s (%zu profiles)\n", json_path.c_str(),
                rows.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FrontendOptions front = options_from_env_and_args(argc, argv);
  if (!front.ok()) {
    std::fprintf(stderr, "%s\n", front.error.c_str());
    return 2;
  }
  const std::vector<std::string>& args = front.positional;
  const std::string command = !args.empty() ? args[0] : "all";
  const std::uint64_t seed =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 10) : 7;
  const std::string path = args.size() > 2 ? args[2] : "cloudmap_fabric.txt";

  if (command == "hazards") return cmd_hazards(args, front);
  if (!front.hazard_profile.empty()) {
    // World hazards are applied in make_world; the dataplane projection and
    // provenance label ride on the pipeline options. Churn emits world
    // sequences, which only `hazards score` and examples/longitudinal_churn
    // run — warn rather than silently half-apply it.
    apply_dataplane_hazards(front.pipeline, front.hazard_profile, seed);
    if (front.hazard_profile.find(HazardKind::kPeeringChurn) != nullptr)
      std::fprintf(stderr,
                   "note: churn hazard ignored by '%s' (longitudinal "
                   "sequences run under `hazards score`)\n",
                   command.c_str());
  }

  if (command == "worldgen") return cmd_worldgen(seed, front);
  if (command == "campaign") return cmd_campaign(seed, path, front);
  if (command == "merge-shards") return cmd_merge_shards(args, front);
  if (command == "analyze") return cmd_analyze(seed, path, front);
  if (command == "snapshot") {
    const std::string snap_path = args.size() > 2 ? args[2] : "cloudmap.snap";
    return cmd_snapshot(seed, snap_path, front);
  }
  if (command == "query") return cmd_query(args, front);
  if (command == "remote") return cmd_remote(args, front);
  if (command == "diff") return cmd_diff(args);
  if (command == "all") {
    if (const int rc = cmd_worldgen(seed, front)) return rc;
    if (const int rc = cmd_campaign(seed, path, front)) return rc;
    // The campaign pipeline already wrote the metrics artifact; analysis
    // reloads the fabric without re-running stages.
    FrontendOptions analyze_front = front;
    analyze_front.metrics_json.clear();
    analyze_front.metrics_csv.clear();
    return cmd_analyze(seed, path, analyze_front);
  }
  std::fprintf(stderr,
               "usage: %s [worldgen|campaign|analyze|all|snapshot] [seed] "
               "[file] | %s query FILE ACTION [ARG] | %s remote HOST:PORT "
               "ACTION [ARG] | merge-shards SEED PREFIX N OUT.snap | "
               "diff A B | hazards list|describe P|score "
               "[--threads N] [--metrics-json PATH] [--metrics-csv PATH] "
               "[--no-metrics] [--snapshot PATH] [--retry-budget N] "
               "[--retry-backoff T] [--response-scale X] [--host-response X] "
               "[--deterministic-metrics] [--min-confidence X] "
               "[--hazard-profile P] [--shard I/N] [--shard-round R]\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
