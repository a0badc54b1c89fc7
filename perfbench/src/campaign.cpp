// campaign_5k: the paper's whole pipeline — Pipeline::run_snapshot() then
// save_snapshot_file — on a WorldSpec{total_ases = 5400} world built from
// the seed, with the `cloudmap_cli snapshot` options except two campaign
// workers.
//
// Timed run: the world is generated once; every repetition runs in a fresh
// forked child (set-up, snapshot, score), so each pays the same cold start
// and its peak RSS comes back from wait4. Repetitions continue until the
// run's seconds are spent; extra set-up-only children bring set-up samples
// to kMinSetupSamples. Every written file is checked, and every repetition
// must produce the same result digest. Each written map then answers
// kReplayBatches batches of the serve_mixed stream in process through
// QueryEngine::execute; qps, p50 and p99 pool every batch of every map.
//
// Traced run: one child splits the job at layer boundaries (component
// builds, the shard protocol's produce and merge, one run_until per stage,
// assembly and encode) under spans; a second, untraced child gives the
// reference for the tracing overhead. Both must print the same digest.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/pipeline.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "query/fabric_view.h"
#include "queries.h"
#include "snapshot_check.h"
#include "stats.h"
#include "topology/generator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace cloudmap;

namespace {

constexpr int kTotalAses = 5400;
constexpr int kMinSetupSamples = 5;
constexpr int kMaxRepetitions = 8;
// A batch holds eight blocks of the exact 1/8 mix, so every batch does the
// same work: eight kCounts and 56 cheap requests.
constexpr std::size_t kReplayBatches = 32;
constexpr std::size_t kBatchRequests = 64;

World make_world(std::uint64_t seed) {
  WorldSpec spec;
  spec.seed = seed;
  spec.total_ases = kTotalAses;
  return generate_world(GeneratorConfig::from_spec(spec));
}

PipelineOptions campaign_options() {
  PipelineOptions options;  // `cloudmap_cli snapshot` defaults
  options.campaign.threads = 2;
  return options;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

enum class Repetition {
  kSetupOnly,
  kFull,
  kFullWithRss,  // also reads RSS at the round boundaries (a /proc read)
};

// One untraced repetition, run inside a forked child: set-up, then the
// snapshot and its file, then the ground-truth score.
void timed_repetition(const World& world, const std::string& path,
                      Repetition kind, Fields& out) {
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  Pipeline pipeline(world, campaign_options());
  out.set("setup_s", seconds_since(t0));
  if (kind == Repetition::kSetupOnly) return;
  const bool rss = kind == Repetition::kFullWithRss;
  if (rss) out.set("core.rss_mib.after_setup", rss_mib());
  const std::int64_t t1 = now_ns();
  if (rss) {
    pipeline.run_until(StageId::kRound1);
    out.set("core.rss_mib.after_round1", rss_mib());
    pipeline.run_until(StageId::kRound2);
    out.set("core.rss_mib.after_round2", rss_mib());
  }
  const RunSnapshot& snap = pipeline.run_snapshot();
  std::string error;
  if (!save_snapshot_file(path, snap, &error))
    throw std::runtime_error("save_snapshot_file: " + error);
  out.set("snapshot_s", seconds_since(t1));
  out.set("cpu_s", cpu_seconds() - cpu0);
  if (rss) out.set("core.rss_mib.after_snapshot", rss_mib());
  const InferenceScore score = pipeline.score();
  out.set("precision", score.precision());
  out.set("recall", score.recall());
}

// In-process replay of `batches` batches of serve_mixed request stream
// `stream` over a written map. Each batch is appended to `out` as a window;
// the latencies of every batch, by kind, are returned. Batch b runs on
// allowed CPU b mod n: neighbours can slow single vCPUs for long stretches,
// and a replay left on one vCPU read 11-16% slow in every batch of a run
// whose pipeline repetitions, spread over all vCPUs, were not.
ReplayTimes replay_map(const std::string& path, std::uint64_t seed,
                       std::uint64_t stream_index, std::size_t batches,
                       std::vector<Window>& out) {
  const std::vector<int> cpus = allowed_cpus();
  struct Unpin {
    const std::vector<int>& cpus;
    ~Unpin() { pin_to_cpus(cpus); }
  } unpin{cpus};
  std::string error;
  std::optional<MappedSnapshot> mapped = MappedSnapshot::open(path, &error);
  if (!mapped) throw std::runtime_error(error);
  const FabricView view(mapped->blob());
  const QueryEngine engine(view);
  RequestStream stream(Mix::kMixed, view, seed, stream_index);
  ReplayTimes all;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<QueryRequest> requests;
    for (std::size_t i = 0; i < kBatchRequests; ++i)
      requests.push_back(stream.next());
    pin_to_cpus({cpus[b % cpus.size()]});
    ReplayTimes times = replay(engine, requests);
    for (std::size_t k = 0; k < kMixKinds.size(); ++k)
      all.by_kind_us[k].insert(all.by_kind_us[k].end(),
                               times.by_kind_us[k].begin(),
                               times.by_kind_us[k].end());
    all.us.insert(all.us.end(), times.us.begin(), times.us.end());
    all.wall_s += times.wall_s;
    out.push_back(Window{times.wall_s, std::move(times.us)});
  }
  return all;
}

void print_score(const char* label, const Fields& f, const std::string& digest) {
  std::printf("%s: digest %s, precision %.4f, recall %.4f\n", label,
              digest.c_str(), f.num("precision"), f.num("recall"));
}

void run_timed(const RunOptions& options, Report& report) {
  const std::int64_t run_start = now_ns();
  const World world = make_world(options.seed);
  std::printf("world generated in %.3f s\n", seconds_since(run_start));
  print_world_shape(world);

  std::vector<double> setup, snapshot, cpu, rss;
  std::vector<Window> batches;
  std::string digest;
  const std::int64_t deadline =
      run_start + static_cast<std::int64_t>(options.seconds) * 1000000000;
  for (int rep = 0; rep < kMaxRepetitions && (rep == 0 || now_ns() < deadline);
       ++rep) {
    const std::string path =
        options.work_dir + "/campaign_" + std::to_string(rep) + ".snap";
    report.add_attempted(1);
    const ChildOutcome child = run_in_child(
        [&](Fields& f) { timed_repetition(world, path, Repetition::kFull, f); });
    try {
      if (!child.ok) throw std::runtime_error(child.error);
      std::size_t segments = 0;
      const std::string d = check_snapshot_file(path, &segments);
      if (digest.empty()) {
        std::printf("segments: %zu\n", segments);
        print_score("result", child.fields, d);
        digest = d;
      } else if (d != digest) {
        throw std::runtime_error("repetition digest " + d + " differs from " +
                                 digest);
      }
      setup.push_back(child.fields.num("setup_s"));
      snapshot.push_back(child.fields.num("snapshot_s"));
      cpu.push_back(child.fields.num("cpu_s"));
      rss.push_back(child.peak_rss_mib);
      std::printf("rep %d: setup %.3f s, snapshot %.3f s, cpu %.3f s, "
                  "peak rss %.1f MiB\n",
                  rep, setup.back(), snapshot.back(), cpu.back(), rss.back());
      // The fresh map answers its first queries in process.
      replay_map(path, options.seed, static_cast<std::uint64_t>(rep),
                 kReplayBatches, batches);
      std::remove(path.c_str());
    } catch (const std::exception& e) {
      report.add_failed(1);
      report.check_failed(std::string("campaign repetition: ") + e.what());
    }
  }
  while (!setup.empty() && static_cast<int>(setup.size()) < kMinSetupSamples) {
    const ChildOutcome child =
        run_in_child([&](Fields& f) {
          timed_repetition(world, "", Repetition::kSetupOnly, f);
        });
    if (!child.ok) {
      report.check_failed("set-up repetition: " + child.error);
      break;
    }
    setup.push_back(child.fields.num("setup_s"));
  }
  if (snapshot.empty()) return;

  const PooledSummary replayed = pool_windows(batches);
  std::printf("replay: %zu batches of %zu requests: %.0f req/s (batches "
              "p10 %.0f, p90 %.0f), p50 %.2f us, p99 %.2f us (%zu samples, "
              "%zu beyond)\n",
              batches.size(), kBatchRequests, replayed.qps, replayed.p10_qps,
              replayed.p90_qps, replayed.p50_us, replayed.p99_us,
              replayed.samples, samples_beyond(replayed.samples, 0.99));
  std::printf("samples: setup %zu, snapshot %zu\n", setup.size(),
              snapshot.size());
  // Neighbours on a shared host slow whole repetitions (CPU time moves with
  // wall time), so the fastest repetition is the steadiest estimate of one
  // map's cost: over ten seeds, medians of three repetitions spread 15%
  // (snapshot_s) and 12% (cpu_s), minima 5% and 4%.
  report.metric("setup_s", median(setup), "s");
  report.metric("snapshot_s", *std::min_element(snapshot.begin(), snapshot.end()),
                "s");
  report.metric("cpu_s", *std::min_element(cpu.begin(), cpu.end()), "s");
  report.metric("peak_rss_mib", median(rss), "MiB");
  report.metric("qps", replayed.qps, "1/s");
  report.metric("p50_us", replayed.p50_us, "us");
  report.metric("p99_us", replayed.p99_us, "us");
}

// --- traced run -------------------------------------------------------------

using Values = std::vector<std::pair<std::string, double>>;

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

// Results of one sweep's produce phase, handed to a later merge.
struct SweepStore {
  std::vector<Campaign::SweepChunkResult> results;
  std::size_t next = 0;
  std::uint64_t segments = 0;
  std::uint64_t adjacencies = 0;

  Campaign::ShardSink sink() {
    return [this](std::uint64_t, const Campaign::SweepChunkResult& r) {
      segments += r.segments.size();
      adjacencies += r.adjacencies.size();
      results.push_back(r);
    };
  }
  // Streams the results once, releasing each as it is consumed.
  Campaign::ShardSource source() {
    return [this](Campaign::SweepChunkResult& r) {
      if (next >= results.size()) return false;
      r = std::move(results[next]);
      results[next++] = Campaign::SweepChunkResult{};
      return true;
    };
  }
};

// The traced job, inside a forked child. Every call into a layer runs under
// a span named after its layer; the values and the span summary go back to
// the parent in `out`, the spans themselves to `trace_path`.
void traced_job(std::uint64_t seed, const std::string& snap_path,
                const std::string& trace_path, Fields& out) {
  Tracer tracer(true);
  const std::int64_t job_start = now_ns();
  const PipelineOptions options = campaign_options();
  Values v;
  const auto set = [&v](const std::string& name, double value) {
    v.emplace_back(name, value);
  };
  const auto timed = [&](const char* name, const auto& body) {
    ScopedSpan span(tracer, name, 1);
    body();
    span.close();
    return tracer.seconds(span.index());
  };

  std::unique_ptr<World> world;
  set("topology.generate_s", timed("topology.generate", [&] {
        world = std::make_unique<World>(make_world(seed));
      }));

  // The constructor's components, built on their own.
  {
    std::unique_ptr<BgpSimulator> bgp;
    BgpSnapshot s1, s2;
    set("controlplane.bgp_build_s", timed("controlplane.bgp_build", [&] {
          bgp = std::make_unique<BgpSimulator>(*world);
          const auto feeds = default_collector_feeds(*world, options.seed + 11);
          SnapshotOptions o1 = options.snapshot;
          o1.include_intermittent = false;
          s1 = build_snapshot(*world, *bgp, feeds, o1);
          SnapshotOptions o2 = options.snapshot;
          o2.include_intermittent = true;
          s2 = build_snapshot(*world, *bgp, feeds, o2);
        }));
    set("controlplane.registries_s", timed("controlplane.registries", [&] {
          const WhoisRegistry whois = WhoisRegistry::from_world(*world);
          const As2Org as2org = As2Org::from_world(*world);
          const PeeringDb pdb = PeeringDb::from_world(*world, options.peeringdb);
          const DnsRegistry dns = DnsRegistry::from_world(*world, options.dns);
          const std::vector<std::uint64_t> cones =
              customer_cone_slash24s(*world);
        }));
    set("dataplane.fib_build_s", timed("dataplane.fib_build", [&] {
          const Forwarder forwarder(*world, *bgp);
        }));
    timed("bench.release", [&] {
      s1 = BgpSnapshot{};
      s2 = BgpSnapshot{};
      bgp.reset();
    });
  }

  // Round 1 produce: the shard protocol's sink, shard 0 of 1.
  SweepStore round1;
  SweepStore round2;
  {
    std::unique_ptr<Pipeline> p1;
    set("core.pipeline_ctor_s", timed("core.pipeline_ctor", [&] {
          p1 = std::make_unique<Pipeline>(*world, options);
        }));
    const BgpCacheStats before = p1->bgp().cache_stats();
    const double produce = timed("infer.round1.produce", [&] {
      Annotator annotator = p1->annotator();
      annotator.set_snapshot(&p1->snapshot_round1());
      p1->mutable_campaign().run_round1_shard(annotator, round1.sink());
    });
    const BgpCacheStats after = p1->bgp().cache_stats();
    set("infer.round1.produce_s", produce);
    set("infer.round1.utilization",
        p1->campaign().last_pool_stats().utilization());
    set("controlplane.round1.cache_hit_ratio",
        hit_ratio(after.hits - before.hits, after.misses - before.misses));
    timed("bench.release", [&] { p1.reset(); });
  }
  set("infer.round1.segments_in", static_cast<double>(round1.segments));
  set("infer.round1.adjacencies_in", static_cast<double>(round1.adjacencies));

  // Round 2 produce: a fresh pipeline absorbs round 1 (expansion targets
  // derive from its fabric), then runs its own shard.
  {
    std::unique_ptr<Pipeline> p2;
    timed("core.pipeline_ctor", [&] {
      p2 = std::make_unique<Pipeline>(*world, options);
    });
    timed("infer.round1.absorb", [&] {
      SweepStore again = round1;
      p2->mutable_campaign().absorb_round1(again.source());
    });
    const BgpCacheStats before = p2->bgp().cache_stats();
    const double produce = timed("infer.round2.produce", [&] {
      Annotator annotator = p2->annotator();
      annotator.set_snapshot(&p2->snapshot_round2());
      p2->mutable_campaign().run_round2_shard(annotator, round2.sink());
    });
    const BgpCacheStats after = p2->bgp().cache_stats();
    set("infer.round2.produce_s", produce);
    set("infer.round2.utilization",
        p2->campaign().last_pool_stats().utilization());
    set("controlplane.round2.cache_hit_ratio",
        hit_ratio(after.hits - before.hits, after.misses - before.misses));
    timed("bench.release", [&] { p2.reset(); });
  }
  set("infer.round2.segments_in", static_cast<double>(round2.segments));
  set("infer.round2.adjacencies_in", static_cast<double>(round2.adjacencies));

  // The final pipeline absorbs both rounds and runs every later stage.
  std::unique_ptr<Pipeline> p;
  timed("core.pipeline_ctor", [&] {
    p = std::make_unique<Pipeline>(*world, options);
    p->set_absorb_sources(round1.source(), round2.source());
  });
  set("infer.round1.merge_s",
      timed("infer.round1.merge", [&] { p->run_until(StageId::kRound1); }));
  set("infer.round2.merge_s",
      timed("infer.round2.merge", [&] { p->run_until(StageId::kRound2); }));
  set("infer.heuristics_s", timed("infer.heuristics", [&] {
        p->run_until(StageId::kHeuristics);
      }));
  set("infer.alias_s", timed("infer.alias", [&] {
        p->run_until(StageId::kAliasVerification);
      }));
  set("vpi.detect_s",
      timed("vpi.detect", [&] { p->run_until(StageId::kVpiDetection); }));
  set("pinning.anchors_s",
      timed("pinning.anchors", [&] { p->run_until(StageId::kAnchors); }));
  set("pinning.propagate_s",
      timed("pinning.propagate", [&] { p->run_until(StageId::kPinning); }));
  const RunSnapshot* snap = nullptr;
  set("query.assemble_s",
      timed("query.assemble", [&] { snap = &p->run_snapshot(); }));
  set("io.encode_s", timed("io.encode", [&] {
        std::string error;
        if (!save_snapshot_file(snap_path, *snap, &error))
          throw std::runtime_error("save_snapshot_file: " + error);
      }));
  set("io.snapshot_bytes", static_cast<double>(file_size(snap_path)));

  const StageReport& r1 = *p->report(StageId::kRound1);
  const StageReport& r2 = *p->report(StageId::kRound2);
  const StageReport& vpi = *p->report(StageId::kVpiDetection);
  set("dataplane.round1.probes", static_cast<double>(r1.probes));
  set("dataplane.round2.probes", static_cast<double>(r2.probes));
  set("dataplane.vpi.probes", static_cast<double>(vpi.probes));
  double round2_produce = 0.0;
  for (const auto& [name, value] : v)
    if (name == "infer.round2.produce_s") round2_produce = value;
  set("dataplane.round2.probes_per_s",
      round2_produce > 0.0 ? static_cast<double>(r2.probes) / round2_produce
                           : 0.0);
  set("controlplane.vpi.cache_hit_ratio",
      hit_ratio(vpi.bgp_cache_hits, vpi.bgp_cache_misses));
  set("vpi.utilization", vpi.worker_utilization);
  const InferenceScore score = p->score();
  const std::int64_t job_end = now_ns();

  // The part of the job a plain run would time: first constructor to file.
  double job_s = 0.0;
  for (const Span& span : tracer.spans())
    if (span.name == "core.pipeline_ctor") {
      job_s = static_cast<double>(job_end - span.start_ns) / 1e9;
      break;
    }
  for (const auto& [name, value] : v) out.set(name, value);
  out.set("precision", score.precision());
  out.set("recall", score.recall());
  out.set("job_s", static_cast<double>(job_end - job_start) / 1e9);
  out.set("pipeline_job_s", job_s);
  out.set("unattributed_s", tracer.unattributed_seconds(job_start, job_end));
  for (const auto& [layer, seconds] : tracer.layer_self_seconds())
    out.set("self." + layer, seconds);
  std::ofstream trace(trace_path);
  tracer.write_json(trace, job_start, job_end);
}

void run_traced(const RunOptions& options, Report& report) {
  const std::string traced_path = options.work_dir + "/campaign_traced.snap";
  const std::string trace_path =
      options.trace_dir + "/campaign_5k-seed" + std::to_string(options.seed) + ".json";
  // Traced child first, while this process holds no world of its own.
  report.add_attempted(1);
  const ChildOutcome traced = run_in_child([&](Fields& f) {
    traced_job(options.seed, traced_path, trace_path, f);
  });

  const World world = make_world(options.seed);
  print_world_shape(world);
  const std::string plain_path = options.work_dir + "/campaign_plain.snap";
  report.add_attempted(1);
  const ChildOutcome plain = run_in_child([&](Fields& f) {
    timed_repetition(world, plain_path, Repetition::kFullWithRss, f);
  });

  std::string traced_digest, plain_digest;
  try {
    if (!traced.ok) throw std::runtime_error("traced job: " + traced.error);
    traced_digest = check_snapshot_file(traced_path);
  } catch (const std::exception& e) {
    report.add_failed(1);
    report.check_failed(e.what());
  }
  try {
    if (!plain.ok) throw std::runtime_error("untraced job: " + plain.error);
    plain_digest = check_snapshot_file(plain_path);
  } catch (const std::exception& e) {
    report.add_failed(1);
    report.check_failed(e.what());
  }
  if (!traced.ok || !plain.ok) return;
  print_score("untraced", plain.fields, plain_digest);
  print_score("traced", traced.fields, traced_digest);
  if (traced_digest != plain_digest)
    report.check_failed("traced digest " + traced_digest +
                        " differs from untraced " + plain_digest);

  const Fields& t = traced.fields;
  const double job_s = t.num("job_s");
  const double unattributed = t.num("unattributed_s");
  const double plain_s =
      plain.fields.num("setup_s") + plain.fields.num("snapshot_s");
  const double overhead = t.num("pipeline_job_s") - plain_s;
  std::printf("traced job %.3f s (spans written to %s)\n", job_s,
              trace_path.c_str());
  std::printf("per-layer self time:\n");
  for (const auto& [key, value] : t.all())
    if (key.rfind("self.", 0) == 0)
      std::printf("  %-14s %8.3f s  %5.1f%%\n", key.c_str() + 5,
                  std::strtod(value.c_str(), nullptr),
                  100.0 * std::strtod(value.c_str(), nullptr) / job_s);
  std::printf("unattributed %.3f s (%.2f%% of the job)\n", unattributed,
              100.0 * unattributed / job_s);
  std::printf("tracing overhead: traced set-up..file %.3f s vs untraced %.3f "
              "s: %+.3f s (%+.1f%%), peak rss %.1f vs %.1f MiB\n",
              t.num("pipeline_job_s"), plain_s, overhead,
              100.0 * overhead / plain_s, traced.peak_rss_mib,
              plain.peak_rss_mib);
  if (unattributed >= job_s / 20)
    report.check_failed("spans leave more than 5% of the traced job "
                        "unattributed");

  Values values;
  for (const auto& [key, value] : t.all())
    if (key.find('.') != std::string::npos && key.rfind("self.", 0) != 0)
      values.emplace_back(key, std::strtod(value.c_str(), nullptr));
  for (const auto& [key, value] : plain.fields.all())
    if (key.rfind("core.rss_mib.", 0) == 0)
      values.emplace_back(key, std::strtod(value.c_str(), nullptr));
  for (const auto& [key, value] : t.all())
    if (key.rfind("self.", 0) == 0)
      values.emplace_back("trace.self_s." + key.substr(5),
                          std::strtod(value.c_str(), nullptr));
  values.emplace_back("trace.job_s", job_s);
  values.emplace_back("trace.unattributed_s", unattributed);
  values.emplace_back("trace.overhead_pct", 100.0 * overhead / plain_s);

  std::vector<Window> batches;
  const ReplayTimes times =
      replay_map(plain_path, options.seed, 0, kReplayBatches, batches);
  for (std::size_t k = 0; k < kMixKinds.size(); ++k)
    values.emplace_back(std::string("query.execute_us.") +
                            kind_slug(kMixKinds[k]),
                        median(times.by_kind_us[k]));
  report_per_layer(values, report);
}

}  // namespace

void run_campaign_workload(const RunOptions& options, Report& report) {
  if (options.trace)
    run_traced(options, report);
  else
    run_timed(options, report);
}

}  // namespace perfbench
