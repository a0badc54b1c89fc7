// Engine microbenchmarks (google-benchmark): the hot paths behind the
// reproduction — trie lookups, hop annotation, path computation, full
// traceroutes, BGP table computation, world generation, and the parallel
// campaign's thread-scaling curve.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "controlplane/bgp.h"
#include "core/pipeline.h"
#include "dataplane/traceroute.h"
#include "io/snapshot.h"
#include "query/engine.h"
#include "query/fabric_view.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace {

using namespace cloudmap;

const World& bench_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::paper_shape();
    config.seed = 1;
    return generate_world(config);
  }();
  return world;
}

struct Stack {
  const World& world = bench_world();
  BgpSimulator sim{world};
  Forwarder forwarder{world, sim};
  VantagePoint vp = VantagePoint::cloud_vm(
      CloudProvider::kAmazon,
      world.regions_of(CloudProvider::kAmazon).front(), "vm");
};

Stack& stack() {
  static Stack instance;
  return instance;
}

void BM_PrefixTrieLookup(benchmark::State& state) {
  const World& world = bench_world();
  Rng rng(7);
  std::vector<Ipv4> targets;
  for (int i = 0; i < 1024; ++i)
    targets.emplace_back(static_cast<std::uint32_t>(rng.next()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.prefix_owner.lookup(targets[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_ForwardPath(benchmark::State& state) {
  Stack& s = stack();
  Rng rng(8);
  const auto slash24s = s.world.probeable_slash24s();
  std::size_t i = 0;
  for (auto _ : state) {
    const Prefix& prefix = slash24s[(i++ * 2654435761u) % slash24s.size()];
    benchmark::DoNotOptimize(s.forwarder.path(s.vp, prefix.network().next(1)));
  }
}
BENCHMARK(BM_ForwardPath);

void BM_Traceroute(benchmark::State& state) {
  Stack& s = stack();
  TracerouteEngine engine(s.forwarder, 9);
  const auto slash24s = s.world.probeable_slash24s();
  std::size_t i = 0;
  for (auto _ : state) {
    const Prefix& prefix = slash24s[(i++ * 2654435761u) % slash24s.size()];
    benchmark::DoNotOptimize(engine.trace(s.vp, prefix.network().next(1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Traceroute);

void BM_BgpRoutesToOrigin(benchmark::State& state) {
  const World& world = bench_world();
  std::uint32_t origin = 0;
  for (auto _ : state) {
    // Fresh simulator each batch so the cache does not trivialize the loop.
    state.PauseTiming();
    BgpSimulator sim(world);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        sim.routes_to(AsId{origin % static_cast<std::uint32_t>(
                               world.ases.size())}));
    ++origin;
  }
}
BENCHMARK(BM_BgpRoutesToOrigin)->Unit(benchmark::kMicrosecond);

void BM_GenerateSmallWorld(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    GeneratorConfig config = GeneratorConfig::small();
    config.seed = ++seed;
    benchmark::DoNotOptimize(generate_world(config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerateSmallWorld)->Unit(benchmark::kMillisecond);

// Campaign sweep scaling: the full round-1 /24 sweep from every region at
// 1/2/4/N worker threads. The inferred fabric and round stats are identical
// at every thread count (see ParallelCampaign tests); only wall time moves.
void BM_CampaignRound1(benchmark::State& state) {
  // A pipeline supplies the annotation substrate; its own campaign is not
  // run — each iteration builds a fresh Campaign over the shared forwarder.
  static Pipeline* pipeline = new Pipeline(bench_world());
  CampaignConfig config;
  config.threads = static_cast<int>(state.range(0));
  std::uint64_t traceroutes = 0;
  RoundStats last{};
  for (auto _ : state) {
    Campaign campaign(pipeline->world(), pipeline->forwarder(),
                      CloudProvider::kAmazon, config);
    const RoundStats stats = campaign.run_round1(pipeline->annotator());
    benchmark::DoNotOptimize(stats);
    traceroutes += stats.traceroutes;
    last = stats;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traceroutes));
  // Deterministic per-round quantities for the trajectory artifact: the
  // round's work is identical every iteration and at every thread count.
  state.counters["traceroutes"] = static_cast<double>(last.traceroutes);
  state.counters["probes"] = static_cast<double>(last.probes);
  state.counters["targets"] = static_cast<double>(last.targets);
  state.counters["campaign_threads"] = static_cast<double>(config.threads);
}
BENCHMARK(BM_CampaignRound1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(std::thread::hardware_concurrency()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Query saturation: N reader threads hammering one shared QueryEngine with
// a deterministic mix of point lookups, per-peer scans, and aggregate
// counts, each one QueryRequest through execute(). The engine is immutable
// after build and counters are relaxed atomics, so throughput should scale
// with the thread count (the acceptance gate for src/query/'s zero-locking
// claim).
void BM_QuerySaturation(benchmark::State& state) {
  // Built once: full pipeline run -> saved snapshot -> FabricView over an
  // 8-aligned copy of the bytes (the blob a serve daemon maps). Shared by
  // every thread of every thread-count variant.
  static const FabricView* view = [] {
    Pipeline pipeline(bench_world());
    std::ostringstream out;
    save_snapshot(out, pipeline.run_snapshot());
    const std::string bytes = out.str();
    auto* words = new std::vector<std::uint64_t>((bytes.size() + 7) / 8);
    std::memcpy(words->data(), bytes.data(), bytes.size());
    const auto file = parse_snapshot(
        reinterpret_cast<const unsigned char*>(words->data()), bytes.size());
    return new FabricView(file->blob);
  }();
  static MetricsRegistry* registry = new MetricsRegistry(true);
  static const QueryEngine* engine = new QueryEngine(*view, registry);

  const Span32 peers = view->asn_list();
  // Disjoint per-thread query streams: the thread index is expanded through
  // splitmix64 before seeding, so no two reader threads replay the same
  // index sequence (an xor of the raw index only perturbs low seed bits,
  // which xoshiro's seeding leaves correlated).
  std::uint64_t seed_state =
      0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(state.thread_index());
  Rng rng(splitmix64(seed_state));
  for (auto _ : state) {
    const std::uint64_t roll = rng.next();
    QueryRequest request;
    switch (roll & 7u) {
      case 0:
        request.kind = QueryKind::kCounts;
        break;
      case 1:
        if (peers.empty()) continue;
        request.kind = QueryKind::kPeersOf;
        request.asn = peers[roll % peers.size()];
        break;
      case 2:
        request.kind = QueryKind::kVpiCandidates;
        break;
      case 3:
        request.kind = QueryKind::kInterfacesIn;
        request.metro = static_cast<std::uint32_t>(roll >> 8) % 64;
        break;
      default:
        request.kind = QueryKind::kLookup;
        request.address = static_cast<std::uint32_t>(roll >> 16);
        break;
    }
    benchmark::DoNotOptimize(engine->execute(request));
  }
  // Each thread processed exactly its own iteration count — the framework
  // sums per-thread items, so counting anything shared here double-reports.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  // kAvgThreads: the value is a world fact, not per-thread work — without
  // the flag the framework sums it over reader threads.
  state.counters["peer_asns"] = benchmark::Counter(
      static_cast<double>(peers.size()), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_QuerySaturation)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(static_cast<int>(std::thread::hardware_concurrency()))
    ->UseRealTime();

void BM_RttToInterface(benchmark::State& state) {
  Stack& s = stack();
  std::vector<InterfaceId> targets;
  for (const GroundTruthInterconnect& ic : s.world.interconnects)
    if (ic.cloud == CloudProvider::kAmazon && !ic.private_address)
      targets.push_back(ic.client_interface);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.forwarder.rtt_to_interface(s.vp, targets[i++ % targets.size()]));
  }
}
BENCHMARK(BM_RttToInterface);

// Console reporter that also records every completed run for the bench
// trajectory artifacts. Families split by benchmark name so one invocation
// emits all three committed baselines: BM_CampaignRound1 runs land in
// BENCH_campaign_round1.json, BM_QuerySaturation in
// BENCH_query_saturation.json, and everything else in BENCH_perf_micro.json.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      cloudmap::bench::TrajectoryEntry entry;
      entry.name = run.benchmark_name();
      entry.iterations = static_cast<std::int64_t>(run.iterations);
      entry.threads = run.threads;
      entry.ns_per_op = run.iterations == 0
                            ? 0.0
                            : run.real_accumulated_time /
                                  static_cast<double>(run.iterations) * 1e9;
      // Rate counters (items/s, bytes/s) are wall-clock-derived — the
      // trajectory carries only the deterministic ones.
      for (const auto& [name, counter] : run.counters)
        if ((counter.flags & benchmark::Counter::kIsRate) == 0)
          entry.counters.emplace_back(name, counter.value);
      auto& family = family_of(entry.name);
      // On hosts where hardware_concurrency collapses onto an explicit Arg,
      // the same configuration runs twice; keep the first measurement.
      bool duplicate = false;
      for (const auto& seen : family)
        if (seen.name == entry.name) duplicate = true;
      if (!duplicate) family.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void write_trajectories() const {
    for (const auto& [slug, entries] : families_) {
      if (entries.empty()) continue;
      cloudmap::bench::write_trajectory(slug, entries, &bench_world(),
                                        /*threads=*/1, nullptr);
    }
  }

 private:
  std::vector<cloudmap::bench::TrajectoryEntry>& family_of(
      const std::string& name) {
    const char* slug = "perf_micro";
    if (name.rfind("BM_CampaignRound1", 0) == 0) slug = "campaign_round1";
    if (name.rfind("BM_QuerySaturation", 0) == 0) slug = "query_saturation";
    for (auto& [existing, entries] : families_)
      if (existing == slug) return entries;
    families_.emplace_back(slug,
                           std::vector<cloudmap::bench::TrajectoryEntry>{});
    return families_.back().second;
  }

  std::vector<
      std::pair<std::string, std::vector<cloudmap::bench::TrajectoryEntry>>>
      families_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_trajectories();
  return 0;
}
