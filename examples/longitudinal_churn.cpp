// Longitudinal peering-turnover study: plant a churn hazard, run the full
// pipeline once per longitudinal world, persist the snapshot sequence
// (world_t0.snap ... world_tN.snap), and replay `cloudmap_cli diff` over
// consecutive editions to check the planted turnover events are
// reconstructed from the maps alone. Exits nonzero when any observable
// event fails to reconstruct — the HazardMatrix ctest runs this as the
// churn acceptance gate.
//
//   longitudinal_churn [--out-dir DIR] [--profile SPEC] [--threads N]
//                      [--deterministic-metrics]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/options.h"
#include "io/snapshot.h"
#include "query/diff.h"
#include "scenario/score.h"

using namespace cloudmap;

int main(int argc, char** argv) {
  FrontendOptions front = options_from_env_and_args(argc, argv);
  if (!front.ok()) {
    std::fprintf(stderr, "%s\n", front.error.c_str());
    return 2;
  }

  std::string out_dir = ".";
  HazardProfile profile = *HazardProfile::preset("churn");
  // The shared parser passes unknown flags through as operands. This tool
  // takes no operands and reads only --out-dir and --profile, so anything
  // else is a mistake: a misspelt --out-dir must not write into the
  // working directory.
  const std::vector<std::string>& args = front.positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg != "--out-dir" && arg != "--profile") {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
    if (i + 1 >= args.size()) {
      std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
      return 2;
    }
    const std::string& value = args[++i];
    if (arg == "--out-dir") {
      out_dir = value;
    } else {
      std::string error;
      const auto parsed = HazardProfile::parse(value, &error);
      if (!parsed) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      profile = *parsed;
    }
  }
  if (profile.find(HazardKind::kPeeringChurn) == nullptr) {
    std::fprintf(stderr, "profile '%s' has no churn hazard\n",
                 profile.spec_string().c_str());
    return 2;
  }

  ScorecardConfig config;
  config.threads = front.pipeline.campaign.threads;
  config.deterministic_metrics = front.pipeline.deterministic_metrics;

  std::printf("churn profile %s (world seed %llu, hazard seed %llu)\n",
              profile.spec_string().c_str(),
              static_cast<unsigned long long>(config.world_seed),
              static_cast<unsigned long long>(config.hazard_seed));
  const ChurnRun run = run_churn_sequence(profile, config);
  std::printf("planted %zu turnover events over %zu worlds\n",
              run.events.size(), run.snapshots.size());

  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 mkdir_error.message().c_str());
    return 1;
  }

  std::vector<std::string> paths;
  for (std::size_t t = 0; t < run.snapshots.size(); ++t) {
    const std::string path =
        out_dir + "/world_t" + std::to_string(t) + ".snap";
    std::string error;
    if (!save_snapshot_file(path, run.snapshots[t], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("  t%zu: %s (%zu segments)\n", t, path.c_str(),
                run.snapshots[t].segments.size());
    paths.push_back(path);
  }

  // Replay the diffs from the persisted files — the reconstruction must
  // work from snapshots alone, exactly as `cloudmap_cli diff` would see
  // them, not from in-memory state.
  std::vector<RunSnapshot> loaded;
  for (const std::string& path : paths) {
    std::string error;
    auto snapshot = load_snapshot_file(path, &error);
    if (!snapshot) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    loaded.push_back(std::move(*snapshot));
  }
  for (std::size_t t = 1; t < loaded.size(); ++t) {
    const SnapshotDiff diff = diff_snapshots(loaded[t - 1], loaded[t]);
    std::printf("diff t%zu -> t%zu: +%zu -%zu segments\n", t - 1, t,
                diff.added.size(), diff.removed.size());
  }

  const ChurnScore score = score_turnover_reconstruction(loaded, run.events);
  std::printf("turnover: %zu events, %zu observable, %zu reconstructed\n",
              score.events, score.observable, score.reconstructed);
  if (score.observable == 0) {
    std::fprintf(stderr, "no observable turnover events — nothing tested\n");
    return 1;
  }
  if (score.reconstructed != score.observable) {
    std::fprintf(stderr, "reconstruction FAILED: %zu of %zu observable "
                 "events missing from the diffs\n",
                 score.observable - score.reconstructed, score.observable);
    return 1;
  }
  std::printf("reconstruction ok\n");
  return 0;
}
