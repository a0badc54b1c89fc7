// One shared home for the front-end knobs that every binary used to
// hand-roll: the CLOUDMAP_THREADS environment variable, the --threads flag,
// and the metrics-artifact plumbing (--metrics-json / --metrics-csv /
// --no-metrics, CLOUDMAP_METRICS_JSON). Used by cloudmap_cli, the examples,
// and bench/bench_common.h so validation and precedence rules exist exactly
// once: environment first, command-line flags override.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "scenario/hazard.h"

namespace cloudmap {

struct FrontendOptions {
  PipelineOptions pipeline;
  // Metrics artifact paths ("" = do not write). From --metrics-json /
  // --metrics-csv or the CLOUDMAP_METRICS_JSON environment variable.
  std::string metrics_json;
  std::string metrics_csv;
  // Minimum segment confidence for query front-ends (--min-confidence).
  // Negative = unset: callers apply no filter.
  double min_confidence = -1.0;
  // Sharded campaign round selector (--shard-round): which round a shard
  // invocation executes. Round 2 requires every shard's round-1 part (it
  // absorbs the merged round-1 fabric before probing its own round-2
  // share).
  int shard_round = 1;
  // Adversarial hazard profile (--hazard-profile NAME|SPEC, or the
  // CLOUDMAP_HAZARD_PROFILE environment variable). Accepts a preset name
  // (`cloudmap_cli hazards list`) or a spec like "loss:0.2,remote:0.5".
  // Empty = no hazards; the front-end is expected to apply world hazards
  // before building the pipeline and dataplane hazards via
  // apply_dataplane_hazards (scenario/score.h).
  HazardProfile hazard_profile;
  // Arguments not consumed by a recognized flag, in original order.
  std::vector<std::string> positional;
  // Non-empty on a parse/validation failure (unknown value, negative
  // thread count, missing flag argument); `positional` is then unusable.
  std::string error;
  bool ok() const { return error.empty(); }
};

// Environment-only parsing: CLOUDMAP_THREADS (campaign + VPI worker count,
// 0 = hardware concurrency), CLOUDMAP_METRICS_JSON (artifact path),
// CLOUDMAP_RETRY_BUDGET (re-probe attempts per failed target),
// CLOUDMAP_DETERMINISTIC_METRICS (non-empty and not "0" = zero wall-clock
// metrics fields for byte-identical artifacts), CLOUDMAP_HAZARD_PROFILE.
FrontendOptions options_from_env();

// Environment first, then flags: --threads N, --metrics-json PATH,
// --metrics-csv PATH, --no-metrics, --retry-budget N, --retry-backoff TICKS,
// --response-scale X, --host-response X, --deterministic-metrics,
// --min-confidence X, --hazard-profile NAME|SPEC, --shard I/N (run only
// shard I of an N-way campaign; 0 <= I < N, default 0/1), --shard-round R
// (which round a shard invocation executes; 1 or 2). Everything else lands
// in `positional`.
FrontendOptions options_from_env_and_args(int argc, char** argv);

// Knobs for the snapshot-serving daemon (examples/cloudmap_serve.cpp,
// serve/server.h). Same precedence rules as FrontendOptions: environment
// first (CLOUDMAP_SERVE_PORT, CLOUDMAP_SERVE_SNAPSHOT,
// CLOUDMAP_SERVE_MAX_CLIENTS), command-line flags override.
struct ServeOptions {
  // Loopback TCP port to listen on; 0 = kernel-assigned ephemeral port
  // (the daemon prints the bound port at startup).
  int port = 0;
  // Format-v3 snapshot file to serve (required; the daemon mmaps it).
  std::string snapshot_path;
  // Concurrent client connections beyond which new ones are refused.
  int max_clients = 64;
  // Register query counters in a metrics registry (--no-metrics disables).
  bool metrics = true;
  // Non-empty on a parse/validation failure.
  std::string error;
  bool ok() const { return error.empty(); }
};

// Environment first, then flags: --port N, --snapshot PATH,
// --max-clients N, --no-metrics. Any other argument is an error.
ServeOptions serve_options_from_env_and_args(int argc, char** argv);

}  // namespace cloudmap
