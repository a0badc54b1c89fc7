// perfbench — one run of one benchmark workload.
//
//   perfbench --workload campaign_5k|serve_point|serve_mixed --seed N
//             --seconds S --trace 0|1 --work-dir DIR --trace-dir DIR
//             --serve-bin PATH
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it runs
// the traced variant and prints every per-layer metric. The last line of
// stdout is the JSON result. Exit status: 0 when every output check passed,
// 1 when one failed, 2 on bad arguments, 3 when the build may not be timed.
// run.py builds this binary and calls it; see README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "host.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        {"topology.generate_s", "s"},
        {"controlplane.bgp_build_s", "s"},
        {"controlplane.registries_s", "s"},
        {"dataplane.fib_build_s", "s"},
        {"core.pipeline_ctor_s", "s"},
        {"core.rss_mib.after_setup", "MiB"},
        {"core.rss_mib.after_round1", "MiB"},
        {"core.rss_mib.after_round2", "MiB"},
        {"core.rss_mib.after_snapshot", "MiB"},
        {"dataplane.round1.probes", "count"},
        {"dataplane.round2.probes", "count"},
        {"dataplane.vpi.probes", "count"},
        {"dataplane.round2.probes_per_s", "1/s"},
        {"controlplane.round1.cache_hit_ratio", "ratio"},
        {"controlplane.round2.cache_hit_ratio", "ratio"},
        {"controlplane.vpi.cache_hit_ratio", "ratio"},
        {"infer.round1.produce_s", "s"},
        {"infer.round2.produce_s", "s"},
        {"infer.round1.utilization", "ratio"},
        {"infer.round2.utilization", "ratio"},
        {"infer.round1.merge_s", "s"},
        {"infer.round2.merge_s", "s"},
        {"infer.round1.segments_in", "count"},
        {"infer.round1.adjacencies_in", "count"},
        {"infer.round2.segments_in", "count"},
        {"infer.round2.adjacencies_in", "count"},
        {"infer.heuristics_s", "s"},
        {"infer.alias_s", "s"},
        {"vpi.detect_s", "s"},
        {"vpi.utilization", "ratio"},
        {"pinning.anchors_s", "s"},
        {"pinning.propagate_s", "s"},
        {"query.assemble_s", "s"},
        {"io.encode_s", "s"},
        {"io.snapshot_bytes", "bytes"},
        {"io.load_ms", "ms"},
    };
    for (const char* kind : {"counts", "peers_of", "vpi_candidates",
                             "interfaces_in", "lookup"})
      out.push_back({std::string("query.execute_us.") + kind, "us"});
    for (const char* kind : {"counts", "peers_of", "vpi_candidates",
                             "interfaces_in", "lookup"})
      out.push_back({std::string("serve.rtt_us.") + kind, "us"});
    out.push_back({"serve.codec_us", "us"});
    for (const char* kind : {"counts", "peers_of", "vpi_candidates",
                             "interfaces_in", "lookup"})
      out.push_back({std::string("serve.reply_bytes.") + kind, "bytes"});
    out.push_back({"serve.swap_ms", "ms"});
    out.push_back({"serve.swaps", "count"});
    out.push_back({"serve.rtt_samples", "count"});
    out.push_back({"serve.tail_p99_us", "us"});
    out.push_back({"serve.tail_p999_us", "us"});
    for (const char* layer : {"topology", "controlplane", "dataplane", "core",
                              "infer", "vpi", "pinning", "query", "io",
                              "serve", "bench"})
      out.push_back({std::string("trace.self_s.") + layer, "s"});
    out.push_back({"trace.job_s", "s"});
    out.push_back({"trace.unattributed_s", "s"});
    out.push_back({"trace.overhead_pct", "%"});
    return out;
  }();
  return specs;
}

void report_per_layer(const std::vector<std::pair<std::string, double>>& values,
                      Report& report) {
  std::string unexercised;
  for (const MetricSpec& spec : per_layer_metrics()) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : values)
      if (name == spec.name) {
        value = v;
        found = true;
      }
    if (!found) unexercised += " " + spec.name;
    report.metric(spec.name, value, spec.unit);
  }
  for (const auto& [name, v] : values) {
    bool listed = false;
    for (const MetricSpec& spec : per_layer_metrics())
      listed = listed || spec.name == name;
    if (!listed)
      throw std::logic_error("per-layer metric '" + name + "' is not listed");
  }
  if (!unexercised.empty())
    std::printf("not exercised by this workload (reported as 0):%s\n",
                unexercised.c_str());
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "campaign_5k|serve_point|serve_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --trace-dir DIR --serve-bin PATH\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atoi(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--trace-dir") options.trace_dir = value;
    else if (flag == "--serve-bin") options.serve_bin = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const bool campaign = options.workload == "campaign_5k";
  const bool serve =
      options.workload == "serve_point" || options.workload == "serve_mixed";
  if (!campaign && !serve) return usage("unknown --workload");
  if (options.seconds < 1 || (trace != 0 && trace != 1) ||
      options.work_dir.empty() || options.trace_dir.empty() ||
      (serve && options.serve_bin.empty()))
    return usage("missing or invalid flag");
  options.trace = trace == 1;

  const std::string guard = build_guard();
  if (!guard.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 guard.c_str());
    return 3;
  }
  print_run_header(options);

  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.trace_dir);
  Report report;
  try {
    if (campaign)
      run_campaign_workload(options, report);
    else
      run_serve_workload(options, report);
  } catch (const std::exception& e) {
    report.add_failed(1);
    report.check_failed(e.what());
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  if (!report.metrics().empty()) report.print();
  return report.correct() && !report.metrics().empty() ? 0 : 1;
}
