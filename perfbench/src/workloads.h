// The benchmark's workloads. Each runs from RunOptions, fills the Report
// with the end-to-end metrics (trace off) or the per-layer metrics (trace
// on), and records every failed output check in it.
#pragma once

#include <string>
#include <vector>

#include "host.h"
#include "report.h"

namespace perfbench {

void run_campaign_workload(const RunOptions& options, Report& report);
// serve_point and serve_mixed.
void run_serve_workload(const RunOptions& options, Report& report);

// Every per-layer metric name and unit, in print order. A traced run
// reports all of them; those its workload does not exercise read 0.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& per_layer_metrics();

// Adds every per-layer metric to `report`, taking values from `values`
// (missing names read 0) and listing the names this workload left at 0.
void report_per_layer(const std::vector<std::pair<std::string, double>>& values,
                      Report& report);

}  // namespace perfbench
