#include "report.h"

#include <cstdio>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("malformed metric name '" + name + "'");
  for (const Metric& m : metrics_)
    if (m.name == name)
      throw std::invalid_argument("metric '" + name + "' reported twice");
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check_failed(const std::string& what) {
  ++checks_failed_;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::print() const {
  std::printf("--- metrics ---\n");
  for (const Metric& m : metrics_)
    std::printf("  %-40s %16s %s\n", m.name.c_str(),
                format_double(m.value).c_str(), m.unit.c_str());
  std::printf("attempted %llu, failed %llu, checks %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "passed" : "FAILED");
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + format_double(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
