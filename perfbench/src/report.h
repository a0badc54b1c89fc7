// The result of one benchmark run: named metrics with units, the operations
// attempted and failed, and whether every output check passed. print()
// writes a readable table and then, as the last line of stdout, the single
// JSON object the benchmark contract defines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  // Throws std::invalid_argument on a malformed or repeated name.
  void metric(const std::string& name, double value, const std::string& unit);
  // Record a failed output check (printed to stderr immediately).
  void check_failed(const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

}  // namespace perfbench
