// Process- and host-level plumbing shared by the workloads: the run header,
// the build guard, CPU pinning, resource readings, and forked children that
// report back over a pipe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cloudmap {
class World;
}

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;   // temporary files of this run (removed at exit)
  std::string trace_dir;  // where a traced run writes its spans (kept)
  std::string serve_bin;  // the cloudmap_serve daemon binary
};

// Empty when this binary may be timed; otherwise why it may not (built
// without optimisation, or with a sanitizer).
std::string build_guard();

// Seed, nproc, CPU model, compiler and build type.
void print_run_header(const RunOptions& options);
void print_world_shape(const cloudmap::World& world);

// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
// Pin the calling thread (and every thread or child it creates later) to
// `cpus`.
void pin_to_cpus(const std::vector<int>& cpus);
// Thread ids of process `pid` (its /proc/PID/task entries), ascending.
std::vector<int> process_threads(int pid);
// Pin thread `tid` of another process of ours to `cpu`; false when the
// thread has gone or may not be pinned.
bool pin_task(int tid, int cpu);
std::string cpu_list(const std::vector<int>& cpus);

// Resident set (VmRSS) of this process, MiB.
double rss_mib();
// User plus system CPU of this process so far, seconds.
double cpu_seconds();
std::uint64_t file_size(const std::string& path);
std::string read_file(const std::string& path);

// Key/value lines a child process sends back to its parent.
class Fields {
 public:
  void set(const std::string& key, double value);
  void set_text(const std::string& key, const std::string& value);
  double num(const std::string& key) const;
  std::string text(const std::string& key) const;
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string serialize() const;
  static Fields parse(const std::string& text);
  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

struct ChildOutcome {
  bool ok = false;             // exited 0 and the body did not throw
  std::string error;           // why not, when !ok
  double peak_rss_mib = 0.0;   // ru_maxrss of the child
  Fields fields;               // what the body reported
};

// Fork; run `body` in the child, which fills `fields`; wait for it. The
// parent must not have other threads running when this is called.
ChildOutcome run_in_child(const std::function<void(Fields& fields)>& body);

}  // namespace perfbench
