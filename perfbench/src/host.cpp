#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "stats.h"
#include "topology/world.h"

namespace perfbench {

std::string build_guard() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation (build type '" PERFBENCH_BUILD_TYPE
         "'); configure with -DCMAKE_BUILD_TYPE=Release";
#else
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty())
    return "built with a sanitizer (" + sanitize +
           "); configure without -fsanitize";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer (address or thread)";
#endif
  return "";
#endif
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void print_run_header(const RunOptions& options) {
  std::printf("perfbench workload %s seed %llu seconds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc %u, allowed cpus %s, cpu '%s'\n",
              std::thread::hardware_concurrency(),
              cpu_list(allowed_cpus()).c_str(), cpu_model().c_str());
  std::printf("build: compiler '%s', build type %s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
}

void print_world_shape(const cloudmap::World& world) {
  std::printf("world: %zu ASes, %zu routers, %zu interconnects\n",
              world.ases.size(), world.routers.size(),
              world.interconnects.size());
  std::fflush(stdout);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pin_to_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<int> process_threads(int pid) {
  std::vector<int> tids;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", error))
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  std::sort(tids.begin(), tids.end());
  return tids;
}

bool pin_task(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof set, &set) == 0;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out.empty() ? "none" : out;
}

double rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

double cpu_seconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Fields::set(const std::string& key, double value) {
  values_[key] = format_double(value);
}

void Fields::set_text(const std::string& key, const std::string& value) {
  values_[key] = value;
}

double Fields::num(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::string Fields::text(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string() : it->second;
}

std::string Fields::serialize() const {
  std::string out;
  for (const auto& [key, value] : values_) out += key + "\t" + value + "\n";
  return out;
}

Fields Fields::parse(const std::string& text) {
  Fields fields;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab != std::string::npos)
      fields.values_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return fields;
}

ChildOutcome run_in_child(const std::function<void(Fields& fields)>& body) {
  ChildOutcome outcome;
  int fds[2];
  if (pipe(fds) != 0) {
    outcome.error = "pipe failed";
    return outcome;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    outcome.error = "fork failed";
    return outcome;
  }
  if (pid == 0) {
    close(fds[0]);
    Fields fields;
    int code = 0;
    try {
      body(fields);
    } catch (const std::exception& e) {
      fields.set_text("error", e.what());
      code = 1;
    }
    const std::string text = fields.serialize();
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    std::_Exit(code);  // skip destructors and atexit: the parent owns them
  }
  close(fds[1]);
  std::string text;
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage = {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  outcome.fields = Fields::parse(text);
  outcome.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  outcome.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!outcome.ok)
    outcome.error = outcome.fields.has("error")
                        ? outcome.fields.text("error")
                        : "child exited abnormally (status " +
                              std::to_string(status) + ")";
  return outcome;
}

}  // namespace perfbench
