// serve_point and serve_mixed: the `cloudmap_serve` daemon, in its own
// process, answering a closed loop of kClients serve::Client connections
// over loopback, one request in flight on each. Client i and the daemon
// thread that serves it share one CPU; each stretch of the loop moves the
// pairs to the next CPUs (stretch_cpus).
//
// Preparation (untimed for the serve metrics): the seed's paper-shape
// snapshot — and for serve_mixed the seed+1 snapshot it hot-swaps to — is
// built in forked children. setup_s is the median over kSetupSamples daemon
// starts, each from process start to its first reply; the last daemon
// started is measured. The loop runs in kStretches stretches with one more
// build of the seed's map before each stretch after the first; snapshot_s
// and cpu_s take the fastest of those builds. qps, p50 and p99 pool the
// clients' 0.25-s windows, the first of every stretch left out as warm-up.
//
// Output check: every reply is decoded by the client; every kSampleEvery-th
// reply is compared field by field, after the loop, with an in-process
// QueryEngine over a FabricView of the snapshot that could have served it
// (during a swap either one). A mismatch, a kError reply, a status other
// than kOk, or a lost connection is a failed request. kStats must then
// report failed == 0 and exactly the swaps issued. Every built map passes
// the campaign file check and gives the first build's digest.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "core/pipeline.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "query/fabric_view.h"
#include "queries.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot_check.h"
#include "stats.h"
#include "topology/generator.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace cloudmap;

namespace {

constexpr int kClients = 2;
// The timed loop runs in kStretches stretches; before each stretch after
// the first, the served map is built once more (kStretches builds in all).
constexpr int kStretches = 8;
constexpr int kSetupSamples = 9;
constexpr int kLoadSamples = 5;
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::uint64_t kSwapEvery = 10000;
constexpr std::uint64_t kSpanEvery = 16;
constexpr std::size_t kReplayRequests = 8192;
// Each client's loop is cut into windows of kWindowUs; the first window of
// every stretch is warm-up and left out of qps, p50 and p99.
constexpr std::uint32_t kWindowUs = 250000;

// --- preparation -------------------------------------------------------------

// Build the seed's paper-shape map and write it to `path`, timing set-up,
// snapshot and CPU the way campaign_5k does.
void build_served_snapshot(std::uint64_t seed, const std::string& path,
                           Fields& out) {
  GeneratorConfig config = GeneratorConfig::paper_shape();
  config.seed = seed;
  const World world = generate_world(config);
  PipelineOptions options;
  options.campaign.threads = 2;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  Pipeline pipeline(world, options);
  const std::int64_t t1 = now_ns();
  const RunSnapshot& snap = pipeline.run_snapshot();
  const std::int64_t t2 = now_ns();
  std::string error;
  if (!save_snapshot_file(path, snap, &error))
    throw std::runtime_error("save_snapshot_file: " + error);
  const std::int64_t t3 = now_ns();
  out.set("setup_s", static_cast<double>(t1 - t0) / 1e9);
  out.set("snapshot_s", static_cast<double>(t3 - t1) / 1e9);
  out.set("encode_s", static_cast<double>(t3 - t2) / 1e9);
  out.set("cpu_s", cpu_seconds() - cpu0);
  out.set("ases", static_cast<double>(world.ases.size()));
  out.set("routers", static_cast<double>(world.routers.size()));
  out.set("interconnects", static_cast<double>(world.interconnects.size()));
  out.set("segments", static_cast<double>(snap.segments.size()));
}

// One served snapshot as the load generator sees it: the mapping and an
// engine over it, used to build request streams and to check replies.
struct LocalSnapshot {
  MappedSnapshot mapping;
  std::unique_ptr<FabricView> view;
  std::unique_ptr<QueryEngine> engine;

  static std::unique_ptr<LocalSnapshot> open(const std::string& path) {
    std::string error;
    std::optional<MappedSnapshot> mapped = MappedSnapshot::open(path, &error);
    if (!mapped) throw std::runtime_error("MappedSnapshot::open: " + error);
    auto local = std::make_unique<LocalSnapshot>();
    local->mapping = std::move(*mapped);
    local->view = std::make_unique<FabricView>(local->mapping.blob());
    local->engine = std::make_unique<QueryEngine>(*local->view);
    return local;
  }
};

// --- the daemon process ------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;
};

// Wait for the daemon's "listening on 127.0.0.1:PORT" line.
bool read_port(int fd, std::uint16_t* port, std::string* error) {
  std::string text;
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (now_ns() < deadline) {
    const auto newline = text.find('\n');
    if (newline != std::string::npos) {
      const std::string line = text.substr(0, newline);
      const auto colon = line.rfind(':');
      if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
        *error = "unexpected daemon output: " + line;
        return false;
      }
      *port = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
      return true;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buffer[256];
    const ssize_t n = read(fd, buffer, sizeof buffer);
    if (n <= 0) {
      *error = "daemon exited before listening";
      return false;
    }
    text.append(buffer, static_cast<std::size_t>(n));
  }
  *error = "daemon did not start listening within 30 s";
  return false;
}

// Reap the daemon, killing it if it has not exited within `grace_ms`.
double reap(Daemon& daemon, int grace_ms) {
  struct rusage usage = {};
  int status = 0;
  const std::int64_t deadline = now_ns() + std::int64_t{grace_ms} * 1'000'000;
  pid_t done = 0;
  while ((done = wait4(daemon.pid, &status, WNOHANG, &usage)) == 0 &&
         now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done == 0) {
    kill(daemon.pid, SIGKILL);
    while (wait4(daemon.pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
  }
  if (daemon.out_fd >= 0) close(daemon.out_fd);
  daemon = Daemon{};
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Start `cloudmap_serve --snapshot PATH --port 0`; `setup_s` runs from just
// before the process exists until the reply to its first request.
std::optional<Daemon> start_daemon(const std::string& binary,
                                   const std::string& snapshot,
                                   double* setup_s, std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return std::nullopt;
  }
  std::vector<std::string> args = {binary, "--snapshot", snapshot, "--port",
                                   "0"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const std::int64_t t0 = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return std::nullopt;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  Daemon daemon;
  daemon.pid = pid;
  daemon.out_fd = fds[0];
  if (!read_port(daemon.out_fd, &daemon.port, error)) {
    reap(daemon, 0);
    return std::nullopt;
  }
  std::optional<serve::Client> client =
      serve::Client::connect("127.0.0.1", daemon.port, error);
  if (!client || !client->ping(error)) {
    reap(daemon, 0);
    return std::nullopt;
  }
  *setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return daemon;
}

// Ask the daemon to stop and reap it; returns its peak RSS in MiB.
double stop_daemon(Daemon& daemon) {
  std::string error;
  std::optional<serve::Client> client =
      serve::Client::connect("127.0.0.1", daemon.port, &error);
  if (client) client->stop_server(&error);
  return reap(daemon, 10000);
}

// --- the closed loop ----------------------------------------------------------

// Which snapshot could have served a request: `generation` swaps had been
// completed, and `stable` says no swap was in flight at any point of it.
struct Served {
  std::uint64_t generation = 0;
  bool stable = true;
};

struct Sample {
  QueryRequest request;
  QueryResponse response;
  Served served;
};

struct ClientLog {
  std::vector<double> rtt_us;
  std::vector<std::uint8_t> slot;  // mix_slot of each request
  std::vector<std::int64_t> start_ns;
  std::vector<std::uint32_t> end_us;  // completion, us after the loop start
  std::vector<Sample> samples;
  std::vector<QueryRequest> requests;  // traced loop only
  std::uint64_t failed = 0;
  std::string first_error;
};

struct SwapState {
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> completed{0};  // requests, all clients
  std::counting_semaphore<1 << 20> due{0};
  std::atomic<bool> stop{false};
};

// The CPUs stretch `stretch` runs its clients on, client c on entry c.
// Neighbours can slow single vCPUs for long stretches, so the stretches
// walk the pairs over every allowed CPU and no run rests on one vCPU.
std::vector<int> stretch_cpus(int stretch) {
  const std::vector<int> all = allowed_cpus();
  std::vector<int> cpus;
  for (int c = 0; c < kClients; ++c)
    cpus.push_back(all[static_cast<std::size_t>(stretch * kClients + c) %
                       all.size()]);
  return cpus;
}

// Connect to the daemon and pin the daemon thread that serves the new
// connection to `cpu`, where the caller runs that connection's client too.
// The CPU then carries one client and its handler, which hand it to each
// other on every round trip: no wake-up has to cross CPUs. Left to float,
// the handlers landed differently from run to run and serve_point qps
// ranged 107-194 k req/s over 1-second runs.
serve::Client connect_pinned(const Daemon& daemon, int cpu) {
  std::string error;
  const std::vector<int> before = process_threads(daemon.pid);
  std::optional<serve::Client> client =
      serve::Client::connect("127.0.0.1", daemon.port, &error);
  if (!client || !client->ping(&error))
    throw std::runtime_error("connect: " + error);
  int pinned = 0;
  for (const int tid : process_threads(daemon.pid))
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      if (!pin_task(tid, cpu))
        throw std::runtime_error("cannot pin daemon thread " +
                                 std::to_string(tid));
      ++pinned;
    }
  if (pinned != 1)
    throw std::runtime_error("expected one new daemon thread per connection, "
                             "found " + std::to_string(pinned));
  return std::move(*client);
}

void client_loop(serve::Client& client, Mix mix, const FabricBackend& backend,
                 std::uint64_t seed, std::uint64_t stream_index, int cpu,
                 std::int64_t start, std::int64_t deadline, bool traced,
                 bool swapping, SwapState& swaps, ClientLog& log) {
  pin_to_cpus({cpu});
  std::string error;
  RequestStream stream(mix, backend, seed, stream_index + (traced ? 100 : 1));
  for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
    const QueryRequest request = stream.next();
    Served served;
    served.generation = swaps.done.load(std::memory_order_acquire);
    const std::uint64_t started = swaps.started.load(std::memory_order_acquire);
    QueryResponse response;
    const std::int64_t t0 = now_ns();
    const bool ok = client.query(request, response, &error);
    const std::int64_t t1 = now_ns();
    served.stable = started == served.generation &&
                    swaps.started.load(std::memory_order_acquire) == started;
    log.rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    log.end_us.push_back(static_cast<std::uint32_t>((t1 - start) / 1000));
    if (traced) {
      log.slot.push_back(static_cast<std::uint8_t>(mix_slot(request.kind)));
      log.start_ns.push_back(t0);
      log.requests.push_back(request);
    }
    if (!ok || response.status != QueryStatus::kOk) {
      ++log.failed;
      if (log.first_error.empty())
        log.first_error = ok ? "status " + std::to_string(static_cast<int>(
                                               response.status)) +
                                   ": " + response.error
                             : error;
      if (!ok) return;  // connection lost
      continue;
    }
    if (i % kSampleEvery == 0)
      log.samples.push_back(Sample{request, std::move(response), served});
    if (swapping &&
        swaps.completed.fetch_add(1, std::memory_order_relaxed) % kSwapEvery ==
            kSwapEvery - 1)
      swaps.due.release();
  }
}

struct LoopResult {
  std::vector<ClientLog> logs;
  std::vector<Window> windows;  // every client's, warm-up left out
  double wall_s = 0.0;
  std::uint64_t swaps = 0;
  std::uint64_t swap_failures = 0;
  std::vector<double> swap_ms;
};

// Cut the requests `log` recorded from index `begin` on, in a stretch of
// `seconds`, into windows of kWindowUs, leaving out the first (warm-up) and
// the last, partial one.
void add_windows(const ClientLog& log, std::size_t begin, double seconds,
                 std::vector<Window>& out) {
  const auto full = static_cast<std::uint32_t>(seconds * 1e6 / kWindowUs);
  std::vector<Window> windows(full);
  for (std::size_t i = begin; i < log.rtt_us.size(); ++i) {
    const std::uint32_t k = log.end_us[i] / kWindowUs;
    if (k >= 1 && k < full) windows[k].us.push_back(log.rtt_us[i]);
  }
  for (std::uint32_t k = 1; k < full; ++k) {
    windows[k].seconds = kWindowUs / 1e6;
    out.push_back(std::move(windows[k]));
  }
}

// One stretch of the closed loop, appended to `result`. Stretch `stretch`
// draws its own request streams (a traced loop draws others again) and
// runs on stretch_cpus(stretch).
void run_loop(const Daemon& daemon, Mix mix, const LocalSnapshot& a,
              const std::vector<std::string>& swap_paths, std::uint64_t seed,
              double seconds, bool traced, int stretch, SwapState& swaps,
              LoopResult& result) {
  result.logs.resize(kClients);
  std::vector<std::size_t> begin;
  for (const ClientLog& log : result.logs) begin.push_back(log.rtt_us.size());
  const bool swapping = !swap_paths.empty();
  const std::vector<int> cpus = stretch_cpus(stretch);
  std::vector<serve::Client> connections;
  for (int c = 0; c < kClients; ++c)
    connections.push_back(connect_pinned(daemon, cpus[c]));
  // The swaps run beside client 0, on its CPU.
  std::optional<serve::Client> control_client;
  if (swapping) control_client = connect_pinned(daemon, cpus[0]);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  swaps.stop = false;
  std::thread control;  // hot-swaps on its own connection
  if (swapping) {
    control = std::thread([&] {
      pin_to_cpus({cpus[0]});
      std::string error;
      while (!swaps.stop.load()) {
        if (!swaps.due.try_acquire_for(std::chrono::milliseconds(50)))
          continue;
        const std::uint64_t next = swaps.started.load() + 1;
        const std::string& path = swap_paths[next % swap_paths.size()];
        swaps.started.store(next, std::memory_order_release);
        const std::int64_t t0 = now_ns();
        const bool ok = control_client->swap(path, &error);
        result.swap_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        ++result.swaps;
        if (ok) {
          swaps.done.store(next, std::memory_order_release);
        } else {
          ++result.swap_failures;
          std::fprintf(stderr, "perfbench: swap failed: %s\n", error.c_str());
        }
      }
    });
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      client_loop(connections[static_cast<std::size_t>(c)], mix, *a.view,
                  seed, static_cast<std::uint64_t>(stretch * kClients + c),
                  cpus[c], start, deadline, traced, swapping, swaps,
                  result.logs[static_cast<std::size_t>(c)]);
    });
  for (std::thread& t : clients) t.join();
  result.wall_s += static_cast<double>(now_ns() - start) / 1e9;
  swaps.stop = true;
  if (control.joinable()) control.join();
  for (std::size_t c = 0; c < result.logs.size(); ++c)
    add_windows(result.logs[c], begin[c], seconds, result.windows);
}

// Check the sampled replies against the snapshots that could have served
// them (index = completed swaps mod 2: even → seed's map, odd → seed+1's).
std::uint64_t verify_samples(const LoopResult& loop,
                             const std::vector<const LocalSnapshot*>& maps,
                             std::size_t* checked) {
  std::uint64_t mismatches = 0;
  for (const ClientLog& log : loop.logs)
    for (const Sample& s : log.samples) {
      ++*checked;
      std::string diff;
      bool matched = false;
      for (std::size_t m = 0; m < maps.size() && !matched; ++m) {
        if (s.served.stable && m != s.served.generation % maps.size())
          continue;
        diff = compare_responses(s.response, maps[m]->engine->execute(s.request));
        matched = diff.empty();
      }
      if (!matched) {
        if (mismatches == 0)
          std::fprintf(stderr, "perfbench: %s reply differs in %s\n",
                       kind_slug(s.request.kind), diff.c_str());
        ++mismatches;
      }
    }
  return mismatches;
}

std::vector<double> all_rtts(const LoopResult& loop) {
  std::vector<double> out;
  for (const ClientLog& log : loop.logs)
    out.insert(out.end(), log.rtt_us.begin(), log.rtt_us.end());
  return out;
}

std::uint64_t failed_requests(const LoopResult& loop, Report& report) {
  std::uint64_t failed = 0;
  for (const ClientLog& log : loop.logs) {
    failed += log.failed;
    if (!log.first_error.empty())
      report.check_failed("request failed: " + log.first_error);
  }
  return failed;
}

// Count, check and summarize one loop.
void account_loop(const char* label, const LoopResult& loop,
                  const std::vector<const LocalSnapshot*>& maps,
                  Report& report) {
  const std::vector<double> rtts = all_rtts(loop);
  std::size_t checked = 0;
  const std::uint64_t mismatches = verify_samples(loop, maps, &checked);
  const std::uint64_t failed = failed_requests(loop, report) + mismatches;
  report.add_attempted(rtts.size());
  report.add_failed(failed);
  if (mismatches > 0)
    report.check_failed(std::to_string(mismatches) + " of " +
                        std::to_string(checked) +
                        " sampled replies differ from the local engine");
  if (loop.swap_failures > 0) report.check_failed("a hot-swap failed");
  std::printf("%s: %zu requests in %.3f s, %llu failed, %zu replies checked, "
              "%llu swaps; p50 %.2f us, p99 %.2f us (%zu samples, %zu beyond "
              "p99)\n",
              label, rtts.size(), loop.wall_s,
              static_cast<unsigned long long>(failed), checked,
              static_cast<unsigned long long>(loop.swaps),
              percentile(rtts, 0.50), percentile(rtts, 0.99), rtts.size(),
              samples_beyond(rtts.size(), 0.99));
}

// --- traced-run helpers ---------------------------------------------------------

struct CodecTimes {
  double per_request_us = 0.0;
  std::array<double, kMixKinds.size()> reply_bytes{};
};

// The four protocol codecs timed on captured messages.
CodecTimes time_codecs(const LoopResult& loop) {
  std::vector<double> per_request;
  std::array<std::vector<double>, kMixKinds.size()> bytes;
  for (const ClientLog& log : loop.logs)
    for (const Sample& s : log.samples) {
      const std::int64_t t0 = now_ns();
      const std::string req = serve::encode_query_request(s.request);
      QueryRequest request;
      const bool req_ok = serve::decode_query_request(req, request);
      const std::string rep = serve::encode_query_response(s.response);
      QueryResponse response;
      const bool rep_ok = serve::decode_query_response(rep, response);
      per_request.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!req_ok || !rep_ok)
        throw std::runtime_error("codec round trip failed");
      const std::size_t slot = mix_slot(s.request.kind);
      if (slot < bytes.size()) bytes[slot].push_back(static_cast<double>(rep.size()));
    }
  CodecTimes out;
  out.per_request_us = median(per_request);
  for (std::size_t k = 0; k < bytes.size(); ++k) out.reply_bytes[k] = median(bytes[k]);
  return out;
}

}  // namespace

void run_serve_workload(const RunOptions& options, Report& report) {
  const bool mixed = options.workload == "serve_mixed";
  const Mix mix = mixed ? Mix::kMixed : Mix::kPoint;
  Tracer tracer(options.trace);
  const std::int64_t job_start = now_ns();

  // Preparation: the served maps.
  const std::string path_a = options.work_dir + "/serve_a.snap";
  const std::string path_b = options.work_dir + "/serve_b.snap";
  std::vector<double> snapshot_s, cpu_s, encode_s;
  const auto build = [&](std::uint64_t seed, const std::string& path) {
    const ChildOutcome child = run_in_child(
        [&](Fields& f) { build_served_snapshot(seed, path, f); });
    if (!child.ok) throw std::runtime_error("snapshot build: " + child.error);
    return child.fields;
  };
  const auto build_sample = [&](const std::string& path) {
    const Fields f = build(options.seed, path);
    snapshot_s.push_back(f.num("snapshot_s"));
    cpu_s.push_back(f.num("cpu_s"));
    encode_s.push_back(f.num("encode_s"));
    return f;
  };
  {
    ScopedSpan span(tracer, "serve.prepare");
    const Fields f = build_sample(path_a);
    std::printf("world: %.0f ASes, %.0f routers, %.0f interconnects; "
                "served map: %.0f segments, %llu bytes\n",
                f.num("ases"), f.num("routers"), f.num("interconnects"),
                f.num("segments"),
                static_cast<unsigned long long>(file_size(path_a)));
    if (mixed) build(options.seed + 1, path_b);
  }
  const std::string digest = check_snapshot_file(path_a);
  if (mixed) check_snapshot_file(path_b);
  const std::unique_ptr<LocalSnapshot> a = LocalSnapshot::open(path_a);
  const std::unique_ptr<LocalSnapshot> b =
      mixed ? LocalSnapshot::open(path_b) : nullptr;
  std::vector<const LocalSnapshot*> maps = {a.get()};
  if (mixed) maps.push_back(b.get());
  // Swap k installs swap_paths[k % 2]: odd swaps the seed+1 map, even ones
  // the seed's map again.
  const std::vector<std::string> swap_paths =
      mixed ? std::vector<std::string>{path_a, path_b}
            : std::vector<std::string>{};

  std::vector<double> load_ms;
  if (options.trace) {
    ScopedSpan span(tracer, "io.load");
    for (int i = 0; i < kLoadSamples; ++i) {
      const std::int64_t t0 = now_ns();
      std::string error;
      if (!serve::load_served_snapshot(path_a, nullptr, &error))
        throw std::runtime_error("load_served_snapshot: " + error);
      load_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }

  const int stretches = options.trace ? 2 : kStretches;
  std::printf("serve: closed loop, %d clients, one request in flight each; "
              "each client and its daemon thread on one cpu; cpus by "
              "stretch:",
              kClients);
  for (int k = 0; k < stretches; ++k)
    std::printf(" %s", cpu_list(stretch_cpus(options.trace ? 0 : k)).c_str());
  std::printf("\n");

  std::vector<double> setup;
  Daemon daemon;
  {
    ScopedSpan span(tracer, "serve.daemon_start");
    for (int i = 0; i < kSetupSamples; ++i) {
      double seconds = 0.0;
      std::string error;
      std::optional<Daemon> started =
          start_daemon(options.serve_bin, path_a, &seconds, &error);
      if (!started) throw std::runtime_error("daemon start: " + error);
      setup.push_back(seconds);
      if (i + 1 < kSetupSamples)
        stop_daemon(*started);
      else
        daemon = *started;
    }
  }

  // The timed run: kStretches stretches with a rebuild of the served map
  // before each stretch after the first, so the builds sample the same
  // minutes of the host as the loop. Every rebuild passes the file check
  // and gives the first build's digest. The traced run: one untraced
  // stretch and one traced stretch, no rebuilds.
  SwapState swaps;
  std::uint64_t issued_swaps = 0;
  LoopResult plain;
  LoopResult traced;
  const double stretch_seconds =
      static_cast<double>(options.seconds) / stretches;
  const std::string rebuilt = options.work_dir + "/serve_rebuilt.snap";
  std::size_t loop_span = 0;
  try {
    for (int k = 0; k < stretches; ++k) {
      if (options.trace && k == 1) {
        // On the untraced stretch's CPUs, so the two compare.
        ScopedSpan span(tracer, "serve.loop");
        run_loop(daemon, mix, *a, swap_paths, options.seed, stretch_seconds,
                 true, 0, swaps, traced);
        span.close();
        loop_span = span.index();
        continue;
      }
      if (k > 0) {
        build_sample(rebuilt);
        if (check_snapshot_file(rebuilt) != digest)
          report.check_failed("rebuilt served map differs from the first build");
        std::remove(rebuilt.c_str());
      }
      ScopedSpan span(tracer, "bench.untraced_loop");
      run_loop(daemon, mix, *a, swap_paths, options.seed, stretch_seconds,
               false, k, swaps, plain);
    }
    issued_swaps = plain.swaps + traced.swaps;
    if (options.trace) {
      std::uint64_t request_id = 0;
      for (const ClientLog& log : traced.logs)
        for (std::size_t i = 0; i < log.rtt_us.size(); ++i) {
          ++request_id;
          if (request_id % kSpanEvery != 0) continue;
          tracer.add(std::string("serve.rtt.") +
                         kind_slug(kMixKinds[log.slot[i]]),
                     log.start_ns[i],
                     log.start_ns[i] +
                         static_cast<std::int64_t>(log.rtt_us[i] * 1e3),
                     loop_span, request_id);
        }
    }
    std::string error;
    std::optional<serve::Client> control =
        serve::Client::connect("127.0.0.1", daemon.port, &error);
    serve::ServerStats stats;
    if (!control || !control->stats(stats, &error)) {
      report.check_failed("kStats: " + error);
    } else {
      std::printf("server stats: served %llu, failed %llu, swaps %llu "
                  "(issued %llu)\n",
                  static_cast<unsigned long long>(stats.served),
                  static_cast<unsigned long long>(stats.failed),
                  static_cast<unsigned long long>(stats.swaps),
                  static_cast<unsigned long long>(issued_swaps));
      if (stats.failed != 0)
        report.check_failed("kStats reports " + std::to_string(stats.failed) +
                            " failed requests");
      if (stats.swaps != issued_swaps)
        report.check_failed("kStats reports " + std::to_string(stats.swaps) +
                            " swaps, " + std::to_string(issued_swaps) +
                            " were issued");
    }
  } catch (...) {
    stop_daemon(daemon);
    throw;
  }
  const double peak_rss = stop_daemon(daemon);

  const std::vector<double> rtts = all_rtts(plain);
  {
    ScopedSpan span(tracer, "bench.verify");
    account_loop(options.trace ? "untraced loop" : "loop", plain, maps, report);
    if (options.trace) account_loop("traced loop", traced, maps, report);
  }

  if (!options.trace) {
    const PooledSummary loop = pool_windows(plain.windows);
    std::printf("measured: %zu client windows of %.2f s, %zu requests, %.0f "
                "req/s per client (windows p10 %.0f, p90 %.0f), p50 %.2f us, "
                "p99 %.2f us (%zu beyond)\n",
                plain.windows.size(), kWindowUs / 1e6, loop.samples, loop.qps,
                loop.p10_qps, loop.p90_qps, loop.p50_us, loop.p99_us,
                samples_beyond(loop.samples, 0.99));
    std::printf("samples: setup %zu, builds %zu; builds (snapshot/cpu s):",
                setup.size(), snapshot_s.size());
    for (std::size_t i = 0; i < snapshot_s.size(); ++i)
      std::printf(" %.3f/%.3f", snapshot_s[i], cpu_s[i]);
    std::printf("\n");
    report.metric("setup_s", median(setup), "s");
    // The fastest build, as in campaign_5k.
    report.metric("snapshot_s",
                  *std::min_element(snapshot_s.begin(), snapshot_s.end()), "s");
    report.metric("cpu_s", *std::min_element(cpu_s.begin(), cpu_s.end()), "s");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    // Each window holds one client's requests; the loop runs kClients.
    report.metric("qps", kClients * loop.qps, "1/s");
    report.metric("p50_us", loop.p50_us, "us");
    report.metric("p99_us", loop.p99_us, "us");
    return;
  }

  // Traced run: per-kind round trips, the in-process replay of the same
  // stream, and the codecs on captured messages.
  std::vector<std::pair<std::string, double>> values;
  std::array<std::vector<double>, kMixKinds.size()> rtt_by_kind;
  std::vector<QueryRequest> stream;
  for (const ClientLog& log : traced.logs) {
    for (std::size_t i = 0; i < log.rtt_us.size(); ++i)
      rtt_by_kind[log.slot[i]].push_back(log.rtt_us[i]);
    for (std::size_t i = 0; i < log.requests.size() &&
                            stream.size() < kReplayRequests;
         ++i)
      stream.push_back(log.requests[i]);
  }
  ReplayTimes replayed;
  {
    ScopedSpan span(tracer, "query.replay");
    replayed = replay(*a->engine, stream);
  }
  CodecTimes codecs;
  {
    ScopedSpan span(tracer, "serve.codec");
    codecs = time_codecs(traced);
  }
  const std::vector<double> traced_rtts = all_rtts(traced);
  for (std::size_t k = 0; k < kMixKinds.size(); ++k) {
    if (rtt_by_kind[k].empty()) continue;  // kind not in this mix
    const std::string slug = kind_slug(kMixKinds[k]);
    values.emplace_back("query.execute_us." + slug,
                        median(replayed.by_kind_us[k]));
    values.emplace_back("serve.rtt_us." + slug, median(rtt_by_kind[k]));
    values.emplace_back("serve.reply_bytes." + slug, codecs.reply_bytes[k]);
  }
  std::vector<double> swap_ms = plain.swap_ms;
  swap_ms.insert(swap_ms.end(), traced.swap_ms.begin(), traced.swap_ms.end());
  values.emplace_back("io.load_ms", median(load_ms));
  values.emplace_back("io.encode_s", median(encode_s));
  values.emplace_back("io.snapshot_bytes", static_cast<double>(file_size(path_a)));
  values.emplace_back("serve.codec_us", codecs.per_request_us);
  values.emplace_back("serve.swap_ms", median(swap_ms));
  values.emplace_back("serve.swaps", static_cast<double>(issued_swaps));
  values.emplace_back("serve.rtt_samples", static_cast<double>(traced_rtts.size()));
  values.emplace_back("serve.tail_p99_us", percentile(traced_rtts, 0.99));
  values.emplace_back("serve.tail_p999_us", percentile(traced_rtts, 0.999));
  std::printf("traced tail: p99 %.2f us (%zu beyond), p99.9 %.2f us (%zu "
              "beyond), %zu samples\n",
              percentile(traced_rtts, 0.99),
              samples_beyond(traced_rtts.size(), 0.99),
              percentile(traced_rtts, 0.999),
              samples_beyond(traced_rtts.size(), 0.999), traced_rtts.size());

  const std::int64_t job_end = now_ns();
  const double job_s = static_cast<double>(job_end - job_start) / 1e9;
  const double unattributed = tracer.unattributed_seconds(job_start, job_end);
  const double plain_p50 = percentile(rtts, 0.50);
  const double traced_p50 = percentile(traced_rtts, 0.50);
  std::printf("per-layer self time:\n");
  for (const auto& [layer, seconds] : tracer.layer_self_seconds()) {
    std::printf("  %-14s %8.3f s  %5.1f%%\n", layer.c_str(), seconds,
                100.0 * seconds / job_s);
    values.emplace_back("trace.self_s." + layer, seconds);
  }
  std::printf("unattributed %.3f s (%.2f%% of the job)\n", unattributed,
              100.0 * unattributed / job_s);
  std::printf("tracing overhead: traced p50 %.2f us vs untraced %.2f us "
              "(%+.1f%%); qps %.0f vs %.0f\n",
              traced_p50, plain_p50, 100.0 * (traced_p50 - plain_p50) / plain_p50,
              static_cast<double>(traced_rtts.size()) / traced.wall_s,
              static_cast<double>(rtts.size()) / plain.wall_s);
  values.emplace_back("trace.job_s", job_s);
  values.emplace_back("trace.unattributed_s", unattributed);
  values.emplace_back("trace.overhead_pct",
                      100.0 * (traced_p50 - plain_p50) / plain_p50);
  const std::string trace_path = options.trace_dir + "/" + options.workload +
                                 "-seed" + std::to_string(options.seed) +
                                 ".json";
  std::ofstream out(trace_path);
  tracer.write_json(out, job_start, job_end);
  std::printf("spans written to %s\n", trace_path.c_str());
  report_per_layer(values, report);
}

}  // namespace perfbench
