// cloudmap_serve — the snapshot-serving query daemon. Maps a format-v3
// snapshot zero-copy (io/mapped_snapshot.h), binds a loopback TCP port, and
// answers framed QueryRequests (serve/protocol.h) from any number of
// concurrent clients until told to stop. The served snapshot can be
// hot-swapped at any time — `cloudmap_cli remote HOST:PORT swap PATH` —
// without dropping a single in-flight query (serve/server.h).
//
//   cloudmap_serve --snapshot FILE [--port N] [--max-clients N]
//                  [--no-metrics]
//
// With --port 0 (the default) the kernel picks a free port; the daemon
// prints `listening on 127.0.0.1:PORT` once ready, so scripts can scrape
// the port from the first output line (see tests/serve_smoke.py). Talk to
// it with `cloudmap_cli remote 127.0.0.1:PORT counts` and friends.
//
// Environment equivalents: CLOUDMAP_SERVE_SNAPSHOT, CLOUDMAP_SERVE_PORT,
// CLOUDMAP_SERVE_MAX_CLIENTS (flags override).
#include <cstdio>
#include <string>

#include "core/options.h"
#include "obs/metrics.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  const cloudmap::ServeOptions options =
      cloudmap::serve_options_from_env_and_args(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.error.c_str());
    return 2;
  }
  if (options.snapshot_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --snapshot FILE [--port N] [--max-clients N] "
                 "[--no-metrics]\n",
                 argv[0]);
    return 2;
  }

  cloudmap::MetricsRegistry registry(options.metrics);
  cloudmap::serve::Server::Config config;
  config.port = options.port;
  config.max_clients = options.max_clients;
  cloudmap::serve::Server server(config, &registry);

  std::string error;
  if (!server.start(options.snapshot_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::printf("serving %s (max %d clients)\n", options.snapshot_path.c_str(),
              options.max_clients);
  std::fflush(stdout);

  server.wait();

  const cloudmap::serve::ServerStats stats = server.stats();
  std::printf("stopped: served %llu, failed %llu, swaps %llu\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.swaps));
  return 0;
}
