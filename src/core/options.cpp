#include "core/options.h"

#include <cstdlib>

namespace cloudmap {

namespace {

// Strict non-negative integer parse; -1 on failure.
int parse_threads(const std::string& text) {
  if (text.empty()) return -1;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 0) return -1;
  return static_cast<int>(value);
}

// Strict finite-double parse; false on trailing garbage or empty input.
bool parse_double(const std::string& text, double& into) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  if (!(value == value)) return false;  // NaN
  into = value;
  return true;
}

bool env_truthy(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

FrontendOptions options_from_env() {
  FrontendOptions out;
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_THREADS")) {
    const int threads = parse_threads(env);
    if (threads < 0) {
      out.error = std::string("CLOUDMAP_THREADS expects a non-negative "
                              "integer, got '") +
                  env + "'";
      return out;
    }
    out.pipeline.campaign.threads = threads;
  }
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_METRICS_JSON"))
    out.metrics_json = env;
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_RETRY_BUDGET")) {
    const int budget = parse_threads(env);
    if (budget < 0) {
      out.error = std::string("CLOUDMAP_RETRY_BUDGET expects a non-negative "
                              "integer, got '") +
                  env + "'";
      return out;
    }
    out.pipeline.campaign.reprobe.budget = budget;
  }
  if (env_truthy(std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_DETERMINISTIC_METRICS")))
    out.pipeline.deterministic_metrics = true;
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_HAZARD_PROFILE")) {
    std::string parse_error;
    const auto profile = HazardProfile::parse(env, &parse_error);
    if (!profile) {
      out.error =
          std::string("CLOUDMAP_HAZARD_PROFILE: ") + parse_error;
      return out;
    }
    out.hazard_profile = *profile;
  }
  return out;
}

FrontendOptions options_from_env_and_args(int argc, char** argv) {
  FrontendOptions out = options_from_env();
  if (!out.ok()) return out;

  const auto flag_value = [&](int& i, const char* flag,
                              std::string& into) -> bool {
    if (i + 1 >= argc) {
      out.error = std::string("error: ") + flag + " requires a value";
      return false;
    }
    into = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      std::string value;
      if (!flag_value(i, "--threads", value)) return out;
      const int threads = parse_threads(value);
      if (threads < 0) {
        out.error = "error: --threads expects a non-negative integer, got '" +
                    value + "'";
        return out;
      }
      out.pipeline.campaign.threads = threads;
    } else if (arg == "--metrics-json") {
      if (!flag_value(i, "--metrics-json", out.metrics_json)) return out;
      out.pipeline.metrics = true;
    } else if (arg == "--metrics-csv") {
      if (!flag_value(i, "--metrics-csv", out.metrics_csv)) return out;
      out.pipeline.metrics = true;
    } else if (arg == "--retry-budget") {
      std::string value;
      if (!flag_value(i, "--retry-budget", value)) return out;
      const int budget = parse_threads(value);
      if (budget < 0) {
        out.error =
            "error: --retry-budget expects a non-negative integer, got '" +
            value + "'";
        return out;
      }
      out.pipeline.campaign.reprobe.budget = budget;
    } else if (arg == "--retry-backoff") {
      std::string value;
      if (!flag_value(i, "--retry-backoff", value)) return out;
      const int ticks = parse_threads(value);
      if (ticks < 0) {
        out.error =
            "error: --retry-backoff expects a non-negative integer, got '" +
            value + "'";
        return out;
      }
      out.pipeline.campaign.reprobe.backoff_base_ticks =
          static_cast<std::uint64_t>(ticks);
    } else if (arg == "--response-scale") {
      std::string value;
      if (!flag_value(i, "--response-scale", value)) return out;
      double scale = 1.0;
      if (!parse_double(value, scale) || scale < 0.0 || scale > 1.0) {
        out.error = "error: --response-scale expects a number in [0, 1], "
                    "got '" +
                    value + "'";
        return out;
      }
      out.pipeline.campaign.traceroute.response_scale = scale;
    } else if (arg == "--host-response") {
      std::string value;
      if (!flag_value(i, "--host-response", value)) return out;
      double probability = 0.0;
      if (!parse_double(value, probability) || probability < 0.0 ||
          probability > 1.0) {
        out.error = "error: --host-response expects a number in [0, 1], "
                    "got '" +
                    value + "'";
        return out;
      }
      out.pipeline.campaign.traceroute.host_response = probability;
    } else if (arg == "--min-confidence") {
      std::string value;
      if (!flag_value(i, "--min-confidence", value)) return out;
      double threshold = 0.0;
      if (!parse_double(value, threshold) || threshold < 0.0 ||
          threshold > 1.0) {
        out.error = "error: --min-confidence expects a number in [0, 1], "
                    "got '" +
                    value + "'";
        return out;
      }
      out.min_confidence = threshold;
    } else if (arg == "--hazard-profile") {
      std::string value;
      if (!flag_value(i, "--hazard-profile", value)) return out;
      std::string parse_error;
      const auto profile = HazardProfile::parse(value, &parse_error);
      if (!profile) {
        out.error = "error: --hazard-profile: " + parse_error;
        return out;
      }
      out.hazard_profile = *profile;
    } else if (arg == "--shard") {
      std::string value;
      if (!flag_value(i, "--shard", value)) return out;
      const std::size_t slash = value.find('/');
      const int index =
          slash == std::string::npos ? -1
                                     : parse_threads(value.substr(0, slash));
      const int count =
          slash == std::string::npos ? -1
                                     : parse_threads(value.substr(slash + 1));
      if (index < 0 || count < 1 || index >= count) {
        out.error = "error: --shard expects I/N with 0 <= I < N, got '" +
                    value + "'";
        return out;
      }
      out.pipeline.campaign.shard_index = index;
      out.pipeline.campaign.shard_count = count;
    } else if (arg == "--shard-round") {
      std::string value;
      if (!flag_value(i, "--shard-round", value)) return out;
      const int round = parse_threads(value);
      if (round != 1 && round != 2) {
        out.error = "error: --shard-round expects 1 or 2, got '" + value + "'";
        return out;
      }
      out.shard_round = round;
    } else if (arg == "--deterministic-metrics") {
      out.pipeline.deterministic_metrics = true;
    } else if (arg == "--no-metrics") {
      out.pipeline.metrics = false;
      out.metrics_json.clear();
      out.metrics_csv.clear();
    } else {
      out.positional.push_back(arg);
    }
  }
  return out;
}

ServeOptions serve_options_from_env_and_args(int argc, char** argv) {
  ServeOptions out;

  const auto parse_port = [&](const std::string& text, const char* what,
                              int& into) {
    const int value = parse_threads(text);
    if (value < 0 || value > 65535) {
      out.error = std::string("error: ") + what +
                  " expects a port number in [0, 65535], got '" + text + "'";
      return false;
    }
    into = value;
    return true;
  };
  const auto parse_clients = [&](const std::string& text, const char* what,
                                 int& into) {
    const int value = parse_threads(text);
    if (value < 1) {
      out.error = std::string("error: ") + what +
                  " expects a positive integer, got '" + text + "'";
      return false;
    }
    into = value;
    return true;
  };

  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_SERVE_PORT")) {
    if (!parse_port(env, "CLOUDMAP_SERVE_PORT", out.port)) return out;
  }
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_SERVE_SNAPSHOT"))
    out.snapshot_path = env;
  if (const char* env = std::getenv(  // NOLINT(concurrency-mt-unsafe) -- startup, pre-thread
          "CLOUDMAP_SERVE_MAX_CLIENTS")) {
    if (!parse_clients(env, "CLOUDMAP_SERVE_MAX_CLIENTS", out.max_clients))
      return out;
  }

  const auto flag_value = [&](int& i, const char* flag,
                              std::string& into) -> bool {
    if (i + 1 >= argc) {
      out.error = std::string("error: ") + flag + " requires a value";
      return false;
    }
    into = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      std::string value;
      if (!flag_value(i, "--port", value)) return out;
      if (!parse_port(value, "--port", out.port)) return out;
    } else if (arg == "--snapshot") {
      if (!flag_value(i, "--snapshot", out.snapshot_path)) return out;
    } else if (arg == "--max-clients") {
      std::string value;
      if (!flag_value(i, "--max-clients", value)) return out;
      if (!parse_clients(value, "--max-clients", out.max_clients)) return out;
    } else if (arg == "--no-metrics") {
      out.metrics = false;
    } else {
      out.error = "error: unknown argument '" + arg + "'";
      return out;
    }
  }
  return out;
}

}  // namespace cloudmap
