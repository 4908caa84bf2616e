// proteusd — the compile-once / evaluate-many serving daemon
// (docs/SERVING.md).
//
// Speaks newline-delimited JSON: one request object per line, one reply
// per line. Programs compile once through the full pipeline, land in a
// module cache keyed by source hash + compile options (optionally
// persisted as VCODE module images shared with `proteusc
// --module-cache`), and every evaluation runs inside its own governor
// scope, so a request that blows its budget gets a structured T00x error
// reply while the daemon keeps serving.
//
//   proteusd --stdio                      # stdin/stdout (tests, CI smoke)
//   proteusd --port 0                     # TCP; port 0 picks a free port
//   proteusd --port 7571 --workers 4 --cache-dir /var/tmp/proteus-cache
//   proteusd --port 0 --metrics-port 9090 --trace-sample-rate 0.01
//
// Telemetry (docs/OBSERVABILITY.md): every request gets a request_id,
// latency histograms, and a structured log line on stderr; sampled
// requests keep their span trace in a ring served by {"op":"trace"}.
// --metrics-port starts a second listener answering HTTP GET /metrics
// with the OpenMetrics exposition for Prometheus.
//
// Overload & lifecycle (docs/SERVING.md): admission is bounded
// (--max-queue/--max-conns shed with S001 busy frames), every connection
// is deadline-guarded (--idle-timeout-ms/--io-timeout-ms/
// --max-line-bytes), and SIGTERM/SIGINT drain gracefully: stop
// accepting, serve in-flight and queued requests for up to --drain-ms,
// then exit 0. {"op":"health"} reports ok|draining for readiness probes.
//
// Exit codes: 0 clean shutdown (including a signal-driven drain),
// 1 transport failure, 2 usage error.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "core/proteus.hpp"
#include "obs/log.hpp"
#include "rt/fault.hpp"
#include "serve/server.hpp"

namespace {

// Signal handling: the handlers only set this flag (the only thing
// async-signal-safe to do); the transports poll it through
// ServerOptions::shutdown_flag and run the drain on their own threads.
// Installed WITHOUT SA_RESTART so a SIGTERM interrupts a blocked
// stdin read with EINTR instead of silently restarting it — that is
// what lets --stdio drain promptly.
volatile std::sig_atomic_t g_shutdown_requested = 0;

#if !defined(_WIN32)
extern "C" void on_shutdown_signal(int) { g_shutdown_requested = 1; }

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must see EINTR
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}
#else
void install_signal_handlers() {
  std::signal(SIGTERM, [](int) { g_shutdown_requested = 1; });
  std::signal(SIGINT, [](int) { g_shutdown_requested = 1; });
}
#endif

void usage(std::ostream& os) {
  os << "usage: proteusd [--stdio | --port N] [options]\n"
        "\n"
        "transports:\n"
        "  --stdio                serve newline-delimited JSON on stdin/stdout\n"
        "  --port N               serve TCP on --host:N (0 picks a free port;\n"
        "                         the chosen port is announced on stdout)\n"
        "  --host ADDR            TCP bind address (default 127.0.0.1)\n"
        "  --workers N            TCP worker threads (default 2)\n"
        "  --metrics-port N       also answer HTTP GET /metrics on --host:N\n"
        "                         with the OpenMetrics text exposition\n"
        "                         (0 picks a free port, announced on stderr)\n"
        "\n"
        "compilation and cache:\n"
        "  --cache-dir DIR        persist compiled modules as <hash>.pvcm\n"
        "                         images under DIR (shared with proteusc\n"
        "                         --module-cache); default: in-memory only\n"
        "  --no-optimize          skip the VCODE optimizer (-O0 modules)\n"
        "  --no-verify            skip bytecode verification of assembled\n"
        "                         and disk-loaded modules\n"
        "\n"
        "telemetry (docs/OBSERVABILITY.md):\n"
        "  --log-level LVL        request/trap log threshold: debug, info,\n"
        "                         warn, error, off (default info; logs go\n"
        "                         to stderr)\n"
        "  --log-json             structured NDJSON log lines instead of\n"
        "                         key=value text\n"
        "  --trace-sample-rate R  fraction of requests (0..1) whose span\n"
        "                         trace is recorded for {\"op\":\"trace\"}\n"
        "                         (default 0)\n"
        "  --trace-ring N         keep the last N sampled request traces\n"
        "                         (default 32)\n"
        "  --no-telemetry         disable the per-request telemetry wrapper\n"
        "                         entirely (request ids, histograms, logs,\n"
        "                         sampling)\n"
        "\n"
        "per-request resource ceilings (0 = unlimited; a request's own\n"
        "\"budget\" object can tighten but never exceed these):\n"
        "  --max-budget-bytes N   resident vector bytes (T001)\n"
        "  --max-budget-steps N   element-work steps (T002)\n"
        "  --max-budget-depth N   call/nesting depth (T003)\n"
        "  --max-budget-deadline-ms N  wall-clock per request (T004)\n"
        "\n"
        "overload protection & lifecycle (docs/SERVING.md; TCP transport;\n"
        "0 disables a knob):\n"
        "  --max-queue N          connections waiting for a worker before\n"
        "                         new ones are shed with an S001 busy frame\n"
        "                         (default 64)\n"
        "  --max-conns N          total accepted connections, queued plus\n"
        "                         in service (default 0 = unbounded)\n"
        "  --idle-timeout-ms N    close a connection that sends nothing for\n"
        "                         this long, S002 (default 60000)\n"
        "  --io-timeout-ms N      close a connection whose mid-request I/O\n"
        "                         stalls this long, S003 (default 10000)\n"
        "  --max-line-bytes N     per-request-line byte bound, S004\n"
        "                         (default 8388608)\n"
        "  --drain-ms N           SIGTERM/SIGINT grace: serve in-flight and\n"
        "                         queued requests for up to N ms, then exit\n"
        "                         0 (default 5000)\n"
        "  --retry-after-ms N     backoff hint stamped into S001/S005\n"
        "                         shedding frames (default 100)\n"
        "  --inject SPEC          deterministic fault injection at the\n"
        "                         socket wrappers, e.g. sock-read:3 (S006),\n"
        "                         sock-write:2 (S007), sock-stall:1 (S008);\n"
        "                         also via PROTEUS_FAULT\n"
        "\n"
        "  --help                 show this help\n"
        "\n"
        "protocol (one JSON object per line; docs/SERVING.md has the full\n"
        "schema):\n"
        "  {\"op\":\"ping\"}\n"
        "  {\"op\":\"compile\",\"source\":\"fun f(n: int): int = n*n\"}\n"
        "  {\"op\":\"eval\",\"source\":\"...\",\"fun\":\"f\",\"args\":[\"7\"],\n"
        "   \"budget\":{\"steps\":100000}}\n"
        "  {\"op\":\"metrics\"}   {\"op\":\"metrics\",\"format\":\"openmetrics\"}\n"
        "  {\"op\":\"trace\",\"limit\":5}   {\"op\":\"health\"}   "
        "{\"op\":\"shutdown\"}\n";
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool parse_rate(std::string_view s, double* out) {
  if (s.empty()) return false;
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(s), &used);
    if (used != s.size() || v < 0.0 || v > 1.0) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  proteus::serve::ServerOptions options;
  bool stdio = false;
  bool have_port = false;
  int port = 0;
  bool have_metrics_port = false;
  int metrics_port = 0;
  std::string host = "127.0.0.1";
  proteus::obs::LogLevel log_level = proteus::obs::LogLevel::kInfo;
  bool log_json = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "proteusd: " << argv[i] << " needs a value\n";
      std::exit(2);
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::uint64_t n = 0;
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--port") {
      if (!parse_u64(need_value(i), &n) || n > 65535) {
        std::cerr << "proteusd: --port needs 0..65535\n";
        return 2;
      }
      port = static_cast<int>(n);
      have_port = true;
      ++i;
    } else if (arg == "--metrics-port") {
      if (!parse_u64(need_value(i), &n) || n > 65535) {
        std::cerr << "proteusd: --metrics-port needs 0..65535\n";
        return 2;
      }
      metrics_port = static_cast<int>(n);
      have_metrics_port = true;
      ++i;
    } else if (arg == "--host") {
      host = need_value(i);
      ++i;
    } else if (arg == "--workers") {
      if (!parse_u64(need_value(i), &n) || n == 0 || n > 256) {
        std::cerr << "proteusd: --workers needs 1..256\n";
        return 2;
      }
      options.workers = static_cast<int>(n);
      ++i;
    } else if (arg == "--cache-dir") {
      options.cache_dir = need_value(i);
      ++i;
    } else if (arg == "--no-optimize") {
      options.optimize = false;
    } else if (arg == "--no-verify") {
      options.verify = false;
    } else if (arg == "--log-level") {
      bool ok = false;
      log_level = proteus::obs::parse_log_level(need_value(i), &ok);
      if (!ok) {
        std::cerr << "proteusd: --log-level needs debug, info, warn, error,"
                     " or off\n";
        return 2;
      }
      ++i;
    } else if (arg == "--log-json") {
      log_json = true;
    } else if (arg == "--trace-sample-rate") {
      if (!parse_rate(need_value(i), &options.trace_sample_rate)) {
        std::cerr << "proteusd: --trace-sample-rate needs 0..1\n";
        return 2;
      }
      ++i;
    } else if (arg == "--trace-ring") {
      if (!parse_u64(need_value(i), &n) || n == 0 || n > 65536) {
        std::cerr << "proteusd: --trace-ring needs 1..65536\n";
        return 2;
      }
      options.trace_ring_capacity = static_cast<std::size_t>(n);
      ++i;
    } else if (arg == "--no-telemetry") {
      options.telemetry = false;
    } else if (arg == "--max-budget-bytes") {
      if (!parse_u64(need_value(i), &n)) {
        std::cerr << "proteusd: --max-budget-bytes needs a number\n";
        return 2;
      }
      options.max_budget.max_resident_bytes = n;
      ++i;
    } else if (arg == "--max-budget-steps") {
      if (!parse_u64(need_value(i), &n)) {
        std::cerr << "proteusd: --max-budget-steps needs a number\n";
        return 2;
      }
      options.max_budget.max_steps = n;
      ++i;
    } else if (arg == "--max-budget-depth") {
      if (!parse_u64(need_value(i), &n) || n > 1000000) {
        std::cerr << "proteusd: --max-budget-depth needs 0..1000000\n";
        return 2;
      }
      options.max_budget.max_depth = static_cast<int>(n);
      ++i;
    } else if (arg == "--max-budget-deadline-ms") {
      if (!parse_u64(need_value(i), &n)) {
        std::cerr << "proteusd: --max-budget-deadline-ms needs a number\n";
        return 2;
      }
      options.max_budget.deadline_ms = n;
      ++i;
    } else if (arg == "--max-queue") {
      if (!parse_u64(need_value(i), &n) || n > 1000000) {
        std::cerr << "proteusd: --max-queue needs 0..1000000\n";
        return 2;
      }
      options.max_queue = static_cast<int>(n);
      ++i;
    } else if (arg == "--max-conns") {
      if (!parse_u64(need_value(i), &n) || n > 1000000) {
        std::cerr << "proteusd: --max-conns needs 0..1000000\n";
        return 2;
      }
      options.max_conns = static_cast<int>(n);
      ++i;
    } else if (arg == "--idle-timeout-ms") {
      if (!parse_u64(need_value(i), &n) || n > 86400000) {
        std::cerr << "proteusd: --idle-timeout-ms needs 0..86400000\n";
        return 2;
      }
      options.idle_timeout_ms = static_cast<int>(n);
      ++i;
    } else if (arg == "--io-timeout-ms") {
      if (!parse_u64(need_value(i), &n) || n > 86400000) {
        std::cerr << "proteusd: --io-timeout-ms needs 0..86400000\n";
        return 2;
      }
      options.io_timeout_ms = static_cast<int>(n);
      ++i;
    } else if (arg == "--max-line-bytes") {
      if (!parse_u64(need_value(i), &n)) {
        std::cerr << "proteusd: --max-line-bytes needs a number\n";
        return 2;
      }
      options.max_line_bytes = static_cast<std::size_t>(n);
      ++i;
    } else if (arg == "--drain-ms") {
      if (!parse_u64(need_value(i), &n) || n > 86400000) {
        std::cerr << "proteusd: --drain-ms needs 0..86400000\n";
        return 2;
      }
      options.drain_ms = static_cast<int>(n);
      ++i;
    } else if (arg == "--retry-after-ms") {
      if (!parse_u64(need_value(i), &n) || n > 86400000) {
        std::cerr << "proteusd: --retry-after-ms needs 0..86400000\n";
        return 2;
      }
      options.retry_after_ms = static_cast<int>(n);
      ++i;
    } else if (arg == "--inject") {
      try {
        proteus::rt::arm_faults(
            proteus::rt::parse_fault_plan(need_value(i)));
      } catch (const proteus::Error& e) {
        std::cerr << "proteusd: " << e.what() << "\n";
        return 2;
      }
      ++i;
    } else {
      std::cerr << "proteusd: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (stdio == have_port) {
    std::cerr << "proteusd: pick exactly one transport: --stdio or --port N\n";
    return 2;
  }

  // Request/trap logs go to stderr so --stdio's NDJSON stays clean.
  proteus::obs::logger().configure(
      options.telemetry ? log_level : proteus::obs::LogLevel::kOff, log_json,
      &std::cerr);

  install_signal_handlers();
  options.shutdown_flag = &g_shutdown_requested;

  proteus::serve::Server server(options);
  if (!options.cache_dir.empty()) {
    std::cerr << "proteusd: module cache at " << options.cache_dir << "\n";
  }

  // The metrics scrape endpoint runs on its own thread next to the main
  // transport; its announce line goes to stderr so it never pollutes the
  // --stdio NDJSON stream.
  std::thread metrics_thread;
  if (have_metrics_port) {
    metrics_thread = std::thread([&server, host, metrics_port] {
      if (server.serve_metrics_http(host, metrics_port, std::cerr) != 0) {
        std::cerr << "proteusd: failed to bind metrics port\n";
      }
    });
  }

  int rc = 0;
  if (stdio) {
    rc = server.serve_stdio(std::cin, std::cout);
  } else {
    rc = server.serve_tcp(host, port, std::cout);
    if (rc != 0) {
      std::cerr << "proteusd: failed to bind " << host << ":" << port << "\n";
    }
  }
  server.request_stop();  // winds the metrics listener down too
  if (metrics_thread.joinable()) metrics_thread.join();
  return rc;
}
