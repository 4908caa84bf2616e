// server.hpp — proteusd's request engine: compile-once / evaluate-many
// serving of P programs over newline-delimited JSON (docs/SERVING.md).
//
// One Server owns one ModuleCache and one metrics aggregate; transports
// are thin shells around `handle_line` (one NDJSON request in, one NDJSON
// reply out):
//
//   * serve_stdio — single-threaded stdin/stdout loop (`proteusd
//     --stdio`): what the CI smoke job and the tests drive.
//   * serve_tcp — a listener plus a small worker pool; each worker owns
//     one connection at a time and calls handle_line per request line.
//     Admission is bounded (--max-queue/--max-conns: over-capacity
//     connections are shed with a structured S001 busy frame instead of
//     queueing without bound), every read/write is poll-guarded by the
//     idle/I/O timeouts and the per-line byte bound (S002–S004), and the
//     wrappers are fault-injectable (PROTEUS_FAULT=sock-read:N,...) for
//     chaos testing. See docs/SERVING.md "Overload & lifecycle".
//   * serve_metrics_http — an optional second listener (`--metrics-port`)
//     answering HTTP `GET /metrics` with the OpenMetrics exposition, so
//     a stock Prometheus can scrape the daemon.
//
// Lifecycle: the server runs, then either stops (request_stop — the
// {"op":"shutdown"} path: transports wind down after the in-flight
// request; queued connections are retired with an S005 frame) or drains
// (begin_drain — the SIGTERM/SIGINT path: stop accepting, serve
// everything in flight and queued for up to drain_ms, then stop).
// {"op":"health"} reports ok|draining|stopping plus queue depth for
// readiness probes.
//
// handle_line is fully thread-safe and is also the unit the concurrency
// tests hammer directly (no sockets needed): the cache is mutex-guarded,
// metrics go through a mutex-guarded MetricsRegistry (the registry itself
// is a plain map), and every evaluation runs inside its own
// rt::GovernorScope — per-request budgets on the worker's thread, traps
// returned as structured {"ok":false,"error":{...}} replies while the
// daemon keeps serving (the per-thread governor refactor in
// rt/governor.hpp is what makes budgets request-local).
//
// Telemetry (docs/OBSERVABILITY.md): every request gets a server-assigned
// `request_id` echoed in its reply, a latency observation into the
// serve.*.duration_us histograms (hit/miss split for evals), and — when
// structured logging is configured — one NDJSON log line. Requests
// sampled at `trace_sample_rate` additionally record their spans into a
// per-request tracer (obs::ThreadTracerScope, so concurrent workers never
// share a sink) kept in a bounded ring and served back as Chrome-trace
// JSON by {"op":"trace"} — a slow production request can be opened in
// Perfetto after the fact.
//
// Protocol (one JSON object per line; full schema in docs/SERVING.md):
//
//   {"op":"ping"}
//   {"op":"compile","source":"fun f(...)...","entry":"f(3)"?}
//   {"op":"eval","source":...|"key":"<16 hex>","fun":"f","args":["[1,2]"],
//    "budget":{"steps":..,"bytes":..,"depth":..,"deadline_ms":..}?}
//   {"op":"eval","source":...,"entry":"f(3)"}        (entry evaluation)
//   {"op":"metrics"}   {"op":"metrics","format":"openmetrics"}
//   {"op":"trace","request_id":"<16 hex>"?,"limit":N?}
//   {"op":"health"}
//   {"op":"shutdown"}
//
// Every request may carry an "id", echoed verbatim in the reply.
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "rt/governor.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/trap.hpp"

namespace proteus::serve {

struct ServerOptions {
  /// Run the VCODE optimizer on compiled programs (proteusd --no-optimize).
  bool optimize = true;
  /// Bytecode-verify assembled and disk-loaded modules (--no-verify).
  bool verify = true;
  /// Persistent module-cache directory; empty = in-memory only.
  std::string cache_dir;
  /// TCP worker threads (ignored by --stdio).
  int workers = 2;
  /// Ceiling applied to every request. A request's own "budget" object
  /// may only tighten these (a client cannot out-budget the daemon).
  rt::ExecBudget max_budget;
  /// Plan-based admission control (proteusd --admission): evals whose
  /// static peak-resident bound exceeds the request's max_resident_bytes
  /// budget trap T001 before any work runs. See docs/SERVING.md.
  bool admission = false;
  /// Master switch for the per-request telemetry wrapper (request ids,
  /// histograms, logs, sampling). Off = PR 6 request path exactly
  /// (proteusd --no-telemetry; bench_obs_overhead's baseline).
  bool telemetry = true;
  /// Fraction of requests whose spans are recorded into the trace ring
  /// (0 = never, 1 = every request). Sampling is deterministic in the
  /// request sequence number, not random.
  double trace_sample_rate = 0.0;
  /// Bounded ring of most-recent sampled request traces served by
  /// {"op":"trace"}.
  std::size_t trace_ring_capacity = 32;

  // --- Overload protection & connection lifecycle (serve_tcp only; see
  // --- docs/SERVING.md "Overload & lifecycle"). 0 disables a knob.

  /// Maximum connections waiting for a worker (--max-queue). An accept
  /// beyond this is shed with a structured S001 busy frame instead of
  /// queueing without bound.
  int max_queue = 64;
  /// Maximum total accepted connections, queued + in service
  /// (--max-conns). 0 = bounded only by max_queue + workers.
  int max_conns = 0;
  /// Close a connection that sends nothing for this long (S002 frame).
  int idle_timeout_ms = 60000;
  /// Close a connection whose read/write makes no progress for this
  /// long mid-request (S003 frame). One stalled client can never pin a
  /// worker past this bound.
  int io_timeout_ms = 10000;
  /// Per-request-line byte bound; a newline-free or oversized line gets
  /// a structured S004 reply and the connection is closed.
  std::size_t max_line_bytes = 8u << 20;
  /// Grace period for begin_drain(): in-flight and queued requests are
  /// served for up to this long before the server stops.
  int drain_ms = 5000;
  /// retry_after_ms stamped into S001/S005 shedding frames — the busy
  /// client's backoff hint.
  int retry_after_ms = 100;
  /// Async-signal-safe external shutdown request: when non-null, the
  /// transports poll it and call begin_drain() once it becomes nonzero
  /// (proteusd points it at its SIGTERM/SIGINT flag).
  const volatile std::sig_atomic_t* shutdown_flag = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Handles one NDJSON request line, returns the reply line (without the
  /// trailing newline). Never throws; thread-safe.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Structured form of handle_line for in-process callers/tests. With
  /// telemetry on this is the per-request wrapper: request_id assignment,
  /// duration histograms, log line, trace sampling.
  [[nodiscard]] Json handle_request(const Json& request);

  /// Reads request lines from `in` until EOF or a shutdown request,
  /// writing one reply line per request to `out`. Returns 0 on a clean
  /// finish.
  int serve_stdio(std::istream& in, std::ostream& out);

  /// Binds `host:port` (port 0 picks a free port), announces
  /// "proteusd listening on <port>" on `announce`, then serves until a
  /// shutdown request. Returns 0 on a clean finish, 1 on socket failure.
  int serve_tcp(const std::string& host, int port, std::ostream& announce);

  /// Binds `host:port` and answers HTTP `GET /metrics` with the
  /// OpenMetrics exposition (anything else is a 404) until a shutdown
  /// request. Announces "proteusd metrics on <port>" on `announce`.
  /// Returns 0 on a clean finish, 1 on socket failure. Run it on its own
  /// thread next to serve_tcp/serve_stdio.
  int serve_metrics_http(const std::string& host, int port,
                         std::ostream& announce);

  /// Port serve_metrics_http bound (for tests); -1 until bound.
  [[nodiscard]] int metrics_http_port() const {
    return metrics_port_.load(std::memory_order_acquire);
  }

  /// Port serve_tcp bound (for tests); -1 until bound.
  [[nodiscard]] int tcp_port() const {
    return tcp_port_.load(std::memory_order_acquire);
  }

  /// Makes the transports wind down after the in-flight request.
  /// Queued-but-unserved connections are retired with an S005 frame.
  void request_stop() {
    lifecycle_.store(static_cast<int>(Lifecycle::kStopping),
                     std::memory_order_release);
  }
  [[nodiscard]] bool stopping() const {
    return lifecycle_.load(std::memory_order_acquire) ==
           static_cast<int>(Lifecycle::kStopping);
  }

  /// Flips a running server into draining mode: serve_tcp stops
  /// accepting, in-flight and queued requests are served for up to
  /// options().drain_ms, then the server stops. Idempotent; a no-op on a
  /// server that is already draining or stopping. This is what the
  /// SIGTERM/SIGINT handlers reach through ServerOptions::shutdown_flag.
  void begin_drain();
  [[nodiscard]] bool draining() const {
    return lifecycle_.load(std::memory_order_acquire) ==
           static_cast<int>(Lifecycle::kDraining);
  }

  /// Snapshot of the serve.* counters, histograms, and gauges
  /// (docs/OBSERVABILITY.md). The registry is copied under the lock;
  /// uptime/inflight gauges are stamped after.
  [[nodiscard]] obs::MetricsRegistry metrics() const;

  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] ModuleCache& cache() { return cache_; }

 private:
  enum class Lifecycle : int { kRunning = 0, kDraining = 1, kStopping = 2 };

  /// Outcome of one poll-guarded socket operation.
  enum class IoStatus : std::uint8_t {
    kOk,       ///< progress was made
    kTimeout,  ///< no progress within the caller's timeout
    kClosed,   ///< orderly EOF from the peer
    kError,    ///< reset/injected fault/unrecoverable errno
    kStopped,  ///< the server stopped while waiting
  };

  /// One sampled request's recorded spans, kept for {"op":"trace"}.
  struct RequestTrace {
    std::string request_id;
    std::string op;
    std::uint64_t duration_us = 0;
    std::vector<obs::TraceEvent> events;
  };

  /// The op switch (ping/compile/eval/metrics/trace/health/shutdown)
  /// without the telemetry envelope.
  [[nodiscard]] Json dispatch_op(const Json& request);

  [[nodiscard]] Json do_compile(const Json& req);
  [[nodiscard]] Json do_eval(const Json& req);
  [[nodiscard]] Json do_metrics(const Json& req);
  [[nodiscard]] Json do_trace(const Json& req);
  [[nodiscard]] Json do_health(const Json& req);

  [[nodiscard]] bool accepting() const {
    return lifecycle_.load(std::memory_order_acquire) ==
           static_cast<int>(Lifecycle::kRunning);
  }
  /// Milliseconds left before the drain deadline: -1 when not draining,
  /// 0 once the deadline has passed.
  [[nodiscard]] int drain_remaining_ms() const;
  /// Observes options_.shutdown_flag (the signal handlers' flag) and
  /// begins draining when it is set.
  void poll_external_shutdown();

#if !defined(_WIN32)
  /// One step of both accept loops: polls `listen_fd` for up to 200 ms
  /// and accepts. Returns the connection fd, or -1 (none, or a failed
  /// accept: counted in serve.accept_errors, EMFILE/ENFILE backs off).
  [[nodiscard]] int accept_connection(int listen_fd);
  /// Serves one accepted TCP connection until EOF, timeout, over-limit
  /// input, fault, or lifecycle end. Closes the fd.
  void serve_connection(int fd);
  /// Poll-guarded single read: waits readable for up to timeout_ms
  /// (<0 = unbounded; serve_connection passes <=200ms slices so the
  /// lifecycle is re-checked promptly), then reads once. Injection point
  /// for sock-read (S006, acts as a reset) and sock-stall (S008, acts as
  /// a peer that will never progress — reclaimed without a reply).
  [[nodiscard]] IoStatus conn_read(int fd, char* buf, std::size_t cap,
                                   int timeout_ms, std::size_t* got);
  /// Poll-guarded full write of `data` with a per-progress timeout.
  /// Injection point for sock-write (acts as kError).
  [[nodiscard]] IoStatus conn_write(int fd, const std::string& data,
                                    int timeout_ms);
  /// Best-effort structured error frame for a connection being refused
  /// or retired (S001/S002/...): counted as serve.trap.S00x, written
  /// with a short timeout, never blocks the caller for long.
  void send_trap_frame(int fd, ServeTrap trap);
#endif

  /// Compiles (or cache-hits) the program of `req`; on failure fills
  /// `*error` with a structured error object and returns nullopt.
  [[nodiscard]] std::optional<CacheEntry> obtain(const Json& req,
                                                 std::uint64_t* key,
                                                 bool* cache_hit, Json* error);

  void count(const std::string& name, std::uint64_t delta = 1);
  void observe_metric(const std::string& name, std::uint64_t value);

  /// True when request number `seq` (1-based) is trace-sampled:
  /// deterministic, exactly rate-proportional over any prefix.
  [[nodiscard]] bool sampled(std::uint64_t seq) const;

  /// Records the telemetry of one finished request (histograms, log
  /// line, trace ring) and stamps `request_id` into the reply.
  [[nodiscard]] Json finish_request(const Json& request, Json reply,
                                    const std::string& request_id,
                                    const std::string& op,
                                    std::uint64_t duration_us,
                                    obs::Tracer* request_tracer);

  ServerOptions options_;
  ModuleCache cache_;
  mutable std::mutex metrics_mu_;
  obs::MetricsRegistry metrics_;
  // Latency histograms, pre-registered at construction so the request
  // path observes through stable pointers instead of name lookups.
  // Valid for the server's lifetime (metrics_ is never cleared);
  // observations still happen under metrics_mu_.
  obs::Histogram* h_request_us_ = nullptr;
  obs::Histogram* h_eval_us_ = nullptr;
  obs::Histogram* h_compile_us_ = nullptr;
  obs::Histogram* h_eval_hit_us_ = nullptr;
  obs::Histogram* h_eval_miss_us_ = nullptr;
  std::atomic<int> lifecycle_{static_cast<int>(Lifecycle::kRunning)};
  /// steady_clock epoch-ns of the drain deadline; 0 = not draining.
  std::atomic<std::int64_t> drain_deadline_ns_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> active_conns_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::chrono::steady_clock::time_point started_;
  std::uint64_t rid_base_ = 0;  ///< request-id namespace, fixed per process
  mutable std::mutex trace_mu_;
  std::deque<RequestTrace> trace_ring_;
  std::atomic<int> metrics_port_{-1};
  std::atomic<int> tcp_port_{-1};
};

}  // namespace proteus::serve
