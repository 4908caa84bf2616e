// daemon.hpp — one proteusd child process driven over loopback TCP, and
// the benchmark's closed-loop load generator.
//
// Load model: one client thread, two persistent connections multiplexed
// with poll. A serve_tcp worker owns its connection until it closes, so
// connections = workers = 2 (a third persistent connection would starve
// rather than queue). Request i always goes to connection i mod 2, and a
// connection sends its next request only after the previous reply has
// arrived — how RetryingClient and tools/loadgen call.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace proteus::bench_e2e {

using Clock = std::chrono::steady_clock;

inline constexpr int kConnections = 2;

/// CPU and memory of a live process, from /proc/<pid>/{stat,status}.
struct ProcSample {
  double cpu_ms = 0;  ///< utime + stime over all threads
  double hwm_mb = 0;  ///< VmHWM, the resident-set high-water mark
};

/// A `proteusd --port 0 --workers 2` child (stdin and stderr on
/// /dev/null: at the default log level it writes one line per request,
/// and an undrained pipe would stall it) with two open connections.
/// The destructor stops the daemon and waits for it to exit, killing it
/// after a grace period, so no path leaves a process behind.
class Daemon {
 public:
  explicit Daemon(const std::string& binary);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// One blocking round trip on connection `c`; `line` ends in '\n'.
  /// Returns the reply without its '\n'. Throws std::runtime_error on a
  /// transport failure or after 30 s without progress.
  std::string call(int c, const std::string& line);

  [[nodiscard]] ProcSample sample() const;

  /// Sends {"op":"shutdown"} and closes the connections without waiting:
  /// the daemon takes up to its accept-poll slice to exit, so stopped
  /// daemons are kept until the destructor reaps them, and several wind
  /// down while the next one serves.
  void stop();

  [[nodiscard]] int fd(int c) const { return fds_[c]; }

 private:
  void reap();

  pid_t pid_ = -1;
  int announce_fd_ = -1;
  int fds_[kConnections] = {-1, -1};
};

/// `window` consecutive replies of a closed-loop phase.
struct Window {
  double seconds = 0;  ///< from the previous window's last reply (or the
                       ///< phase's first write) to this one's last reply
  double cpu_ms = 0;   ///< the daemon's CPU time over the same interval
};

/// Outcome of one closed-loop phase.
struct LoopStats {
  std::vector<double> latency_us;  ///< write start -> full reply line
  std::vector<std::uint64_t> request;  ///< request index of each latency
  /// Replies [k * window, (k + 1) * window) form windows[k]; a trailing
  /// partial window is not recorded.
  std::vector<Window> windows;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;  ///< first write -> last reply
};

/// Judges reply line `reply` to request `i`; false counts as a failure.
using ReplyCheck = std::function<bool(std::uint64_t i, std::string_view reply)>;

/// Runs requests [first, first + count) through `daemon` in the closed
/// loop above, issuing no new request once `deadline` has passed (the
/// in-flight ones still complete). Every `window` replies (0: never) it
/// closes a Window, sampling the daemon's CPU time. `workload` must have
/// the range prepared. Throws std::runtime_error when a connection fails.
LoopStats closed_loop(Daemon& daemon, const Workload& workload,
                      std::uint64_t first, std::uint64_t count,
                      Clock::time_point deadline, const ReplyCheck& check,
                      std::uint64_t window = 0);

}  // namespace proteus::bench_e2e
