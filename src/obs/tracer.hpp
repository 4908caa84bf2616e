// tracer.hpp — spans and events for the whole proteus-vec stack.
//
// One process-global sink pointer selects the installed Tracer (or none).
// Every instrumentation point goes through obs::Span, whose constructor
// loads that pointer once: with no tracer installed a Span is a relaxed
// atomic load, a null check and a handful of member stores — no clock
// read, no allocation, no lock — so instrumentation can stay compiled in
// on the hot paths (the VM dispatch loop, its per-opcode spans) at
// near-zero cost.
//
// With a tracer installed, spans record wall-clock intervals (duration
// events) and instants (e.g. one event per transformation-rule firing),
// each carrying named integer counters (elements touched, segments,
// rule-firing tallies). The recorded stream exports to Chrome
// trace-event JSON (open in Perfetto / chrome://tracing) or renders to
// text; see docs/OBSERVABILITY.md for the span and counter naming
// scheme.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace proteus::obs {

/// Named integer counter attached to an event (Chrome trace "args").
using Counter = std::pair<std::string, std::uint64_t>;

/// One recorded event: a completed span (kSpan, with duration) or a
/// point-in-time marker (kInstant, e.g. a rule firing with its source
/// snippet in `text`).
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant };

  Kind kind = Kind::kSpan;
  const char* cat = "";    ///< static category string ("compile", "run", ...)
  std::string name;        ///< span/event name
  std::string text;        ///< instant payload (rule source snippet)
  std::uint64_t start_ns = 0;  ///< offset from the tracer's epoch
  std::uint64_t dur_ns = 0;    ///< spans only
  std::uint32_t tid = 0;       ///< small sequential per-thread id
  std::vector<Counter> counters;
};

/// Thread-safe event collector. Create one, install it with set_tracer
/// (or TracerScope), run the region of interest, then export.
class Tracer {
 public:
  Tracer();

  /// Appends a finished event (thread-safe).
  void record(TraceEvent e);

  /// Records an instant event at the current time on this thread.
  void instant(const char* cat, std::string name, std::string text = {},
               std::vector<Counter> counters = {});

  /// Nanoseconds since this tracer's construction.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Snapshot of everything recorded so far.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Number of events recorded so far (cheap; use to slice a region).
  [[nodiscard]] std::size_t event_count() const;

  void clear();

  /// Writes the Chrome trace-event JSON document (the whole recorded
  /// stream; loadable in Perfetto or chrome://tracing).
  void write_chrome_trace(std::ostream& os) const;

  /// Renders "rule"-category instant events as the classic derivation
  /// lines ("{R2c} @1  <snippet>"), starting at event index `from`.
  /// Both `--dump trace` and Compiled::derivation go through this one
  /// renderer so the textual and JSON traces cannot diverge.
  [[nodiscard]] std::vector<std::string> rule_lines(
      std::size_t from = 0) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// The installed tracer, or nullptr when tracing is off (the default).
/// A thread-local override (ThreadTracerScope) wins over the process
/// global, so concurrent daemon requests can each record into their own
/// sink without seeing each other's spans.
[[nodiscard]] Tracer* tracer() noexcept;

/// Installs `t` as the process-global sink (nullptr to disable).
/// Returns the previous global sink. Thread-local overrides are not
/// affected.
Tracer* set_tracer(Tracer* t) noexcept;

/// Installs `t` as this thread's sink, shadowing the global one.
/// Returns the previous thread-local override (nullptr when none).
Tracer* set_thread_tracer(Tracer* t) noexcept;

/// RAII install/restore of the process-global tracer.
class TracerScope {
 public:
  explicit TracerScope(Tracer* t) noexcept : previous_(set_tracer(t)) {}
  ~TracerScope() { set_tracer(previous_); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* previous_;
};

/// Like TracerScope, but a null `t` means "leave the current sink alone"
/// instead of "disable tracing" — the right semantics for optional
/// per-Session / per-pipeline tracers.
class MaybeTracerScope {
 public:
  explicit MaybeTracerScope(Tracer* t) noexcept
      : installed_(t != nullptr),
        previous_(installed_ ? set_tracer(t) : nullptr) {}
  ~MaybeTracerScope() {
    if (installed_) set_tracer(previous_);
  }
  MaybeTracerScope(const MaybeTracerScope&) = delete;
  MaybeTracerScope& operator=(const MaybeTracerScope&) = delete;

 private:
  bool installed_;
  Tracer* previous_;
};

/// RAII install/restore of the calling thread's tracer override. While
/// in scope, spans recorded *on this thread* go to `t` regardless of
/// the process-global sink — the per-request isolation the serving
/// daemon needs when several workers trace concurrently. A null `t`
/// means "no override": tracer() falls through to the process global,
/// which makes nesting and restore compose naturally.
///
/// Caveat: the override is per-thread by design, so OpenMP worker
/// threads spawned inside the scoped region still see the process
/// global, not the override.
class ThreadTracerScope {
 public:
  explicit ThreadTracerScope(Tracer* t) noexcept
      : previous_(set_thread_tracer(t)) {}
  ~ThreadTracerScope() { set_thread_tracer(previous_); }
  ThreadTracerScope(const ThreadTracerScope&) = delete;
  ThreadTracerScope& operator=(const ThreadTracerScope&) = delete;

 private:
  Tracer* previous_;
};

/// Small sequential id of the calling thread (stable for its lifetime).
[[nodiscard]] std::uint32_t thread_id() noexcept;

/// RAII span. Constructing one when no tracer is installed costs a
/// relaxed load and a branch; name and category must be static strings
/// (string literals, prim_name()/op_name() results) so the inactive
/// path never allocates.
class Span {
 public:
  Span(const char* cat, const char* name) noexcept
      : tracer_(tracer()), cat_(cat), name_(name) {
    if (tracer_ != nullptr) start_ns_ = tracer_->now_ns();
  }

  ~Span() {
    if (tracer_ == nullptr) return;
    TraceEvent e;
    e.kind = TraceEvent::Kind::kSpan;
    e.cat = cat_;
    e.name = name_;
    e.start_ns = start_ns_;
    e.dur_ns = tracer_->now_ns() - start_ns_;
    e.tid = thread_id();
    e.counters = std::move(counters_);
    tracer_->record(std::move(e));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when a tracer is recording this span (use to skip computing
  /// counter values that only exist for tracing).
  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

  /// Attaches a named counter (no-op when inactive).
  void counter(std::string name, std::uint64_t value) {
    if (tracer_ != nullptr) counters_.emplace_back(std::move(name), value);
  }

 private:
  Tracer* tracer_;
  const char* cat_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::vector<Counter> counters_;
};

/// Escapes `s` for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace proteus::obs
