// governor.hpp — the execution governor: resource budgets, cooperative
// cancellation, and the charge/poll points every engine shares.
//
// Budgets are a *per-thread* service: GovernorScope installs an
// ExecBudget on the constructing thread (a stack of scopes, so nesting
// replaces and restores limits exactly), and every charge/poll issued by
// that thread is checked against it. This is what makes the budget a
// multi-tenant isolation boundary — a serving worker thread can govern
// its request without another worker's limits bleeding into it (see
// src/serve/ and docs/SERVING.md). Process-wide facts stay global:
//
//   * resident bytes — Vec<T> charges its heap bytes on construction /
//     resize and releases them on destruction; live vector memory is a
//     property of the process, so `resident bytes` is one global counter
//     (a budget's max_resident_bytes caps the *process* footprint
//     observed while that thread allocates).
//   * cooperative cancellation and the fault-injection plans — both are
//     process-global switches (docs/ROBUSTNESS.md).
//
// Charge/poll points are unchanged from the global-governor design:
//
//   * Vec<T> charges bytes, VectorStats::record() charges element work,
//     and engines call poll() at their dispatch points (VM per
//     instruction, tree evaluators per node, fused kernels per block).
//   * Every charge and poll runs on the thread driving the evaluation —
//     the OpenMP kernels record their work *outside* their parallel
//     regions — so the per-thread budget observes all of a request's
//     work even on the parallel backend.
//
// Fast-path cost with no budget installed on this thread, no cancellation
// requested, and no faults armed is one thread-local load, one relaxed
// atomic load, and a predictable branch (see bench_rt_overhead).
// Violations throw rt::RuntimeTrap — except inside an OpenMP parallel
// region, where throwing would terminate the process; there the trip is
// recorded and re-raised at the next serial poll point (cooperative
// deferral).
#pragma once

#include <atomic>
#include <cstdint>

#include "rt/trap.hpp"

namespace proteus::rt {

/// Default user-level call depth ceiling (always enforced; flattened
/// recursion halves frames, so legitimate depth is O(log data)).
inline constexpr int kDefaultMaxCallDepth = 8000;

/// Default structural-recursion ceiling for the parser, printer, and the
/// evaluators' per-expression descent. Structural recursion burns far
/// more C++ stack per level than a user-level call (several parser frames
/// per nesting level), so it gets a tighter always-on default — deeply
/// nested inputs trap cleanly instead of overflowing the C++ stack.
inline constexpr int kDefaultMaxNesting = 2000;

/// Resource budget enforced on a region of execution. Zero means
/// "unlimited" for every field (max_depth 0 = the default limits above).
struct ExecBudget {
  std::uint64_t max_resident_bytes = 0;  ///< live vl vector bytes (T001)
  std::uint64_t max_steps = 0;           ///< element-work steps (T002)
  int max_depth = 0;                     ///< call/nesting depth (T003)
  std::uint64_t deadline_ms = 0;         ///< wall-clock deadline (T004)

  [[nodiscard]] bool limits_anything() const noexcept {
    return max_resident_bytes != 0 || max_steps != 0 || max_depth != 0 ||
           deadline_ms != 0;
  }
};

namespace detail {

/// The budget installed on one thread by one GovernorScope. Lives inside
/// the scope object (no heap); `previous` restores the enclosing scope.
/// Touched only by the owning thread: the kernels charge work before /
/// after their parallel regions, never inside them.
struct GovernorState {
  std::uint64_t max_bytes = 0;
  std::uint64_t max_steps = 0;
  int max_depth = 0;
  std::int64_t deadline_ns = 0;  ///< steady-clock epoch ns; 0 = none
  std::uint64_t steps = 0;       ///< element work charged in this scope
  GovernorState* previous = nullptr;
};

/// The innermost budget of the current thread (null: ungoverned thread).
/// constinit: statically initialized, so reads need no TLS wrapper call
/// (UBSan reported a null GovernorState* load through the wrapper).
extern constinit thread_local GovernorState* t_state;

/// `g_active` gates the process-global slow-path causes: cancellation
/// pending, faults armed, or a trip deferred from a parallel region.
extern std::atomic<bool> g_active;
extern std::atomic<std::uint64_t> g_resident;
extern std::atomic<std::uint64_t> g_peak;  // resident-byte high watermark
extern std::atomic<int> g_tripped;  // deferred Trap code; 0 = none

void charge_bytes_slow(std::uint64_t bytes);
void charge_work_slow(std::uint64_t elements);
void poll_slow(const char* site, std::int64_t pc);
void recompute_active() noexcept;

}  // namespace detail

/// Charges `bytes` of freshly allocated vector memory against the
/// resident-byte budget (and the injected-allocation fault plan). On a
/// serial-context violation the charge is rolled back and RuntimeTrap
/// thrown — the allocation is abandoned by the unwind.
inline void charge_bytes(std::uint64_t bytes) {
  if (bytes == 0) return;
  detail::g_resident.fetch_add(bytes, std::memory_order_relaxed);
  if (detail::t_state == nullptr &&
      !detail::g_active.load(std::memory_order_relaxed)) {
    return;
  }
  detail::charge_bytes_slow(bytes);
}

/// Releases previously charged bytes (vector destruction/shrink).
inline void release_bytes(std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  detail::g_resident.fetch_sub(bytes, std::memory_order_relaxed);
}

/// Charges element work issued by one vl kernel against the step budget
/// (and the injected-kernel fault plan).
inline void charge_work(std::uint64_t elements) {
  if (detail::t_state == nullptr &&
      !detail::g_active.load(std::memory_order_relaxed)) {
    return;
  }
  detail::charge_work_slow(elements);
}

/// Cooperative check point: observes cancellation, the deadline, and
/// trips deferred from parallel regions. Engines pass their dispatch
/// site; the VM also passes the current pc for trap attribution.
inline void poll(const char* site, std::int64_t pc = -1) {
  if (detail::t_state == nullptr &&
      !detail::g_active.load(std::memory_order_relaxed)) {
    return;
  }
  detail::poll_slow(site, pc);
}

/// True while a deferred trip is pending (set inside parallel regions
/// where throwing is impossible); blockwise kernels use it to skip
/// remaining work until a serial poll can raise the trap.
[[nodiscard]] inline bool tripped() noexcept {
  return detail::g_tripped.load(std::memory_order_relaxed) != 0;
}

/// Live vl vector bytes currently charged (process-wide, always counted).
[[nodiscard]] std::uint64_t resident_bytes() noexcept;

/// High watermark of resident_bytes() observed at charge points since the
/// last reset. Only advanced on the governed slow path, so it is exact
/// under a budget scope and merely advisory on ungoverned threads — which
/// is what the memory-plan benches need (bench_vm_memplan runs governed).
[[nodiscard]] std::uint64_t peak_resident_bytes() noexcept;
void reset_peak_resident_bytes() noexcept;

/// Element-work steps charged since this thread's innermost budget scope
/// was installed (0 on an ungoverned thread).
[[nodiscard]] std::uint64_t steps() noexcept;

/// Requests cooperative cancellation: the next serial poll() anywhere in
/// the process raises T005. Sticky until clear_cancel().
void request_cancel() noexcept;
void clear_cancel() noexcept;
[[nodiscard]] bool cancel_requested() noexcept;

/// Current user-level call depth ceiling (the calling thread's budget
/// max_depth, or the default) and structural-recursion ceiling (min of
/// budget max_depth and kDefaultMaxNesting).
[[nodiscard]] int depth_limit() noexcept;
[[nodiscard]] int nesting_limit() noexcept;

/// Constructs and throws a RuntimeTrap at the given site, capturing the
/// governor's byte/step counters at the moment of the trip.
[[noreturn]] void raise(Trap trap, const std::string& detail,
                        const char* site, std::int64_t pc = -1);

/// RAII guard bounding one level of structural recursion against
/// nesting_limit(); used by the parser, printer, and both tree
/// evaluators. Throws T003 when the limit is exceeded.
class NestingGuard {
 public:
  NestingGuard(int* depth, const char* site) : depth_(depth) {
    if (++*depth_ > nesting_limit()) {
      --*depth_;
      raise(Trap::kDepth,
            std::string("expression nesting limit exceeded in ") + site,
            site);
    }
  }
  ~NestingGuard() { --*depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

 private:
  int* depth_;
};

/// RAII scope installing a budget on the calling thread: pushes a fresh
/// per-thread budget state (step counter at 0, deadline armed) and
/// restores the enclosing scope on exit. Resident bytes are NOT reset —
/// they track live allocations, which outlive any one scope. Each scope
/// also clears (and on exit restores) any parallel-region trip deferral,
/// so a stale deferral cannot leak into an unrelated execution.
class GovernorScope {
 public:
  explicit GovernorScope(const ExecBudget& budget);
  ~GovernorScope();
  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  detail::GovernorState state_;
  int previous_tripped_;
};

}  // namespace proteus::rt
