#include "rt/governor.hpp"

#include <algorithm>
#include <chrono>

#include "rt/fault.hpp"

namespace proteus::rt {

namespace detail {

constinit thread_local GovernorState* t_state = nullptr;

std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_resident{0};
std::atomic<std::uint64_t> g_peak{0};

}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_cancel{false};

/// The deadline costs a clock read, so poll_slow only consults it every
/// kDeadlineStride slow polls (per thread). At VM dispatch rates that is
/// still sub-millisecond detection latency.
constexpr int kDeadlineStride = 64;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Raises the trap; `rollback_bytes` undoes a just-made resident charge,
/// as the unwind abandons the allocation.
[[noreturn]] void trip(Trap t, const char* site,
                       std::uint64_t rollback_bytes) {
  if (rollback_bytes != 0) release_bytes(rollback_bytes);
  raise(t, trap_reason(t), site);
}

}  // namespace

namespace detail {

void recompute_active() noexcept {
  // Per-thread budgets are gated by t_state at the inline fast paths;
  // g_active covers only the process-global slow-path causes.
  g_active.store(g_cancel.load(std::memory_order_relaxed) ||
                     faults_armed(),
                 std::memory_order_relaxed);
}

void charge_bytes_slow(std::uint64_t bytes) {
  if (fire_alloc()) {
    recompute_active();  // the one-shot countdown may just have drained
    trip(Trap::kInjectAlloc, "vl.alloc", bytes);
  }
  // Advance the resident high watermark (exact on governed threads; the
  // inline fast path skips it, so ungoverned allocation is not observed).
  const std::uint64_t cur = g_resident.load(std::memory_order_relaxed);
  std::uint64_t prev = g_peak.load(std::memory_order_relaxed);
  while (cur > prev && !g_peak.compare_exchange_weak(
                           prev, cur, std::memory_order_relaxed)) {
  }
  const GovernorState* st = t_state;
  if (st == nullptr) return;
  if (st->max_bytes != 0 &&
      g_resident.load(std::memory_order_relaxed) > st->max_bytes) {
    trip(Trap::kMemory, "vl.alloc", bytes);
  }
}

void charge_work_slow(std::uint64_t elements) {
  if (fire_kernel()) {
    recompute_active();
    trip(Trap::kInjectKernel, "vl.kernel", 0);
  }
  GovernorState* st = t_state;
  if (st == nullptr) return;
  st->steps += elements;
  if (st->max_steps != 0 && st->steps > st->max_steps) {
    trip(Trap::kSteps, "vl.kernel", 0);
  }
}

void poll_slow(const char* site, std::int64_t pc) {
  if (g_cancel.load(std::memory_order_relaxed)) {
    raise(Trap::kCancelled, trap_reason(Trap::kCancelled), site, pc);
  }
  const GovernorState* st = t_state;
  if (st != nullptr && st->deadline_ns != 0) {
    thread_local int countdown = 0;
    if (--countdown <= 0) {
      countdown = kDeadlineStride;
      if (now_ns() > st->deadline_ns) {
        raise(Trap::kDeadline, trap_reason(Trap::kDeadline), site, pc);
      }
    }
  }
}

}  // namespace detail

std::uint64_t resident_bytes() noexcept {
  return detail::g_resident.load(std::memory_order_relaxed);
}

std::uint64_t peak_resident_bytes() noexcept {
  return detail::g_peak.load(std::memory_order_relaxed);
}

void reset_peak_resident_bytes() noexcept {
  detail::g_peak.store(resident_bytes(), std::memory_order_relaxed);
}

std::uint64_t steps() noexcept {
  const detail::GovernorState* st = detail::t_state;
  return st != nullptr ? st->steps : 0;
}

void request_cancel() noexcept {
  g_cancel.store(true, std::memory_order_relaxed);
  detail::recompute_active();
}

void clear_cancel() noexcept {
  g_cancel.store(false, std::memory_order_relaxed);
  detail::recompute_active();
}

bool cancel_requested() noexcept {
  return g_cancel.load(std::memory_order_relaxed);
}

int depth_limit() noexcept {
  const detail::GovernorState* st = detail::t_state;
  const int d = st != nullptr ? st->max_depth : 0;
  return d > 0 ? d : kDefaultMaxCallDepth;
}

int nesting_limit() noexcept {
  const detail::GovernorState* st = detail::t_state;
  const int d = st != nullptr ? st->max_depth : 0;
  return d > 0 ? std::min(d, kDefaultMaxNesting) : kDefaultMaxNesting;
}

void raise(Trap trap, const std::string& detail_msg, const char* site,
           std::int64_t pc) {
  throw RuntimeTrap(trap, detail_msg, site, resident_bytes(), steps(), pc);
}

GovernorScope::GovernorScope(const ExecBudget& budget) {
  state_.max_bytes = budget.max_resident_bytes;
  state_.max_steps = budget.max_steps;
  state_.max_depth = budget.max_depth;
  state_.deadline_ns =
      budget.deadline_ms != 0
          ? now_ns() +
                static_cast<std::int64_t>(budget.deadline_ms) * 1'000'000
          : 0;
  state_.previous = detail::t_state;
  detail::t_state = &state_;
}

GovernorScope::~GovernorScope() {
  detail::t_state = state_.previous;
}

}  // namespace proteus::rt
