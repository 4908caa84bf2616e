// fault.hpp — deterministic fault injection for the runtime governor and
// the serving transport.
//
// A FaultPlan arms countdowns over six injection sites:
//
//   alloc:N      fail the Nth vector-byte charge (Vec allocation)   -> T006
//   kernel:M     fail the Mth vl kernel work charge                 -> T007
//   opt:K        fail the Kth VCODE optimizer invocation            -> T008
//   sock-read:N  the Nth guarded socket read acts as a peer reset   -> S006
//   sock-write:N the Nth guarded socket write acts as a broken pipe -> S007
//   sock-stall:N the Nth guarded socket read acts as a stalled peer -> S008
//
// Every site is ONE-SHOT: a fired countdown disarms itself, so the run it
// trapped is contained and the next run executes clean
// (docs/ROBUSTNESS.md, "Containment"). Plans come from the PROTEUS_FAULT
// environment variable (parsed at static initialization, like
// PROTEUS_BACKEND), the proteusc/proteusd --inject flag, or arm_faults().
//
// The reference interpreter never touches the vl layer, so it is immune
// to alloc/kernel injection by construction — which makes it the
// containment tests' oracle. The sock-* sites are consumed only by
// proteusd's TCP connection wrappers (docs/SERVING.md "Overload &
// lifecycle"), so evaluation engines never observe them.
#pragma once

#include <cstdint>
#include <string>

namespace proteus::rt {

/// Countdown per injection site; 0 = disarmed, N = fail the Nth event.
struct FaultPlan {
  std::uint64_t alloc = 0;
  std::uint64_t kernel = 0;
  std::uint64_t opt = 0;
  std::uint64_t sock_read = 0;
  std::uint64_t sock_write = 0;
  std::uint64_t sock_stall = 0;

  [[nodiscard]] bool armed() const noexcept {
    return alloc != 0 || kernel != 0 || opt != 0 || sock_read != 0 ||
           sock_write != 0 || sock_stall != 0;
  }
};

/// Parses "alloc:N,kernel:M,opt:K,sock-read:R,sock-write:W,sock-stall:S"
/// (any subset, any order). Throws proteus::Error on malformed specs.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Installs the plan's countdowns (replacing any previous plan).
void arm_faults(const FaultPlan& plan) noexcept;

/// Clears every countdown.
void disarm_faults() noexcept;

/// True while at least one countdown is live.
[[nodiscard]] bool faults_armed() noexcept;

/// Remaining countdowns (tests use this to assert one-shot semantics).
[[nodiscard]] FaultPlan pending_faults() noexcept;

/// Injection site for the VCODE optimizer: throws T008 when the `opt`
/// countdown fires. Called by the pipeline's optimize-vcode stage, which
/// keeps the -O0 module on the trap.
void maybe_fail_opt();

namespace detail {
/// Countdown checks for the governor's charge points. Return true when
/// the fault fires (and the site has disarmed itself).
[[nodiscard]] bool fire_alloc() noexcept;
[[nodiscard]] bool fire_kernel() noexcept;
/// Countdown checks for the serving transport's socket wrappers
/// (serve::Server). Same one-shot semantics as the governor sites.
[[nodiscard]] bool fire_sock_read() noexcept;
[[nodiscard]] bool fire_sock_write() noexcept;
[[nodiscard]] bool fire_sock_stall() noexcept;
}  // namespace detail

}  // namespace proteus::rt
