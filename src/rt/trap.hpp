// trap.hpp — the structured runtime-trap taxonomy of the execution
// governor (docs/ROBUSTNESS.md).
//
// Every resource-limit violation, cooperative cancellation, and injected
// fault anywhere in the runtime (vl allocation layer, kernel table, VM
// dispatch loop, reference interpreter, parser/printer recursion) surfaces
// as one
// exception type, RuntimeTrap, carrying a stable trap code (T001-T008),
// the site that observed it, and the governor's byte/step counters at the
// moment of the trip — replacing the ad-hoc EvalError throws these paths
// used before. proteusc maps RuntimeTrap to its own exit code (4) so
// resource exhaustion is distinguishable from compile/runtime errors.
#pragma once

#include <cstdint>
#include <string>

#include "vl/check.hpp"

namespace proteus::rt {

/// Stable trap codes. Values are the numeric part of the "T00x" code and
/// must never be renumbered (tests, CI, and the docs key off them).
enum class Trap : std::uint8_t {
  kMemory = 1,        ///< T001: resident vector bytes exceeded the budget
  kSteps = 2,         ///< T002: element-work steps exceeded the budget
  kDepth = 3,         ///< T003: call/nesting depth exceeded the limit
  kDeadline = 4,      ///< T004: wall-clock deadline exceeded
  kCancelled = 5,     ///< T005: cooperative cancellation observed
  kInjectAlloc = 6,   ///< T006: injected allocation fault fired
  kInjectKernel = 7,  ///< T007: injected kernel fault fired
  kInjectOpt = 8,     ///< T008: injected optimizer fault fired
};

/// "T001" ... "T008".
[[nodiscard]] const char* trap_code(Trap t) noexcept;

/// Human-readable one-line reason for the code.
[[nodiscard]] const char* trap_reason(Trap t) noexcept;

/// The structured trap exception. Not an EvalError: a trap means the
/// *runtime environment* refused the execution, not that the program is
/// wrong — callers that report it structurally (proteusc's exit code 4,
/// proteusd's "trap" reply) catch this type specifically.
class RuntimeTrap : public Error {
 public:
  RuntimeTrap(Trap trap, const std::string& detail, std::string site,
              std::uint64_t bytes, std::uint64_t steps, std::int64_t pc = -1);

  [[nodiscard]] Trap trap() const noexcept { return trap_; }
  [[nodiscard]] const char* code() const noexcept { return trap_code(trap_); }
  /// Which engine/layer observed the trip ("vm", "exec", "interp",
  /// "fused", "vl.alloc", "vl.kernel", "parser", "printer", ...).
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  /// Governor counters at the moment of the trip.
  [[nodiscard]] std::uint64_t bytes_at_trip() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t steps_at_trip() const noexcept { return steps_; }
  /// Bytecode pc for VM-observed traps; -1 elsewhere.
  [[nodiscard]] std::int64_t pc() const noexcept { return pc_; }

 private:
  Trap trap_;
  std::string site_;
  std::uint64_t bytes_;
  std::uint64_t steps_;
  std::int64_t pc_;
};

}  // namespace proteus::rt
