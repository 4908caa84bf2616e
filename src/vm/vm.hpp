// vm.hpp — the dispatch-loop interpreter over vm::Module bytecode.
//
// The VM replays pre-linked flat code: registers index a frame vector,
// constants and call targets were resolved at compile time, and each
// instruction funnels into the shared kernel table of kernels/prims.hpp.
//
// Profiling: the VM always counts instructions, primitive applications,
// and calls, and attributes vl element work (vl::stats() deltas) to the
// executing opcode. Per-opcode wall time costs a clock read per
// instruction and is gated behind VMOptions::profile.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/prims.hpp"
#include "vm/bytecode.hpp"

namespace proteus::analysis {
struct FunctionPlan;
}  // namespace proteus::analysis

namespace proteus::vm {

/// Knobs of a VM run.
struct VMOptions {
  kernels::PrimOptions prims;  ///< shared-source gather etc.
  bool profile = false;        ///< per-opcode wall-clock timing
  /// Run the bytecode verifier (vm/verify.hpp) at construction and throw
  /// analysis::AnalysisError when the module is rejected. Callers holding
  /// a module the pipeline already verified may pass false.
  bool verify = true;
  /// Clear the registers the memory plan proves dead at their statically
  /// known last use, so sole-owner buffers are freed there rather than at
  /// the frame's return (needs a Module::plan matching the code; without
  /// one the run keeps every register). Results and counts are identical
  /// either way; only the resident peak differs.
  bool clear_dead = true;
  /// Ignored: nothing reads it. Kept only because bench/e2e/traced.cpp
  /// initializes VMOptions positionally with five members; it goes when
  /// that replay does.
  bool admission = false;
};

/// Accumulated cost of one opcode across a run.
struct OpProfile {
  std::uint64_t count = 0;            ///< instructions dispatched
  std::uint64_t element_work = 0;     ///< vl element work attributed
  std::uint64_t primitive_calls = 0;  ///< vl primitives attributed
  std::uint64_t nanos = 0;            ///< wall time (VMOptions::profile only)
};

/// Execution counters of a VM (vl::stats()-compatible element-work
/// accounting, plus primitive-application and call tallies).
struct VMStats {
  std::uint64_t instructions = 0;
  std::uint64_t prim_applications = 0;
  std::uint64_t calls = 0;
  std::array<OpProfile, kNumOps> per_op{};
  std::map<lang::Prim, std::uint64_t> per_prim;
};

// Call depth is bounded by the execution governor (rt::depth_limit():
// the installed budget's max_depth, or rt::kDefaultMaxCallDepth), raised
// as an rt::RuntimeTrap (T003).

/// The bytecode interpreter. Holds the module and per-run statistics.
class VM {
 public:
  explicit VM(std::shared_ptr<const Module> module, VMOptions options = {});

  /// Calls a compiled function by name; an unknown name or a wrong
  /// argument count throws EvalError. Takes the
  /// arguments by value: they move straight into the frame's registers,
  /// so a caller done with its copies hands buffers to the VM — which the
  /// fused kernels can then recycle in place.
  [[nodiscard]] kernels::VValue call_function(const std::string& name,
                                              std::vector<kernels::VValue> args);

  /// Runs the module's compiled entry expression.
  [[nodiscard]] kernels::VValue eval_entry();

  [[nodiscard]] const VMStats& stats() const { return stats_; }
  void reset_stats() { stats_ = VMStats{}; }

  [[nodiscard]] const Module& module() const { return *module_; }

 private:
  kernels::VValue run(const Function& fn, std::vector<kernels::VValue> regs,
                      const analysis::FunctionPlan* fp);
  kernels::VValue invoke(std::uint32_t index,
                         std::vector<kernels::VValue> args,
                         const std::string& name);
  /// The plan of function `index` when death clearing is on and the
  /// module carries a plan matching its code; null otherwise.
  [[nodiscard]] const analysis::FunctionPlan* deaths_of(
      std::uint32_t index) const;

  std::shared_ptr<const Module> module_;
  VMOptions options_;
  VMStats stats_;
  int call_depth_ = 0;
};

}  // namespace proteus::vm
