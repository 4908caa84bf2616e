// proteus.hpp — the public API of proteus-vec.
//
// A Session compiles a program in the data-parallel language P through the
// whole directed-transformation pipeline of the paper and can run any of
// its functions (or the optional entry expression) on two engines:
//
//   * the reference interpreter (per-element iterator semantics — the
//     paper's sequential simulation, and the oracle every fast path must
//     match), and
//   * the bytecode VM (the post-T1 V program assembled into a VCODE-style
//     linear instruction stream of depth-1 vector primitives — the
//     paper's CVL-level target).
//
// Both engines take and return boxed interp::Values so results are
// directly comparable; cost counters for each engine are exposed for the
// machine-independent measurements the Proteus methodology prescribes.
// Each run_* call runs exactly one engine: a runtime trap (budget,
// cancellation, injected fault) propagates as rt::RuntimeTrap.
// Argument and result types come from the module's vm::Signatures, so a
// Session can also wrap a bare deserialized module (no source forms) and
// run it on the VM. run_vm_text is the serving form of run_vm: literal
// text in, literal text out, converted straight to and from the flat
// representation by the function's signature (kernels/codec.hpp).
//
// Quickstart:
//
//   proteus::Session s(R"(
//     fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
//   )");
//   auto v = s.run_vm("sqs", {proteus::parse_value("5")});
//   // v == [1,4,9,16,25]
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "interp/interp.hpp"
#include "kernels/prims.hpp"
#include "obs/obs.hpp"
#include "rt/rt.hpp"
#include "vl/backend.hpp"
#include "vm/vm.hpp"
#include "xform/pipeline.hpp"

namespace proteus {

/// A call that does not fit the callee's signature: an unknown function,
/// a wrong argument count, or an argument that does not have its
/// parameter's type. The serving daemon reports it as a bad request.
/// Derives from EvalError, which these failures raised before.
class SignatureError : public EvalError {
 public:
  using EvalError::EvalError;
};

namespace detail {
class ArgSource;  // a run's arguments, converted inside the governed run
}  // namespace detail

/// Cost counters from the most recent run_* call on a Session. Reset at
/// the start of every run_* call, so it never mixes two runs. A run that
/// traps leaves only "rt.trap.T00x" = 1 in `metrics`.
///
/// The engine-specific structs stay the fast hot-path counters; after
/// the run they are published into `metrics` under the unified schema of
/// docs/OBSERVABILITY.md ("ref.*", "vm.*", "vl.*"), so every engine
/// reports through the same names and the same exporters.
struct RunCost {
  interp::InterpStats reference;  ///< populated by run_reference
  vl::VectorStats vector_work;    ///< vl primitive calls / element work
  vm::VMStats vm_ops;             ///< populated by run_vm (per-opcode profile)
  obs::MetricsRegistry metrics;   ///< the unified flat view of the above
};

class Session {
 public:
  /// Compiles `program_source` (and an optional entry expression in its
  /// scope) through parse -> check -> R1 -> R2 -> T1.
  explicit Session(std::string_view program_source,
                   std::string_view entry_source = {},
                   const xform::PipelineOptions& options = {});

  /// Wraps a VCODE module with no AST in the process: a deserialized one
  /// (vm::load_module, which verifies and plans it) for `proteusc
  /// --load-module`, and the cached module of either tier for every eval
  /// of the serving daemon. Only the VM can run it: the reference
  /// interpreter needs source forms a bare module does not carry, so
  /// run_reference* throw EvalError.
  explicit Session(std::shared_ptr<const vm::Module> module);

  /// Runs function `name` on the reference interpreter.
  [[nodiscard]] interp::Value run_reference(const std::string& name,
                                            const interp::ValueList& args);

  /// Runs function `name` on the bytecode VM (arguments are converted to
  /// the flat representation per the function's signature; per-opcode
  /// profile lands in last_cost().vm_ops).
  [[nodiscard]] interp::Value run_vm(const std::string& name,
                                     const interp::ValueList& args);

  /// Text-in/text-out form of run_vm, the one the serving daemon uses.
  /// Each argument is a P literal that kernels::decode reads straight
  /// into the flat representation, driven by the function's signature;
  /// text outside its literal subset goes through parse_value instead
  /// (counted by last_decode_fallbacks()). The result is rendered straight
  /// from the flat value by kernels::encode. Same budget, metrics and
  /// result text as interp::to_text(run_vm(name, parsed arguments)).
  [[nodiscard]] std::string run_vm_text(
      const std::string& name, std::span<const std::string_view> args);

  /// Text form of run_entry_vm.
  [[nodiscard]] std::string run_entry_vm_text();

  /// Arguments of the most recent run_vm_text call that the literal codec
  /// left to the general evaluator.
  [[nodiscard]] std::uint64_t last_decode_fallbacks() const {
    return decode_fallbacks_;
  }

  /// Runs the entry expression on the reference interpreter.
  [[nodiscard]] interp::Value run_entry_reference();

  /// Runs the compiled entry expression on the bytecode VM.
  [[nodiscard]] interp::Value run_entry_vm();

  /// Enables per-opcode wall-clock timing on subsequent run_vm calls
  /// (one clock read per instruction; off by default).
  void set_vm_profile(bool enabled) { vm_profile_ = enabled; }

  /// Enables plan-based admission control on subsequent run_vm calls:
  /// a call whose static peak-resident bound already exceeds the
  /// budget's max_resident_bytes traps T001 up front. Off by default.
  void set_admission(bool enabled) { vm_admission_ = enabled; }

  /// Installs a tracer for subsequent run_* calls: each run installs it
  /// as the process-global obs sink for its duration and records one
  /// "run" span per execution plus per-opcode spans.
  /// Pass nullptr to detach. To also trace compilation, install the
  /// tracer globally (obs::set_tracer) before constructing the Session.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs a resource budget enforced on subsequent run_* calls
  /// (resident vl bytes, element-work steps, call depth, deadline).
  /// Violations raise rt::RuntimeTrap; see docs/ROBUSTNESS.md.
  void set_budget(const rt::ExecBudget& budget) { budget_ = budget; }
  [[nodiscard]] const rt::ExecBudget& budget() const { return budget_; }

  /// All intermediate forms (checked / canonical / flat / vector). Only
  /// for Sessions built from source.
  [[nodiscard]] const xform::Compiled& compiled() const { return *compiled_; }

  /// The compilation itself; null for a Session over a module.
  [[nodiscard]] const std::shared_ptr<const xform::Compiled>& compiled_ptr()
      const {
    return compiled_;
  }

  /// Cost counters gathered by the most recent run_* call.
  [[nodiscard]] const RunCost& last_cost() const { return cost_; }

  /// Static type of `name`'s result (after checking).
  [[nodiscard]] lang::TypePtr result_type(const std::string& name) const;

 private:
  /// The calling convention of function `*name`, or of the entry
  /// expression when `name` is null.
  const vm::Signature& signature(const std::string* name) const;
  /// Runs function `*name` (or the entry when `name` is null) on the VM,
  /// converting its arguments from `args` inside the governed run.
  kernels::VValue vm_run(const std::string* name, detail::ArgSource* args);
  /// Runs function `*name` (or the entry) on the reference interpreter.
  interp::Value interp_run(const std::string* name,
                           const interp::ValueList& args);

  std::shared_ptr<const xform::Compiled> compiled_;  ///< null over a module
  std::shared_ptr<const vm::Module> module_;         ///< the module run_vm runs
  kernels::PrimOptions prim_options_;
  bool vm_profile_ = false;
  bool vm_admission_ = false;
  obs::Tracer* tracer_ = nullptr;
  RunCost cost_;
  rt::ExecBudget budget_;
  std::uint64_t decode_fallbacks_ = 0;
};

/// Parses and evaluates a closed P literal/expression (e.g.
/// "[[1,2],[3]]"), yielding a boxed value — convenient for building test
/// and example inputs.
[[nodiscard]] interp::Value parse_value(std::string_view literal);

}  // namespace proteus
