// pipeline.hpp — the end-to-end directed-transformation pipeline:
//
//   parse -> typecheck -> canonicalize (R1) -> flatten (R2) -> translate (T1)
//     -> assemble (V program -> vm bytecode module)
//
// mirroring the KIDS-driven process of the paper. Every intermediate stage
// is retained so tests and benches can compare engines and inspect the
// transformed forms (e.g. the Section 5 worked example).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "lang/ast.hpp"
#include "vm/fuse.hpp"
#include "xform/flatten.hpp"

namespace proteus::vm {
struct Module;
}

namespace proteus::xform {

struct PipelineOptions {
  FlattenOptions flatten;
  /// Section 4.5: rewrite replicated seq_index sources into shared-row
  /// gathers (removes the quadratic replication in flattened recursion).
  bool shared_row_gather = true;
  /// Run the static shape/depth analyzer (src/analysis) over the final V
  /// program (cheap; catches transformation bugs at compile time instead
  /// of run time). The report is retained in Compiled::analysis; errors
  /// throw analysis::AnalysisError.
  bool verify_output = true;
  /// Run the VCODE optimizer (src/vm/fuse.hpp) over the assembled
  /// module: elementwise chain fusion into single-pass superinstructions,
  /// copy propagation, dead-move elimination, and last-use marking for
  /// in-place buffer reuse (proteusc -O0 turns this off).
  bool optimize_vcode = true;
  /// Run the VCODE bytecode verifier (src/vm/verify.hpp) over the
  /// assembled (and optimized) module (proteusc --no-verify-vcode turns
  /// this off).
  bool verify_vcode = true;
  /// Run the buffer-lifetime / memory-plan analyzer (analysis/lifetime.hpp)
  /// over the final module and attach the resulting MemoryPlan to it
  /// (vm::Module::plan) — the artifact behind plan-backed arena execution,
  /// admission control, and `proteusc --analyze=memory`. M3xx findings
  /// land in Compiled::memory_report (warnings only; never fatal).
  bool plan_memory = true;
  /// Collect a KIDS-style derivation trace (one line per rule firing)
  /// into Compiled::derivation. Implemented over the obs span/event
  /// model: each firing is a "rule" instant event; with no tracer
  /// installed, compile() records into a pipeline-local one. The same
  /// events back the Chrome trace export, so the textual and JSON
  /// derivations cannot diverge.
  bool collect_trace = false;
};

/// All stages of a compiled program, plus (optionally) one entry
/// expression carried through the same stages.
struct Compiled {
  lang::Program checked;    ///< type-checked P program
  lang::Program canonical;  ///< after R1 / filter desugaring
  lang::Program flat;       ///< iterator-free, depth-annotated (post-R2)
  lang::Program vec;        ///< the V program (post-T1, depths <= 1)

  lang::ExprPtr entry_checked;  ///< null when no entry expression given
  lang::ExprPtr entry_flat;
  lang::ExprPtr entry_vec;

  /// The V program (and entry) assembled into linear bytecode — the
  /// module the vm engine executes (see src/vm/bytecode.hpp). When
  /// options.optimize_vcode is on this is the optimized module.
  std::shared_ptr<const vm::Module> module;

  /// Human-readable notes for every compile-time degradation taken
  /// (optimizer trap, verifier rejection of the optimized module): each
  /// left `module` the unoptimized (-O0) one (docs/ROBUSTNESS.md).
  /// Empty on a healthy compile.
  std::vector<std::string> compile_fallbacks;

  /// Tallies of the VCODE optimizer (zero when optimize_vcode is off).
  vm::FuseStats fusion;

  /// Findings of the static shape/depth analyzer and the bytecode
  /// verifier (populated when the respective options are on; an error-free
  /// report may still carry warnings).
  analysis::Report analysis;

  /// M3xx wasteful-pattern findings of the memory-plan analyzer (when
  /// options.plan_memory is on). Kept separate from `analysis`: these are
  /// advisory memory-efficiency observations about the *generated* VCODE,
  /// not source-program diagnostics, and they never affect exit codes.
  analysis::Report memory_report;

  /// Rule-by-rule derivation log (only when options.collect_trace).
  std::vector<std::string> derivation;

  /// Firing tallies of every transformation rule (R1/R1f from
  /// canonicalization, R2a–R2e/R0/hoist from flattening) — always
  /// collected; also attached as counters to the compile-phase spans.
  RuleCounts rule_counts;
};

/// Compiles a program (and an optional entry expression evaluated in its
/// scope) through every stage. Throws SyntaxError/TypeError/TransformError.
[[nodiscard]] Compiled compile(std::string_view program_source,
                               std::string_view entry_source = {},
                               const PipelineOptions& options = {});

}  // namespace proteus::xform
