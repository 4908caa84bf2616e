#include "xform/pipeline.hpp"

#include <utility>

#include "analysis/lifetime.hpp"
#include "analysis/shape.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "obs/tracer.hpp"
#include "rt/rt.hpp"
#include "xform/canon.hpp"
#include "xform/optimize.hpp"
#include "xform/translate.hpp"
#include "vm/compile.hpp"
#include "vm/fuse.hpp"
#include "vm/verify.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

void attach_rules(obs::Span& span, const RuleCounts& rules) {
  for (const auto& [rule, count] : rules) span.counter(rule, count);
}

void merge_rules(RuleCounts& into, const RuleCounts& from) {
  for (const auto& [rule, count] : from) into[rule] += count;
}

}  // namespace

Compiled compile(std::string_view program_source,
                 std::string_view entry_source,
                 const PipelineOptions& options) {
  Compiled out;
  NameGen names;

  // The derivation trace rides on the span/event model: with no tracer
  // installed, collect_trace records into a pipeline-local one; with a
  // tracer installed (e.g. proteusc --trace-json), its event stream is
  // reused and only this compile's slice is rendered.
  obs::Tracer local_trace;
  const bool use_local_trace =
      options.collect_trace && obs::tracer() == nullptr;
  obs::MaybeTracerScope trace_scope(use_local_trace ? &local_trace
                                                    : nullptr);
  obs::Tracer* trace = obs::tracer();
  const std::size_t first_event =
      trace != nullptr ? trace->event_count() : 0;

  obs::Span whole("compile", "compile");

  Program parsed;
  {
    obs::Span span("compile", "parse");
    span.counter("source_bytes", program_source.size());
    parsed = parse_program(program_source);
  }

  {
    obs::Span span("compile", "check");
    out.checked = typecheck(parsed);
    if (!entry_source.empty()) {
      ExprPtr entry = parse_expression(entry_source);
      Program lifted;
      out.entry_checked = typecheck_expression(out.checked, entry, &lifted);
      // Lambdas lifted out of the entry expression join the program.
      for (FunDef& f : lifted.functions) {
        out.checked.functions.push_back(std::move(f));
      }
    }
    span.counter("functions", out.checked.functions.size());
  }

  ExprPtr entry_canonical;
  {
    obs::Span span("compile", "canonicalize[R1]");
    RuleCounts r1;
    out.canonical = canonicalize(out.checked, names, &r1);
    if (out.entry_checked != nullptr) {
      entry_canonical = canonicalize(out.entry_checked, names, &r1);
    }
    attach_rules(span, r1);
    merge_rules(out.rule_counts, r1);
  }

  {
    obs::Span span("compile", "flatten[R2]");
    if (out.entry_checked != nullptr) {
      FlattenedProgram flat;
      out.entry_flat = flatten_expression(out.canonical, entry_canonical,
                                          names, &flat, options.flatten);
      out.flat = std::move(flat.program);
      attach_rules(span, flat.rule_counts);
      merge_rules(out.rule_counts, flat.rule_counts);
    } else {
      FlattenedProgram flat = flatten(out.canonical, names, options.flatten);
      out.flat = std::move(flat.program);
      attach_rules(span, flat.rule_counts);
      merge_rules(out.rule_counts, flat.rule_counts);
    }
  }

  {
    obs::Span span("compile", "optimize");
    if (options.shared_row_gather) {
      out.flat = optimize_shared_rows(out.flat);
      if (out.entry_flat != nullptr) {
        out.entry_flat = optimize_shared_rows(out.entry_flat);
      }
    }
    out.flat = remove_dead_lets(out.flat);
    if (out.entry_flat != nullptr) {
      out.entry_flat = remove_dead_lets(out.entry_flat);
    }
  }

  {
    obs::Span span("compile", "translate[T1]");
    if (out.entry_flat != nullptr) {
      out.entry_vec = translate(out.entry_flat, names);
    }
    out.vec = translate(out.flat, names);
    span.counter("functions", out.vec.functions.size());
  }

  {
    // The static shape/depth analyzer over the final V program: catches
    // transformation bugs at compile time instead of run time.
    obs::Span span("compile", "analyze");
    out.analysis = analysis::analyze_program(out.vec);
    if (out.entry_vec != nullptr) {
      out.analysis.merge(analysis::analyze_expression(out.vec, out.entry_vec));
    }
    span.counter("diagnostics", out.analysis.size());
    if (!out.analysis.ok()) {
      throw analysis::AnalysisError(out.analysis);
    }
  }

  // The unoptimized module: what out.module falls back to when the
  // optimizer traps or the verifier rejects its output.
  std::shared_ptr<const vm::Module> unoptimized;
  {
    obs::Span span("compile", "vm-assemble");
    std::shared_ptr<vm::Module> module =
        vm::compile_module(out.vec, out.entry_vec);
    // Attach the external calling convention: the *checked* (source-level)
    // parameter/result types of every user-visible function, plus the
    // entry expression's type. This is what a serialized module needs to
    // convert boxed P values at its boundary with no AST in the process
    // (vm/module_io.hpp). The `^d` extensions T1 manufactures are
    // internal-only and stay signature-less.
    module->signatures.resize(module->functions.size());
    for (std::size_t i = 0; i < module->functions.size(); ++i) {
      const lang::FunDef* def = out.checked.find(module->functions[i].name);
      if (def == nullptr || def->result == nullptr) continue;
      vm::Signature& sig = module->signatures[i];
      sig.present = true;
      sig.params.reserve(def->params.size());
      for (const lang::Param& p : def->params) sig.params.push_back(p.type);
      sig.result = def->result;
    }
    if (module->entry >= 0 && out.entry_checked != nullptr &&
        out.entry_checked->type != nullptr) {
      vm::Signature& sig =
          module->signatures[static_cast<std::size_t>(module->entry)];
      sig.present = true;
      sig.result = out.entry_checked->type;
    }
    unoptimized = module;
    out.module = unoptimized;
  }

  if (options.optimize_vcode) {
    obs::Span span("compile", "optimize-vcode");
    try {
      rt::maybe_fail_opt();  // deterministic fault injection (--inject=opt:N)
      out.module = vm::optimize_module(
          *out.module, &out.fusion, vm::extension_frames(out.vec, *out.module));
    } catch (const rt::RuntimeTrap& trap) {
      // A resource trap (or an injected fault) inside the optimizer is
      // survivable: keep the already-assembled -O0 module and record the
      // downgrade.
      out.fusion = vm::FuseStats{};
      out.module = unoptimized;
      out.compile_fallbacks.push_back(
          std::string("optimize-vcode trap: kept -O0 module: ") +
          trap.what());
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("compile", "fallback.opt", trap.what());
      }
    }
    span.counter("fused_chains", out.fusion.fused_chains);
    span.counter("fused_prims", out.fusion.fused_prims);
    span.counter("eliminated_instrs", out.fusion.eliminated_instrs);
    span.counter("elided_gathers", out.fusion.elided_gathers);
    span.counter("inlined_calls", out.fusion.inlined_calls);
  }

  if (options.verify_vcode) {
    obs::Span span("compile", "verify-vcode");
    analysis::Report vcode = vm::verify_module(*out.module);
    span.counter("diagnostics", vcode.size());
    bool rejected = !vcode.ok();
    if (rejected && out.module != unoptimized) {
      // The *optimized* module failed verification: distrust the
      // optimizer's output, fall back to -O0, and verify that instead.
      // Only an -O0 rejection is fatal.
      out.compile_fallbacks.push_back(
          "verify-vcode rejected optimized module: kept -O0 module");
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("compile", "fallback.verify",
                   "optimized module rejected; reverting to -O0");
      }
      out.fusion = vm::FuseStats{};
      out.module = unoptimized;
      vcode = vm::verify_module(*out.module);
      rejected = !vcode.ok();
    }
    out.analysis.merge(vcode);
    if (rejected) {
      throw analysis::AnalysisError(std::move(vcode));
    }
  }

  {
    obs::Span span("compile", "plan-memory");
    // Attach the memory plan (analysis/lifetime.hpp) to the module that
    // runs: the artifact behind the VM's death clearing and
    // `proteusc --analyze=memory`. The span name is read by
    // bench/e2e/traced.cpp. The const_pointer_cast is safe: the pipeline
    // is the sole owner of the freshly assembled module at this point.
    analysis::PlanResult pr = analysis::plan_module(*out.module);
    std::const_pointer_cast<vm::Module>(out.module)->plan =
        std::make_shared<const analysis::MemoryPlan>(std::move(pr.plan));
    out.memory_report = std::move(pr.report);
    span.counter("diagnostics", out.memory_report.size());
  }

  if (options.collect_trace && trace != nullptr) {
    out.derivation = trace->rule_lines(first_event);
  }
  return out;
}

}  // namespace proteus::xform
