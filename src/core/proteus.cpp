#include "core/proteus.hpp"

#include <map>
#include <optional>
#include <utility>

#include "core/report.hpp"
#include "kernels/codec.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "vl/check.hpp"

namespace proteus {

using interp::Value;
using interp::ValueList;
using lang::TypePtr;

/// Installs a Session-level tracer (when one is set) for the duration of
/// a run_* call.
using RunScope = obs::MaybeTracerScope;

namespace detail {

/// A run's arguments, converted afresh for every attempt of the ladder
/// (docs/ROBUSTNESS.md): the VM gets buffers it alone owns, the conversion
/// is charged to the run's budget, and an injected fault striking during
/// it is absorbed by the same ladder. Boxed arguments (the public boxed
/// API) convert through from_boxed; literal text (the daemon) through the
/// signature-driven codec, with parse_value for text outside its subset.
class ArgSource {
 public:
  ArgSource(const std::string& fn, const std::vector<TypePtr>& params,
            const ValueList& boxed)
      : fn_(fn), params_(params), boxed_(&boxed) {
    require_count(boxed.size());
  }

  ArgSource(const std::string& fn, const std::vector<TypePtr>& params,
            std::span<const std::string_view> text, std::uint64_t* fallbacks)
      : fn_(fn), params_(params), text_(text),
        fallbacks_(fallbacks) {
    require_count(text.size());
  }

  /// Flat arguments for the VM.
  std::vector<kernels::VValue> flat() {
    if (fallbacks_ != nullptr) *fallbacks_ = 0;
    std::vector<kernels::VValue> out;
    out.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
      out.push_back(flat_arg(i));
    }
    return out;
  }

  /// Boxed arguments for the reference interpreter.
  ValueList boxed() {
    if (boxed_ != nullptr) return *boxed_;
    if (fallbacks_ != nullptr) *fallbacks_ = 0;
    ValueList out;
    out.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
      out.push_back(kernels::to_boxed(flat_arg(i), params_[i]));
    }
    return out;
  }

 private:
  void require_count(std::size_t n) const {
    if (n == params_.size()) return;
    std::string msg = "'";
    msg += fn_;
    msg += "' called with wrong argument count: expected ";
    msg += std::to_string(params_.size());
    msg += ", got ";
    msg += std::to_string(n);
    throw SignatureError(msg);
  }

  kernels::VValue flat_arg(std::size_t i) {
    if (boxed_ != nullptr) return convert((*boxed_)[i], i);
    if (std::optional<kernels::VValue> v = kernels::decode(text_[i], params_[i])) {
      return std::move(*v);
    }
    if (fallbacks_ != nullptr) *fallbacks_ += 1;
    return convert(parse_value(text_[i]), i);
  }

  kernels::VValue convert(const Value& v, std::size_t i) const {
    try {
      return kernels::from_boxed(v, params_[i]);
    } catch (const EvalError&) {
      std::string msg = "argument ";
      msg += std::to_string(i + 1);
      msg += " of '";
      msg += fn_;
      msg += "' must have type ";
      msg += lang::to_string(params_[i]);
      throw SignatureError(msg);
    }
  }

  const std::string& fn_;
  const std::vector<TypePtr>& params_;
  const ValueList* boxed_ = nullptr;
  std::span<const std::string_view> text_;
  std::uint64_t* fallbacks_ = nullptr;
};

}  // namespace detail

namespace {

/// The boxed form of an attempt's result.
template <class Outcome>
Value boxed(Outcome out, const TypePtr& type) {
  if (Value* v = std::get_if<Value>(&out)) return std::move(*v);
  return kernels::to_boxed(std::get<kernels::VValue>(out), type);
}

/// The literal text of an attempt's result.
template <class Outcome>
std::string text(const Outcome& out, const TypePtr& type) {
  if (const Value* v = std::get_if<Value>(&out)) return interp::to_text(*v);
  std::string s;
  kernels::encode(std::get<kernels::VValue>(out), type, s);
  return s;
}

}  // namespace

Session::Session(std::string_view program_source,
                 std::string_view entry_source,
                 const xform::PipelineOptions& options)
    : Session(std::make_shared<const xform::Compiled>(
                  xform::compile(program_source, entry_source, options)),
              options) {}

Session::Session(std::shared_ptr<const xform::Compiled> compiled,
                 const xform::PipelineOptions& options)
    : compiled_(std::move(compiled)) {
  PROTEUS_REQUIRE(EvalError, compiled_ != nullptr,
                  "Session requires a non-null compiled program");
  module_ = compiled_->module;
  prim_options_.shared_source_gather =
      options.flatten.broadcast_invariant_seq_args;
}

Session::Session(std::shared_ptr<const vm::Module> module)
    : module_(std::move(module)) {
  PROTEUS_REQUIRE(EvalError, module_ != nullptr,
                  "Session requires a non-null module");
}

const vm::Signature& Session::signature(const std::string* name) const {
  std::uint32_t index = 0;
  if (name == nullptr) {
    PROTEUS_REQUIRE(EvalError, module_->entry >= 0,
                    "session was created without an entry expression");
    index = static_cast<std::uint32_t>(module_->entry);
  } else {
    auto it = module_->fn_index.find(*name);
    if (it == module_->fn_index.end()) {
      throw SignatureError("session has no function named '" + *name + "'");
    }
    index = it->second;
  }
  const vm::Signature* sig = module_->signature(index);
  if (sig == nullptr) {
    std::string msg = "'";
    msg += module_->functions[index].name;
    msg += "' carries no calling convention (internal functions are not "
           "callable)";
    throw SignatureError(msg);
  }
  return *sig;
}

TypePtr Session::result_type(const std::string& name) const {
  return signature(&name).result;
}

const char* Session::engine_name(Engine engine) {
  switch (engine) {
    case Engine::kVm:
      return "vm";
    case Engine::kVmO0:
      return "vm-o0";
    case Engine::kInterp:
      break;
  }
  return "interp";
}

Session::Outcome Session::run_ladder(std::span<const Engine> rungs,
                                     const std::string* name,
                                     detail::ArgSource* args) {
  cost_ = RunCost{};
  degradations_.clear();
  RunScope tracing(tracer_);
  // One governor scope spans the whole ladder: a fallback attempt runs
  // under the same deadline and budget as the attempt it replaces.
  rt::GovernorScope governor(budget_);
  // rt.* events are buffered here and merged after publish_metrics (which
  // clears the registry) so they survive into last_cost().metrics.
  std::map<std::string, std::uint64_t> rt_events;
  auto merge_events = [&] {
    for (const auto& [event, count] : rt_events) cost_.metrics.add(event, count);
  };
  for (std::size_t i = 0;; ++i) {
    const char* engine = engine_name(rungs[i]);
    try {
      Outcome result = attempt(rungs[i], name, args);
      merge_events();
      return result;
    } catch (const rt::RuntimeTrap& trap) {
      rt_events[std::string("rt.trap.") + trap_code(trap.trap())] += 1;
      const bool can_retry = fallback_ && i + 1 < rungs.size() &&
                             rt::retryable(trap.trap());
      if (!can_retry) {
        degradations_.push_back(std::string("trap in ") + engine + ": " +
                                trap.what());
        merge_events();
        throw;
      }
      const char* next = engine_name(rungs[i + 1]);
      rt_events[std::string("rt.fallback.") + engine] += 1;
      degradations_.push_back(std::string(engine) + " -> " + next +
                              " after " + trap.what());
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("run", std::string("rt.fallback.") + engine, trap.what());
      }
    }
  }
}

Session::Outcome Session::attempt(Engine engine, const std::string* name,
                                  detail::ArgSource* args) {
  cost_ = RunCost{};
  if (engine == Engine::kInterp) {
    ValueList boxed_args;
    if (name != nullptr) boxed_args = args->boxed();
    interp::Interpreter interp(compiled_->checked);
    Value result;
    {
      obs::Span span("run", "run.reference");
      result = name != nullptr ? interp.call_function(*name, boxed_args)
                               : interp.eval(compiled_->entry_checked);
      cost_.reference = interp.stats();
      span.counter("iterations", cost_.reference.iterations);
      span.counter("scalar_ops", cost_.reference.scalar_ops);
      span.counter("calls", cost_.reference.calls);
    }
    publish_metrics(cost_, "ref");
    return result;
  }
  std::vector<kernels::VValue> vargs;
  if (name != nullptr) vargs = args->flat();
  // The pipeline verified the modules at assembly time and
  // vm::load_module at load; re-verifying on every run would tax the
  // dispatch benches.
  vm::VM machine(engine == Engine::kVm ? module_ : compiled_->module_o0,
                 {prim_options_, vm_profile_, /*verify=*/false, vm_arena_,
                  vm_admission_});
  vl::reset_stats();
  kernels::VValue result;
  {
    obs::Span span("run", "run.vm");
    result = name != nullptr ? machine.call_function(*name, std::move(vargs))
                             : machine.eval_entry();
    cost_.vm_ops = machine.stats();
    cost_.vector_work = vl::stats();
    span.counter("elements", cost_.vector_work.element_work);
    span.counter("segments", cost_.vector_work.segment_work);
    span.counter("instructions", cost_.vm_ops.instructions);
    span.counter("calls", cost_.vm_ops.calls);
  }
  publish_metrics(cost_, "vm");
  return result;
}

Session::Outcome Session::run_vm_ladder(const std::string* name,
                                        detail::ArgSource* args) {
  // vm -O1 -> vm -O0 (when the optimizer changed the module) -> reference
  // interpreter; a bare module has the VM alone.
  static constexpr Engine kFull[] = {Engine::kVm, Engine::kVmO0,
                                     Engine::kInterp};
  static constexpr Engine kNoO0[] = {Engine::kVm, Engine::kInterp};
  std::span<const Engine> rungs = kNoO0;
  if (compiled_ == nullptr) {
    rungs = rungs.first(1);
  } else if (compiled_->module_o0 != nullptr &&
             compiled_->module_o0 != module_) {
    rungs = kFull;
  }
  return run_ladder(rungs, name, args);
}

Session::Outcome Session::run_interp(const std::string* name,
                                     detail::ArgSource* args) {
  PROTEUS_REQUIRE(EvalError, compiled_ != nullptr,
                  "the reference interpreter needs the source program; "
                  "this session wraps a bare module");
  static constexpr Engine kRungs[] = {Engine::kInterp};
  return run_ladder(kRungs, name, args);
}

Value Session::run_reference(const std::string& name,
                             const ValueList& args) {
  const vm::Signature& sig = signature(&name);
  detail::ArgSource source(name, sig.params, args);
  return boxed(run_interp(&name, &source), sig.result);
}

Value Session::run_vm(const std::string& name, const ValueList& args) {
  const vm::Signature& sig = signature(&name);
  detail::ArgSource source(name, sig.params, args);
  return boxed(run_vm_ladder(&name, &source), sig.result);
}

std::string Session::run_vm_text(const std::string& name,
                                 std::span<const std::string_view> args) {
  decode_fallbacks_ = 0;
  const vm::Signature& sig = signature(&name);
  detail::ArgSource source(name, sig.params, args, &decode_fallbacks_);
  return text(run_vm_ladder(&name, &source), sig.result);
}

Value Session::run_entry_reference() {
  const vm::Signature& sig = signature(nullptr);
  return boxed(run_interp(nullptr, nullptr), sig.result);
}

Value Session::run_entry_vm() {
  const vm::Signature& sig = signature(nullptr);
  return boxed(run_vm_ladder(nullptr, nullptr), sig.result);
}

std::string Session::run_entry_vm_text() {
  decode_fallbacks_ = 0;
  const vm::Signature& sig = signature(nullptr);
  return text(run_vm_ladder(nullptr, nullptr), sig.result);
}

Value parse_value(std::string_view literal) {
  lang::ExprPtr expr = lang::parse_expression(literal);
  lang::Program empty;
  lang::ExprPtr typed = lang::typecheck_expression(empty, expr);
  interp::Interpreter interp(empty);
  return interp.eval(typed);
}

}  // namespace proteus
