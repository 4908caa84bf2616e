#include "core/proteus.hpp"

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

namespace {

/// The calling convention's argument count check, shared by every run_*
/// call: a wrong count is the caller's error, not the program's.
void require_count(const std::string& fn, std::size_t expected,
                   std::size_t got) {
  if (got == expected) return;
  std::string msg = "'";
  msg += fn;
  msg += "' called with wrong argument count: expected ";
  msg += std::to_string(expected);
  msg += ", got ";
  msg += std::to_string(got);
  throw SignatureError(msg);
}

/// Runs `run` as one governed run_* call: fresh cost counters, the
/// Session's tracer and budget installed for its duration. A trap is
/// counted as rt.trap.T00x in `cost.metrics` and propagates.
template <class Run>
auto governed(RunCost& cost, obs::Tracer* tracer, const rt::ExecBudget& budget,
              Run&& run) -> decltype(run()) {
  cost = RunCost{};
  RunScope tracing(tracer);
  rt::GovernorScope governor(budget);
  try {
    return run();
  } catch (const rt::RuntimeTrap& trap) {
    cost.metrics.add(std::string("rt.trap.") + trap.code(), 1);
    throw;
  }
}

/// The literal text of a VM result.
std::string text(const kernels::VValue& v, const TypePtr& type) {
  std::string s;
  kernels::encode(v, type, s);
  return s;
}

}  // namespace

namespace detail {

/// A VM run's arguments, converted to the flat representation inside the
/// governed run (docs/ROBUSTNESS.md): the VM gets buffers it alone owns
/// and the conversion is charged to the run's budget. Boxed arguments
/// (the public boxed API) convert through from_boxed; literal text (the
/// daemon) through the signature-driven codec, with parse_value for text
/// outside its subset.
class ArgSource {
 public:
  ArgSource(const std::string& fn, const std::vector<TypePtr>& params,
            const ValueList& boxed)
      : fn_(fn), params_(params), boxed_(&boxed) {
    require_count(fn, params.size(), boxed.size());
  }

  ArgSource(const std::string& fn, const std::vector<TypePtr>& params,
            std::span<const std::string_view> text, std::uint64_t* fallbacks)
      : fn_(fn), params_(params), text_(text),
        fallbacks_(fallbacks) {
    require_count(fn, params.size(), text.size());
  }

  /// Flat arguments for the VM.
  std::vector<kernels::VValue> flat() {
    std::vector<kernels::VValue> out;
    out.reserve(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
      out.push_back(flat_arg(i));
    }
    return out;
  }

 private:
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

Session::Session(std::string_view program_source,
                 std::string_view entry_source,
                 const xform::PipelineOptions& options)
    : compiled_(std::make_shared<const xform::Compiled>(
          xform::compile(program_source, entry_source, options))),
      module_(compiled_->module) {
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

kernels::VValue Session::vm_run(const std::string* name,
                                detail::ArgSource* args) {
  return governed(cost_, tracer_, budget_, [&] {
    std::vector<kernels::VValue> vargs;
    if (name != nullptr) vargs = args->flat();
    // The pipeline verified the module at assembly time and
    // vm::load_module at load; re-verifying on every run would tax the
    // dispatch benches.
    vm::VM machine(module_, {.prims = prim_options_,
                             .profile = vm_profile_,
                             .verify = false,
                             .clear_dead = true});
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
  });
}

Value Session::interp_run(const std::string* name, const ValueList& args) {
  PROTEUS_REQUIRE(EvalError, compiled_ != nullptr,
                  "the reference interpreter needs the source program; "
                  "this session wraps a bare module");
  return governed(cost_, tracer_, budget_, [&] {
    interp::Interpreter interp(compiled_->checked);
    Value result;
    {
      obs::Span span("run", "run.reference");
      result = name != nullptr ? interp.call_function(*name, args)
                               : interp.eval(compiled_->entry_checked);
      cost_.reference = interp.stats();
      span.counter("iterations", cost_.reference.iterations);
      span.counter("scalar_ops", cost_.reference.scalar_ops);
      span.counter("calls", cost_.reference.calls);
    }
    publish_metrics(cost_, "ref");
    return result;
  });
}

Value Session::run_reference(const std::string& name,
                             const ValueList& args) {
  require_count(name, signature(&name).params.size(), args.size());
  return interp_run(&name, args);
}

Value Session::run_vm(const std::string& name, const ValueList& args) {
  const vm::Signature& sig = signature(&name);
  detail::ArgSource source(name, sig.params, args);
  return kernels::to_boxed(vm_run(&name, &source), sig.result);
}

std::string Session::run_vm_text(const std::string& name,
                                 std::span<const std::string_view> args) {
  decode_fallbacks_ = 0;
  const vm::Signature& sig = signature(&name);
  detail::ArgSource source(name, sig.params, args, &decode_fallbacks_);
  return text(vm_run(&name, &source), sig.result);
}

Value Session::run_entry_reference() {
  (void)signature(nullptr);  // a session without an entry throws here
  return interp_run(nullptr, {});
}

Value Session::run_entry_vm() {
  const vm::Signature& sig = signature(nullptr);
  return kernels::to_boxed(vm_run(nullptr, nullptr), sig.result);
}

std::string Session::run_entry_vm_text() {
  decode_fallbacks_ = 0;
  const vm::Signature& sig = signature(nullptr);
  return text(vm_run(nullptr, nullptr), sig.result);
}

Value parse_value(std::string_view literal) {
  lang::ExprPtr expr = lang::parse_expression(literal);
  lang::Program empty;
  lang::ExprPtr typed = lang::typecheck_expression(empty, expr);
  interp::Interpreter interp(empty);
  return interp.eval(typed);
}

}  // namespace proteus
