#include "vm/vm.hpp"

#include <chrono>
#include <utility>

#include "analysis/lifetime.hpp"
#include "obs/tracer.hpp"
#include "rt/governor.hpp"
#include "vl/backend.hpp"
#include "vl/check.hpp"
#include "vm/verify.hpp"

namespace proteus::vm {

using kernels::VValue;
using Clock = std::chrono::steady_clock;

namespace {

const std::vector<std::uint8_t> kAllFrames;  // empty lifted set

[[noreturn]] void unknown_function(const std::string& name) {
  throw EvalError("vector executor: unknown function '" + name +
                  "' (was its parallel extension generated?)");
}

}  // namespace

VM::VM(std::shared_ptr<const Module> module, VMOptions options)
    : module_(std::move(module)), options_(options) {
  PROTEUS_REQUIRE(EvalError, module_ != nullptr, "vm: null module");
  if (options_.verify) verify_module_or_throw(*module_);
}

const analysis::FunctionPlan* VM::deaths_of(std::uint32_t index) const {
  if (!options_.clear_dead || module_->plan == nullptr) return nullptr;
  if (index >= module_->plan->functions.size()) return nullptr;
  const analysis::FunctionPlan& fp = module_->plan->functions[index];
  // A plan out of step with the code (a hand-built module) is ignored
  // rather than trusted.
  if (fp.death_off.size() !=
      module_->functions[index].code.size() + 1) {
    return nullptr;
  }
  return &fp;
}

VValue VM::call_function(const std::string& name, std::vector<VValue> args) {
  auto it = module_->fn_index.find(name);
  if (it == module_->fn_index.end()) unknown_function(name);
  return invoke(it->second, std::move(args), name);
}

VValue VM::eval_entry() {
  PROTEUS_REQUIRE(EvalError, module_->entry >= 0,
                  "vm: module has no compiled entry expression");
  const auto entry = static_cast<std::uint32_t>(module_->entry);
  const Function& fn = module_->functions[entry];
  return run(fn, std::vector<VValue>(fn.n_regs), deaths_of(entry));
}

VValue VM::invoke(std::uint32_t index, std::vector<VValue> args,
                  const std::string& name) {
  const Function& fn = module_->functions[index];
  PROTEUS_REQUIRE(EvalError, args.size() == fn.n_params,
                  "'" + name + "' called with wrong argument count");
  if (++call_depth_ > rt::depth_limit()) {
    --call_depth_;
    rt::raise(rt::Trap::kDepth, "call depth limit exceeded in '" + name + "'",
              "vm");
  }
  stats_.calls += 1;
  args.resize(fn.n_regs);
  VValue result = run(fn, std::move(args), deaths_of(index));
  --call_depth_;
  return result;
}

VValue VM::run(const Function& fn, std::vector<VValue> regs,
               const analysis::FunctionPlan* fp) {
  const Instr* code = fn.code.data();
  const bool profile = options_.profile;
  // Death clearing: after pc's operands are consumed, the registers the
  // plan proves dead reset to the default VValue. Dropping the last
  // reference frees the backing buffers at their last use instead of at
  // the frame's return.
  const auto clear_dead = [&](std::size_t at) {
    if (fp == nullptr) return;
    for (std::uint32_t i = fp->death_off[at]; i < fp->death_off[at + 1];
         ++i) {
      regs[fp->death_regs[i]] = VValue();
    }
  };
  std::size_t pc = 0;
  for (;;) {
    // One cooperative governor check per instruction: cancellation,
    // deadline, and trips deferred from parallel kernel regions surface
    // here with the current pc. Inactive cost is one relaxed load.
    rt::poll("vm", static_cast<std::int64_t>(pc));
    const Instr& in = code[pc];
    const std::size_t at = pc;
    ++pc;
    stats_.instructions += 1;
    OpProfile& prof = stats_.per_op[static_cast<std::size_t>(in.op)];
    prof.count += 1;
    const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
    const auto gather = [&](std::size_t from) {
      std::vector<VValue> vals;
      vals.reserve(in.args_count - from);
      for (std::size_t i = from; i < in.args_count; ++i) {
        vals.push_back(regs[a[i]]);
      }
      return vals;
    };

    // Movement and control: no vl work to attribute.
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadFun:
        regs[in.dst] = module_->constants[static_cast<std::size_t>(in.aux)];
        continue;
      case Op::kMove:
        regs[in.dst] = regs[a[0]];
        clear_dead(at);
        continue;
      case Op::kJump:
        pc = static_cast<std::size_t>(in.aux);
        continue;
      case Op::kJumpIfFalse: {
        const bool cond = regs[a[0]].as_bool();
        clear_dead(at);
        if (!cond) pc = static_cast<std::size_t>(in.aux);
        continue;
      }
      case Op::kRet:
        return std::move(regs[a[0]]);
      case Op::kCall: {
        if (in.aux < 0) {
          unknown_function(module_->names[static_cast<std::size_t>(in.aux2)]);
        }
        const auto callee = static_cast<std::uint32_t>(in.aux);
        std::vector<VValue> vals = gather(0);
        clear_dead(at);  // free caller copies for the callee's lifetime
        regs[in.dst] =
            invoke(callee, std::move(vals), module_->functions[callee].name);
        continue;
      }
      case Op::kCallIndirect: {
        const VValue& f = regs[a[0]];
        const std::string target =
            in.depth == 0 ? f.fun_name()
                          : lang::extension_name(f.fun_name(), 1);
        auto it = module_->fn_index.find(target);
        if (it == module_->fn_index.end()) unknown_function(target);
        std::vector<VValue> vals = gather(1);
        clear_dead(at);
        regs[in.dst] = invoke(it->second, std::move(vals), target);
        continue;
      }
      default:
        break;
    }

    // Kernel opcodes: attribute vl primitives and element work (and, when
    // profiling, wall time) to this opcode family. The span costs one
    // branch per kernel instruction when no tracer is installed.
    obs::Span span("op", op_name(in.op));
    const std::uint64_t work0 = vl::stats().element_work;
    const std::uint64_t calls0 = vl::stats().primitive_calls;
    const Clock::time_point t0 = profile ? Clock::now() : Clock::time_point{};
    VValue out;
    switch (in.op) {
      case Op::kScalar:
      case Op::kElementwise:
      case Op::kBuild:
      case Op::kGather:
      case Op::kPack:
      case Op::kReduce:
      case Op::kSegment: {
        stats_.prim_applications += 1;
        stats_.per_prim[in.prim] += 1;
        std::vector<VValue> vals = gather(0);
        out = in.depth == 0
                  ? kernels::apply_prim0(in.prim, vals)
                  : kernels::apply_prim1(
                        in.prim, vals,
                        in.lifted >= 0
                            ? fn.lifted_sets[static_cast<std::size_t>(
                                  in.lifted)]
                            : kAllFrames,
                        options_.prims);
        break;
      }
      case Op::kExtract:
        stats_.prim_applications += 1;
        stats_.per_prim[in.prim] += 1;
        out = VValue::seq(seq::extract(regs[a[0]].as_seq(), in.depth));
        break;
      case Op::kInsert:
        stats_.prim_applications += 1;
        stats_.per_prim[in.prim] += 1;
        out = VValue::seq(seq::insert(regs[a[0]].as_seq(),
                                      regs[a[1]].as_seq(), in.depth));
        break;
      case Op::kEmptyFrame:
        stats_.prim_applications += 1;
        stats_.per_prim[in.prim] += 1;
        out = kernels::empty_frame_value(
            regs[a[0]], in.depth,
            module_->types[static_cast<std::size_t>(in.aux)]);
        break;
      case Op::kBranchEmpty: {
        // The fused R2d guard still counts as an any_true application so
        // engine stats stay comparable.
        stats_.prim_applications += 1;
        stats_.per_prim[lang::Prim::kAnyTrue] += 1;
        const bool any = kernels::any_true_frame(regs[a[0]]);
        clear_dead(at);
        prof.element_work += vl::stats().element_work - work0;
        prof.primitive_calls += vl::stats().primitive_calls - calls0;
        if (span.active()) {
          span.counter("elements", vl::stats().element_work - work0);
        }
        if (profile) {
          prof.nanos += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
        }
        if (!any) pc = static_cast<std::size_t>(in.aux);
        continue;
      }
      case Op::kSeqCons:
        out = in.depth == 1
                  ? kernels::seq_cons1(gather(0))
                  : kernels::seq_cons0(
                        gather(0),
                        in.aux >= 0
                            ? module_->types[static_cast<std::size_t>(in.aux)]
                            : nullptr);
        break;
      case Op::kTuple:
        out = kernels::tuple_cons(gather(0), in.depth);
        break;
      case Op::kTupleGet:
        out = kernels::tuple_get(regs[a[0]], in.aux, in.depth);
        break;
      case Op::kFusedMap: {
        const kernels::FusedExpr& fe =
            fn.fused[static_cast<std::size_t>(in.aux)];
        std::vector<VValue> vals;
        vals.reserve(in.args_count);
        for (std::size_t i = 0; i < in.args_count; ++i) {
          // A dying register moves into the kernel so its buffer can be
          // reused in place; flags mark only the LAST occurrence of a
          // register, so earlier duplicate slots still see the value.
          if ((fe.input_flags[i] & kernels::kFusedLastUse) != 0) {
            vals.push_back(std::move(regs[a[i]]));
          } else {
            vals.push_back(regs[a[i]]);
          }
        }
        // Every constituent prim still counts as one application, exactly
        // as the unfused chain would have reported.
        for (const kernels::MicroOp& mo : fe.nodes) {
          if (mo.kind == kernels::MicroOp::Kind::kPrim) {
            stats_.prim_applications += 1;
            stats_.per_prim[mo.prim] += 1;
          }
        }
        out = kernels::eval_fused(fe, std::move(vals));
        break;
      }
      default:
        throw EvalError("vm: corrupt instruction stream");
    }
    prof.element_work += vl::stats().element_work - work0;
    prof.primitive_calls += vl::stats().primitive_calls - calls0;
    if (span.active()) {
      span.counter("elements", vl::stats().element_work - work0);
    }
    if (profile) {
      prof.nanos += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
    }
    regs[in.dst] = std::move(out);
    clear_dead(at);
  }
}

}  // namespace proteus::vm
