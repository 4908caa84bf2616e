// The VCODE optimizer (vm/fuse.hpp): fusion actually fires on
// elementwise chains, -O1 and -O0 agree on results AND on the emulated
// cost model (only the physical buffer_allocs counter may drop),
// in-place buffer reuse is suppressed when the caller retains the input,
// and throw behaviour (division by zero mid-chain) survives fusion.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "testing.hpp"
#include "vm/disasm.hpp"
#include "vm/fuse.hpp"
#include "vm/verify.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using testing::val;

const char* kChain = R"(
  fun chain(v: seq(int)): seq(int) =
    [x <- v : (x * 3 + 1) * (x - 2) + x * x]
)";

xform::PipelineOptions unfused_options() {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return options;
}

std::size_t count_fused(const vm::Module& m) {
  std::size_t n = 0;
  for (const vm::Function& f : m.functions) {
    for (const vm::Instr& in : f.code) {
      if (in.op == vm::Op::kFusedMap) ++n;
    }
  }
  return n;
}

TEST(VmFuse, FusionFiresOnElementwiseChains) {
  Session s(kChain);
  EXPECT_GT(count_fused(*s.compiled().module), 0u);
  EXPECT_GT(s.compiled().fusion.fused_chains, 0u);
  EXPECT_GE(s.compiled().fusion.fused_prims, 2u);
  EXPECT_GT(s.compiled().fusion.eliminated_instrs, 0u);
  // The disassembler renders the chain as a micro-expression tree.
  EXPECT_NE(vm::to_text(*s.compiled().module).find("fused"),
            std::string::npos);
  // -O0 leaves the stream untouched.
  Session s0(kChain, {}, unfused_options());
  EXPECT_EQ(count_fused(*s0.compiled().module), 0u);
  EXPECT_EQ(s0.compiled().fusion.fused_chains, 0u);
}

TEST(VmFuse, OptimizedModuleVerifiesClean) {
  Session s(kChain);
  analysis::Report r = vm::verify_module(*s.compiled().module);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
}

TEST(VmFuse, O1AgreesWithO0AndEveryEngine) {
  Session fused(kChain);
  Session unfused(kChain, {}, unfused_options());
  for (const char* input :
       {"[1,2,3,4,5]", "[-3,0,7]", "([] : seq(int))", "[100]"}) {
    interp::ValueList args = {val(input)};
    interp::Value want = testing::both(fused, "chain", args);
    EXPECT_EQ(unfused.run_vm("chain", args), want) << input;
  }
}

TEST(VmFuse, CostModelIsEmulatedExactly) {
  // Fusion must be invisible to the logical cost model: primitive calls,
  // element work, and the per-prim tally all match the unfused stream.
  // Only buffer_allocs — the physical counter — drops.
  Session fused(kChain);
  Session unfused(kChain, {}, unfused_options());
  interp::ValueList args = {val("[4,8,15,16,23,42]")};
  (void)fused.run_vm("chain", args);
  const vl::VectorStats f = fused.last_cost().vector_work;
  const vm::VMStats fo = fused.last_cost().vm_ops;
  (void)unfused.run_vm("chain", args);
  const vl::VectorStats u = unfused.last_cost().vector_work;
  const vm::VMStats uo = unfused.last_cost().vm_ops;
  EXPECT_EQ(f.primitive_calls, u.primitive_calls);
  EXPECT_EQ(f.element_work, u.element_work);
  EXPECT_EQ(fo.prim_applications, uo.prim_applications);
  EXPECT_EQ(fo.per_prim, uo.per_prim);
  EXPECT_LT(f.buffer_allocs, u.buffer_allocs);
}

TEST(VmFuse, OptimizeModuleRoundTrip) {
  // optimize_module over an unoptimized module: fuses, verifies clean,
  // and the optimized module's VM agrees with the original.
  Session s0(kChain, {}, unfused_options());
  vm::FuseStats stats;
  std::shared_ptr<const vm::Module> opt =
      vm::optimize_module(*s0.compiled().module, &stats);
  EXPECT_GT(stats.fused_chains, 0u);
  EXPECT_GT(count_fused(*opt), 0u);
  analysis::Report r = vm::verify_module(*opt);
  EXPECT_TRUE(r.ok()) << r.to_text();

  const lang::FunDef* f = s0.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  kernels::VValue arg =
      kernels::from_boxed(val("[3,1,4,1,5,9,2,6]"), f->params[0].type);
  vm::VM plain(s0.compiled().module);
  vm::VM optimized(opt);
  EXPECT_EQ(kernels::to_boxed(plain.call_function("chain", {arg}), f->result),
            kernels::to_boxed(optimized.call_function("chain", {arg}),
                           f->result));
}

TEST(VmFuse, InPlaceReuseIsSuppressedWhenCallerRetainsTheInput) {
  // call_function takes its arguments by value: passing {arg} while the
  // test retains `arg` leaves the buffer shared, so the fused kernel's
  // sole-ownership check must refuse to steal it. The input survives
  // unchanged and repeated calls agree.
  Session s(kChain);
  ASSERT_GT(s.compiled().fusion.fused_chains, 0u);
  const lang::FunDef* f = s.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  interp::Value boxed = val("[7,-2,0,31,8]");
  kernels::VValue arg = kernels::from_boxed(boxed, f->params[0].type);
  vm::VM machine(s.compiled().module);
  interp::Value r1 =
      kernels::to_boxed(machine.call_function("chain", {arg}), f->result);
  // The retained argument still holds its original contents...
  EXPECT_EQ(kernels::to_boxed(arg, f->params[0].type), boxed);
  // ...and a second call over the same buffer reproduces the result.
  interp::Value r2 =
      kernels::to_boxed(machine.call_function("chain", {arg}), f->result);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, s.run_reference("chain", {boxed}));
}

TEST(VmFuse, MoveConsumedArgumentsEnableInPlaceExecution) {
  // When the caller hands over its only reference, the fused chain runs
  // in the input's buffer: same result, one alloc fewer than the shared
  // case above.
  Session s(kChain);
  const lang::FunDef* f = s.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  vm::VM machine(s.compiled().module);
  kernels::VValue owned = kernels::from_boxed(val("[7,-2,0,31,8]"),
                                        f->params[0].type);
  interp::Value moved = kernels::to_boxed(
      machine.call_function("chain", {std::move(owned)}), f->result);
  EXPECT_EQ(moved, s.run_reference("chain", {val("[7,-2,0,31,8]")}));
}

TEST(VmFuse, ThrowsSurviveFusionMidChain) {
  // Division by zero inside a fused chain must throw exactly as the
  // unfused instructions would — including on the serial small-frame
  // path (n far below the parallel grain).
  const char* kDiv = R"(
    fun g(v: seq(int)): seq(int) = [x <- v : (10 / x) * 2 + 1]
  )";
  Session fused(kDiv);
  Session unfused(kDiv, {}, unfused_options());
  ASSERT_GT(fused.compiled().fusion.fused_chains, 0u);
  interp::ValueList ok = {val("[1,2,5]")};
  EXPECT_EQ(fused.run_vm("g", ok), unfused.run_vm("g", ok));
  interp::ValueList bad = {val("[1,0,5]")};
  EXPECT_THROW((void)unfused.run_vm("g", bad), EvalError);
  try {
    (void)fused.run_vm("g", bad);
    FAIL() << "expected division-by-zero EvalError from the fused chain";
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("division by zero"),
              std::string::npos);
  }
}

TEST(VmFuse, RepeatedOperandAliasingIsLaneSafe) {
  // x*x + x reads the frame operand in three leaves; with the chain run
  // in place the root writes into that same buffer, which is safe only
  // lane-by-lane. A wrong traversal order corrupts later lanes.
  Session s("fun g(v: seq(int)): seq(int) = [x <- v : x * x + x]");
  ASSERT_GT(s.compiled().fusion.fused_chains, 0u);
  testing::expect_both(s, "g", {val("[1,2,3,4]")}, "[2,6,12,20]");
}

TEST(VmFuse, FusionStatsRideThePipelineSpans) {
  // The optimize-vcode stage runs between assembly and verification and
  // its tallies land in Compiled::fusion (consumed by proteusc --stats).
  Session s(kChain);
  const vm::FuseStats& fs = s.compiled().fusion;
  EXPECT_GE(fs.fused_prims, fs.fused_chains * 2);
  EXPECT_GE(fs.eliminated_instrs, fs.fused_prims - fs.fused_chains);
}

}  // namespace
}  // namespace proteus
