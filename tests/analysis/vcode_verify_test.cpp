// The VCODE bytecode verifier: hand-corrupted modules asserting each B2xx
// diagnostic fires, clean verdicts for compiler output, and the VM's
// load-time verification hook.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/proteus.hpp"
#include "vm/verify.hpp"
#include "vm/vm.hpp"

namespace proteus::vm {
namespace {

using analysis::Report;
using lang::Prim;

/// fun f(a, b) = a + b, hand-assembled.
Module add_module() {
  Module m;
  m.constants.push_back(kernels::VValue::ints(1));
  Function f;
  f.name = "f";
  f.n_params = 2;
  f.n_regs = 3;
  f.arg_pool = {0, 1, 2};
  f.code = {
      Instr{.op = Op::kScalar,
            .prim = Prim::kAdd,
            .dst = 2,
            .args_count = 2,
            .args_off = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 2},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

TEST(VcodeVerify, AcceptsHandAssembledModule) {
  Report r = verify_module(add_module());
  EXPECT_TRUE(r.ok()) << r.to_text();
}

TEST(VcodeVerify, AcceptsEveryCompilerOutput) {
  Session s(R"(
    fun quicksort(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let pivot = v[1 + (#v / 2)] in
        let parts = [p <- [[x <- v | x < pivot : x],
                           [x <- v | x > pivot : x]] : quicksort(p)] in
        parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
  )",
            "quicksort([3,1,2])");
  Report r = verify_module(*s.compiled().module);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
}

TEST(VcodeVerify, B201_ModuleTableInvalid) {
  Module m = add_module();
  m.entry = 99;
  EXPECT_TRUE(verify_module(m).has("B201"));

  Module m2 = add_module();
  m2.fn_index["ghost"] = 7;
  EXPECT_TRUE(verify_module(m2).has("B201"));

  Module m3 = add_module();
  m3.fn_index["g"] = 0;  // names function 'f'
  EXPECT_TRUE(verify_module(m3).has("B201"));
}

TEST(VcodeVerify, B202_ControlFlowFallsOffTheEnd) {
  Module m = add_module();
  m.functions[0].code.pop_back();  // drop the kRet
  EXPECT_TRUE(verify_module(m).has("B202"));

  Module m2 = add_module();
  m2.functions[0].code.clear();
  EXPECT_TRUE(verify_module(m2).has("B202"));
}

TEST(VcodeVerify, B203_RegisterOutsideTheFile) {
  Module m = add_module();
  m.functions[0].code[0].dst = 999;
  EXPECT_TRUE(verify_module(m).has("B203"));

  Module m2 = add_module();
  m2.functions[0].arg_pool[0] = 999;
  EXPECT_TRUE(verify_module(m2).has("B203"));
}

TEST(VcodeVerify, B204_OperandListOutsidePool) {
  Module m = add_module();
  m.functions[0].code[0].args_off = 1000;
  EXPECT_TRUE(verify_module(m).has("B204"));
}

TEST(VcodeVerify, B205_OperandArityAndSelectorMismatch) {
  Module m = add_module();
  m.functions[0].code[0].args_count = 1;  // add with one operand
  EXPECT_TRUE(verify_module(m).has("B205"));

  Module m2 = add_module();
  m2.functions[0].code[0].prim = Prim::kSum;  // reduce under kScalar
  EXPECT_TRUE(verify_module(m2).has("B205"));
}

TEST(VcodeVerify, B206_PoolIndexOutOfRange) {
  Module m = add_module();
  m.functions[0].code[0] =
      Instr{.op = Op::kConst, .dst = 2, .aux = 42};
  EXPECT_TRUE(verify_module(m).has("B206"));
}

TEST(VcodeVerify, B207_JumpTargetOutOfRange) {
  Module m = add_module();
  m.functions[0].code[0] = Instr{.op = Op::kJump, .aux = 99};
  EXPECT_TRUE(verify_module(m).has("B207"));
}

TEST(VcodeVerify, B208_CallArgumentCountMismatch) {
  Module m = add_module();
  Function g;
  g.name = "g";
  g.n_params = 0;
  g.n_regs = 1;
  g.arg_pool = {0};
  g.code = {
      // f takes two parameters; pass none.
      Instr{.op = Op::kCall, .dst = 0, .args_count = 0, .aux = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 0},
  };
  m.functions.push_back(std::move(g));
  m.fn_index["g"] = 1;
  EXPECT_TRUE(verify_module(m).has("B208"));
}

TEST(VcodeVerify, B209_LiftSetSizeMismatch) {
  Module m = add_module();
  Function& f = m.functions[0];
  f.lifted_sets.push_back({1});  // one flag for two operands
  f.code[0].op = Op::kElementwise;
  f.code[0].depth = 1;
  f.code[0].lifted = 0;
  EXPECT_TRUE(verify_module(m).has("B209"));
}

TEST(VcodeVerify, B210_UseBeforeDefinition) {
  Module m = add_module();
  m.functions[0].n_params = 1;  // r1 is no longer a parameter
  EXPECT_TRUE(verify_module(m).has("B210"));
}

TEST(VcodeVerify, B210_JoinOverBranches) {
  // r1 is written on only one arm of a branch, then read after the join.
  Module m;
  m.constants.push_back(kernels::VValue::ints(1));
  Function f;
  f.name = "f";
  f.n_params = 1;
  f.n_regs = 2;
  f.arg_pool = {0, 1};
  f.code = {
      Instr{.op = Op::kJumpIfFalse, .args_count = 1, .args_off = 0,
            .aux = 2},
      Instr{.op = Op::kConst, .dst = 1, .aux = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 1},  // join
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  EXPECT_TRUE(verify_module(m).has("B210"));
}

TEST(VcodeVerify, B211_DepthIncompatibleSurgery) {
  // extract of a scalar register can never satisfy Figure 2.
  Module m;
  m.constants.push_back(kernels::VValue::ints(1));
  Function f;
  f.name = "f";
  f.n_params = 0;
  f.n_regs = 2;
  f.arg_pool = {0, 1};
  f.code = {
      Instr{.op = Op::kConst, .dst = 0, .aux = 0},
      Instr{.op = Op::kExtract,
            .prim = Prim::kExtract,
            .depth = 1,
            .dst = 1,
            .args_count = 1,
            .args_off = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 1},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  EXPECT_TRUE(verify_module(m).has("B211"));
}

TEST(VcodeVerify, B212_DepthFieldOutOfRange) {
  Module m = add_module();
  m.functions[0].code[0].depth = 3;  // kernel depth must be <= 1
  EXPECT_TRUE(verify_module(m).has("B212"));
}

/// fun f(a: seq, b: seq) = (a + b) * a as one fused superinstruction.
Module fused_module() {
  Module m;
  Function f;
  f.name = "f";
  f.n_params = 2;
  f.n_regs = 3;
  f.arg_pool = {0, 1, 2};
  kernels::FusedExpr fe;
  fe.nodes = {
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 0},
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 1},
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kPrim,
                       .prim = Prim::kAdd,
                       .a = 0,
                       .b = 1},
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kPrim,
                       .prim = Prim::kMul,
                       .a = 2,
                       .b = 0},
  };
  fe.input_flags = {0, 0};
  f.fused.push_back(std::move(fe));
  f.code = {
      Instr{.op = Op::kFusedMap,
            .depth = 1,
            .dst = 2,
            .args_count = 2,
            .args_off = 0,
            .aux = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 2},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

/// fun g(v: seq, n: int, s: seq) = any^1(==(tile(v, n), splat(s))) as one
/// segmented fused superinstruction.
Module segmented_module() {
  Module m;
  Function f;
  f.name = "g";
  f.n_params = 3;
  f.n_regs = 4;
  f.arg_pool = {0, 1, 2, 3};
  kernels::FusedExpr fe;
  fe.nodes = {
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 0},
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 2},
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kPrim,
                       .prim = Prim::kEq,
                       .a = 0,
                       .b = 1},
  };
  fe.input_flags = {kernels::kFusedTile, kernels::kFusedCount,
                    kernels::kFusedSegSplat};
  fe.reduce = Prim::kAnyV;
  fe.extracts = 2;
  f.fused.push_back(std::move(fe));
  f.code = {
      Instr{.op = Op::kFusedMap,
            .depth = 1,
            .dst = 3,
            .args_count = 3,
            .args_off = 0,
            .aux = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 3},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["g"] = 0;
  return m;
}

TEST(VcodeVerify, AcceptsHandAssembledSegmentedModule) {
  Report r = verify_module(segmented_module());
  EXPECT_TRUE(r.ok()) << r.to_text();
}

TEST(VcodeVerify, B213_SegmentedReduceRootAndInserts) {
  Module m = segmented_module();
  m.functions[0].fused[0].reduce = Prim::kAdd;
  EXPECT_TRUE(verify_module(m).has("B213"));

  Module m2 = segmented_module();
  m2.functions[0].fused[0].reinserts = {0};  // a leaf, not a member
  EXPECT_TRUE(verify_module(m2).has("B213"));
}

TEST(VcodeVerify, B214_SegmentSlotFlags) {
  Module m = segmented_module();
  std::swap(m.functions[0].fused[0].input_flags[0],
            m.functions[0].fused[0].input_flags[1]);
  EXPECT_TRUE(verify_module(m).has("B214"));

  Module m2 = segmented_module();
  m2.functions[0].fused[0].reduce.reset();  // tile and splat need a reduce
  EXPECT_TRUE(verify_module(m2).has("B214"));

  Module m3 = segmented_module();
  m3.functions[0].fused[0].nodes[1].input = 1;  // reads the count
  EXPECT_TRUE(verify_module(m3).has("B214"));

  Module m4 = segmented_module();
  m4.functions[0].fused[0].input_flags[2] |= 0x80;
  EXPECT_TRUE(verify_module(m4).has("B214"));
}

TEST(VcodeVerify, AcceptsHandAssembledFusedModule) {
  Report r = verify_module(fused_module());
  EXPECT_TRUE(r.ok()) << r.to_text();
}

TEST(VcodeVerify, B212_FusedInstructionMustBeDepthOne) {
  Module m = fused_module();
  m.functions[0].code[0].depth = 0;
  EXPECT_TRUE(verify_module(m).has("B212"));
}

TEST(VcodeVerify, B213_FusedExpressionIndexOutOfRange) {
  Module m = fused_module();
  m.functions[0].code[0].aux = 7;
  EXPECT_TRUE(verify_module(m).has("B213"));

  Module m2 = fused_module();
  m2.functions[0].code[0].aux = -1;
  EXPECT_TRUE(verify_module(m2).has("B213"));
}

TEST(VcodeVerify, B213_FusedExpressionNodeCount) {
  Module m = fused_module();
  m.functions[0].fused[0].nodes.clear();
  EXPECT_TRUE(verify_module(m).has("B213"));

  Module m2 = fused_module();
  m2.functions[0].fused[0].nodes.resize(
      kernels::kMaxFusedNodes + 1,
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 0});
  EXPECT_TRUE(verify_module(m2).has("B213"));
}

TEST(VcodeVerify, B213_FusedRootMustBeAPrim) {
  Module m = fused_module();
  m.functions[0].fused[0].nodes.push_back(
      kernels::MicroOp{.kind = kernels::MicroOp::Kind::kInput, .input = 0});
  EXPECT_TRUE(verify_module(m).has("B213"));
}

TEST(VcodeVerify, B213_NonElementwisePrimInsideAFusedExpression) {
  Module m = fused_module();
  m.functions[0].fused[0].nodes[2].prim = Prim::kSum;  // a reduction
  EXPECT_TRUE(verify_module(m).has("B213"));
}

TEST(VcodeVerify, B213_MicroOpReadsANodeAtOrAfterItself) {
  Module m = fused_module();
  m.functions[0].fused[0].nodes[2].a = 2;  // self-reference
  EXPECT_TRUE(verify_module(m).has("B213"));

  Module m2 = fused_module();
  m2.functions[0].fused[0].nodes[2].b = 3;  // forward reference
  EXPECT_TRUE(verify_module(m2).has("B213"));
}

TEST(VcodeVerify, B214_OperandSlotFlagsMismatch) {
  Module m = fused_module();
  m.functions[0].fused[0].input_flags.push_back(0);  // 3 flags, 2 operands
  EXPECT_TRUE(verify_module(m).has("B214"));
}

TEST(VcodeVerify, B214_MicroOpReadsAMissingOperandSlot) {
  Module m = fused_module();
  m.functions[0].fused[0].nodes[1].input = 9;
  EXPECT_TRUE(verify_module(m).has("B214"));
}

TEST(VcodeVerify, B214_FusedExpressionNeedsAFrameOperand) {
  Module m = fused_module();
  m.functions[0].fused[0].input_flags = {kernels::kFusedBroadcast,
                                         kernels::kFusedBroadcast};
  EXPECT_TRUE(verify_module(m).has("B214"));
}

TEST(VcodeVerify, B211_FusedFrameOperandMustBeASequence) {
  // Feed the fused instruction a scalar constant as its frame operand.
  Module m = fused_module();
  m.constants.push_back(kernels::VValue::ints(3));
  Function& f = m.functions[0];
  f.code.insert(f.code.begin(),
                Instr{.op = Op::kConst, .dst = 0, .aux = 0});
  f.n_params = 0;
  // r1 is now undefined too, but the scalar-frame complaint must appear.
  EXPECT_TRUE(verify_module(m).has("B211"));
}

TEST(VcodeVerify, VMConstructionVerifiesByDefault) {
  Module bad = add_module();
  bad.functions[0].code[0].dst = 999;
  auto module = std::make_shared<const Module>(std::move(bad));
  EXPECT_THROW(VM machine(module), analysis::AnalysisError);
  // Re-verification can be turned off by holders of pre-verified modules.
  VMOptions no_verify;
  no_verify.verify = false;
  EXPECT_NO_THROW(VM machine(module, no_verify));
}

TEST(VcodeVerify, OrThrowCarriesTheReport) {
  Module bad = add_module();
  bad.functions[0].code[0].args_off = 1000;
  try {
    verify_module_or_throw(bad);
    FAIL() << "expected AnalysisError";
  } catch (const analysis::AnalysisError& e) {
    EXPECT_TRUE(e.report().has("B204"));
  }
}

}  // namespace
}  // namespace proteus::vm
