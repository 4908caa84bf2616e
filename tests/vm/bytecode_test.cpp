// Tests for the bytecode compiler and module format: structure of the
// assembled vm::Module, constant interning, call resolution, the
// kBranchEmpty fusion of the R2d guard, and the disassembler.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "vm/compile.hpp"
#include "vm/disasm.hpp"
#include "xform/pipeline.hpp"

namespace proteus::vm {
namespace {

std::shared_ptr<const Module> module_of(std::string_view program,
                                        std::string_view entry = {}) {
  return xform::compile(program, entry).module;
}

/// The assembler's own output: -O0, so no call is inlined away.
std::shared_ptr<const Module> assembled(std::string_view program,
                                        std::string_view entry = {}) {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return xform::compile(program, entry, options).module;
}

const Function& fn(const Module& m, const std::string& name) {
  const Function* f = m.find(name);
  EXPECT_NE(f, nullptr) << name;
  return *f;
}

bool has_op(const Function& f, Op op) {
  return std::any_of(f.code.begin(), f.code.end(),
                     [&](const Instr& in) { return in.op == op; });
}

TEST(Compile, PipelineAlwaysProducesAModule) {
  auto m = module_of("fun inc(x: int): int = x + 1");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->fn_index.contains("inc"));
  EXPECT_EQ(m->entry, -1);
}

TEST(Compile, EntryCompilesAsDedicatedFunction) {
  auto m = assembled("fun inc(x: int): int = x + 1", "inc(41)");
  ASSERT_GE(m->entry, 0);
  const Function& e =
      m->functions[static_cast<std::size_t>(m->entry)];
  EXPECT_EQ(e.n_params, 0);
  EXPECT_TRUE(has_op(e, Op::kCall));
  EXPECT_EQ(e.code.back().op, Op::kRet);
}

TEST(Compile, ConstantsAreInterned) {
  // 7 appears three times in the source but once in the pool.
  auto m = module_of("fun f(x: int): int = (x + 7) * (7 - x) + 7");
  int sevens = 0;
  for (const auto& c : m->constants) {
    if (c.is_int() && c.as_int() == 7) ++sevens;
  }
  EXPECT_EQ(sevens, 1);
}

TEST(Compile, DirectCallsResolveAtCompileTime) {
  auto m = assembled(
      "fun inc(x: int): int = x + 1\n"
      "fun twice(x: int): int = inc(inc(x))");
  const Function& f = fn(*m, "twice");
  for (const Instr& in : f.code) {
    if (in.op == Op::kCall) {
      ASSERT_GE(in.aux, 0);
      EXPECT_EQ(m->functions[static_cast<std::size_t>(in.aux)].name, "inc");
    }
  }
  EXPECT_TRUE(has_op(f, Op::kCall));
}

TEST(Compile, ParamsOccupyLowRegistersAndFrameStaysSmall) {
  auto m = module_of(
      "fun f(a: int, b: int): int = let c = a + b in let d = c * 2 in d");
  const Function& f = fn(*m, "f");
  EXPECT_EQ(f.n_params, 2);
  // a, b, the result slot, and a couple of reused temporaries.
  EXPECT_LE(f.n_regs, 6);
}

TEST(Compile, RegistersAreReusedAcrossReleasedTemporaries) {
  // A long chain of independent additions must not grow the frame
  // linearly: released temporaries come back from the free list.
  std::string body = "x";
  for (int i = 0; i < 20; ++i) body = "(" + body + " + 1)";
  auto m = module_of("fun f(x: int): int = " + body);
  EXPECT_LE(fn(*m, "f").n_regs, 8);
}

TEST(Compile, RecursionGuardFusesIntoBranchEmpty) {
  // Flattened recursion produces `if any_true(M) then ... else ...` in
  // the depth-1 extension; the compiler must emit kBranchEmpty and no
  // standalone any_true reduction for the guard.
  auto m = module_of(
      "fun count(n: int): int = if n <= 0 then 0 else count(n - 1) + 1",
      "[k <- [1 .. 4] : count(k)]");
  const Function& ext = fn(*m, "count^1");
  EXPECT_TRUE(has_op(ext, Op::kBranchEmpty));
}

TEST(Compile, ExtractInsertFoldTheirDepthLiteral) {
  auto m = module_of(
      "fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]",
      "[k <- [1 .. 3] : sqs(k)]");
  bool saw_extract = false;
  for (const Function& f : m->functions) {
    for (const Instr& in : f.code) {
      if (in.op == Op::kExtract || in.op == Op::kInsert) {
        saw_extract = true;
        EXPECT_GE(int{in.depth}, 1);
        // the depth literal is folded, not passed through a register
        EXPECT_EQ(in.args_count, in.op == Op::kExtract ? 1 : 2);
      }
    }
  }
  EXPECT_TRUE(saw_extract);
}

TEST(Compile, LiftedSetsAreSharedPerFunction) {
  auto m = module_of(
      "fun addk(s: seq(int), k: int): seq(int) = [x <- s : x + k]");
  const Function& ext = fn(*m, "addk");
  for (const Instr& in : ext.code) {
    if (in.lifted >= 0) {
      ASSERT_LT(static_cast<std::size_t>(in.lifted),
                ext.lifted_sets.size());
    }
  }
}

TEST(Disasm, EveryOpcodeHasAName) {
  for (int i = 0; i < kNumOps; ++i) {
    EXPECT_STRNE(op_name(static_cast<Op>(i)), "?");
  }
}

TEST(Disasm, ListingShowsFunctionsAndMnemonics) {
  auto m = module_of(
      "fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]",
      "sqs(5)");
  std::string text = to_text(*m);
  EXPECT_NE(text.find("fun sqs"), std::string::npos);
  EXPECT_NE(text.find("; entry"), std::string::npos);
  EXPECT_NE(text.find("build"), std::string::npos);
  EXPECT_NE(text.find("elementwise"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
  EXPECT_NE(text.find("lifted="), std::string::npos);
}

TEST(Compile, RejectsUntransformedPrograms) {
  // Feeding a raw P program (iterators intact) to the bytecode compiler
  // must throw, not silently mis-compile.
  lang::Program p = xform::compile(
      "fun f(s: seq(int)): seq(int) = [x <- s : x + 1]").checked;
  EXPECT_THROW((void)compile_module(p), TransformError);
}

}  // namespace
}  // namespace proteus::vm
