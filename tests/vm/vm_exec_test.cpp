// Tests for the bytecode VM dispatch loop: results against the reference
// interpreter, vector work and errors against constants recorded from the
// retired tree executor (the first vector-model engine of this project),
// the per-opcode profile, and the Session-level run_vm / run_entry_vm
// entry points.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "testing.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using testing::val;

TEST(VmExec, ScalarsControlFlowAndCalls) {
  Session s(R"(
    fun fact(n: int): int = if n <= 1 then 1 else n * fact(n - 1)
    fun pick(b: bool, x: int, y: int): int = if b then x else y
  )");
  EXPECT_EQ(s.run_vm("fact", {val("6")}), val("720"));
  EXPECT_EQ(s.run_vm("pick", {val("true"), val("1"), val("2")}), val("1"));
  EXPECT_EQ(s.run_vm("pick", {val("false"), val("1"), val("2")}), val("2"));
}

TEST(VmExec, FlattenedRecursionMatchesOtherEngines) {
  Session s(R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else let p = v[1 + #v / 2] in
        qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
          ++ qs([x <- v | x > p : x])
  )");
  testing::expect_both(s, "qs", {val("[5,3,9,1,3,7,2]")},
                       "[1,2,3,3,5,7,9]");
  testing::expect_both(s, "qs", {val("([] : seq(int))")},
                       "([] : seq(int))");
}

TEST(VmExec, TuplesRealsAndIndirectCalls) {
  Session s(R"(
    fun norm2(p: (real, real)): real = p.1 * p.1 + p.2 * p.2
    fun apply(f: (int) -> int, xs: seq(int)): seq(int) = [x <- xs : f(x)]
    fun double(x: int): int = 2 * x
    fun use(xs: seq(int)): seq(int) = apply(double, xs)
  )");
  EXPECT_EQ(s.run_vm("norm2", {val("(3.0, 4.0)")}), val("25.0"));
  testing::expect_both(s, "use", {val("[1,2,3]")}, "[2,4,6]");
}

TEST(VmExec, EntryExpressionRunsOnTheVm) {
  Session s("fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]",
            "[k <- [1 .. 4] : sqs(k)]");
  interp::Value reference = s.run_entry_reference();
  EXPECT_EQ(s.run_entry_vm(), reference);
}

TEST(VmExec, VectorWorkMatchesTreeExecutorExactly) {
  // The -O0 VM issues exactly the vector program T1 produced, so its
  // vl-level cost must equal what the tree executor that walked the same
  // V program measured, not merely its results. The constants below were
  // recorded from that executor on this very call.
  xform::PipelineOptions o0;
  o0.optimize_vcode = false;
  Session s(R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else let p = v[1 + #v / 2] in
        qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
          ++ qs([x <- v | x > p : x])
  )", {}, o0);
  (void)s.run_vm("qs", {val("[9,4,8,2,7,1,6,3,5]")});
  const RunCost& cost = s.last_cost();
  EXPECT_EQ(cost.vector_work.primitive_calls, 246u);
  EXPECT_EQ(cost.vector_work.element_work, 1083u);
  EXPECT_EQ(cost.vm_ops.calls, 13u);
  using lang::Prim;
  const std::map<Prim, std::uint64_t> tree_mix = {
      {Prim::kAdd, 6},      {Prim::kDiv, 6},      {Prim::kEq, 6},
      {Prim::kLt, 6},       {Prim::kLe, 13},      {Prim::kGt, 6},
      {Prim::kLength, 37},  {Prim::kRange1, 18},  {Prim::kRestrict, 18},
      {Prim::kSeqIndex, 24}, {Prim::kConcat, 12}};
  EXPECT_EQ(cost.vm_ops.per_prim, tree_mix);
}

TEST(VmExec, PerOpcodeProfileIsPopulated) {
  Session s("fun sqs(n: int): seq(int) = [i <- range1(n) : i * i]");
  s.set_vm_profile(true);
  (void)s.run_vm("sqs", {val("100")});
  const vm::VMStats& st = s.last_cost().vm_ops;
  EXPECT_GT(st.instructions, 0u);
  EXPECT_EQ(st.calls, 1u);
  const vm::OpProfile& build =
      st.per_op[static_cast<std::size_t>(vm::Op::kBuild)];
  const vm::OpProfile& ew =
      st.per_op[static_cast<std::size_t>(vm::Op::kElementwise)];
  EXPECT_EQ(build.count, 1u);   // range1(n)
  EXPECT_EQ(ew.count, 1u);      // i *^1 i
  EXPECT_GE(build.element_work, 100u);
  EXPECT_GE(ew.element_work, 100u);
  std::uint64_t total = 0;
  for (const vm::OpProfile& p : st.per_op) total += p.count;
  EXPECT_EQ(total, st.instructions);
}

TEST(VmExec, ErrorParityWithTreeExecutor) {
  // Unknown function and wrong arity must throw the EvalErrors the tree
  // executor threw (messages recorded from it; only the assertion detail
  // after the wrong-arity text names engine internals); runaway recursion
  // trips the execution governor's depth budget (rt::RuntimeTrap T003,
  // not retryable — the degradation ladder must NOT mask it behind a
  // fallback engine).
  Session s("fun spin(n: int): int = spin(n + 1)");
  vm::VM machine(s.compiled().module);
  const auto message = [&](const char* fn) -> std::string {
    try {
      (void)machine.call_function(fn, {});
    } catch (const EvalError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message("nosuch"),
            "vector executor: unknown function 'nosuch' (was its parallel "
            "extension generated?)");
  EXPECT_EQ(message("spin").rfind("'spin' called with wrong argument count",
                                  0),
            0u)
      << message("spin");
  try {
    (void)s.run_vm("spin", {val("0")});
    FAIL() << "expected depth-limit RuntimeTrap";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kDepth);
    EXPECT_EQ(std::string(e.what()).rfind(
                  "[T003] call depth limit exceeded in 'spin'", 0),
              0u)
        << e.what();
  }
  EXPECT_EQ(s.last_degradations().size(), 1u);
}

TEST(VmExec, EmptyFramesAndEmptyLiterals) {
  Session s(R"(
    fun rowsums(m: seq(seq(int))): seq(int) = [r <- m : sum(r)]
    fun nil(n: int): seq(int) = ([] : seq(int))
  )");
  testing::expect_both(s, "rowsums",
                       {val("[[1,2],([] : seq(int)),[3,4,5]]")}, "[3,0,12]");
  testing::expect_both(s, "rowsums", {val("([] : seq(seq(int)))")},
                       "([] : seq(int))");
  testing::expect_both(s, "nil", {val("3")}, "([] : seq(int))");
}

TEST(VmExec, VmIsReusableAcrossCalls) {
  Session s("fun inc(x: int): int = x + 1");
  vm::VM machine(s.compiled().module);
  for (int i = 0; i < 5; ++i) {
    kernels::VValue r =
        machine.call_function("inc", {kernels::VValue::ints(i)});
    EXPECT_EQ(r.as_int(), i + 1);
  }
  EXPECT_EQ(machine.stats().calls, 5u);
}

}  // namespace
}  // namespace proteus
