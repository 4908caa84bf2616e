// Tests for whole V programs (the output of the full pipeline) on the
// bytecode VM: generated extensions, indirect calls, the call-depth
// guard, the instruction mix, and the VValue surface they run on.
#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "testing.hpp"
#include "vm/compile.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using kernels::VValue;

TEST(Exec, RunsTransformedFunctions) {
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]");
  EXPECT_EQ(s.run_vm("sqs", {parse_value("6")}),
            parse_value("[1,4,9,16,25,36]"));
  EXPECT_EQ(s.run_vm("sqs", {parse_value("0")}),
            parse_value("([] : seq(int))"));
}

TEST(Exec, RunsGeneratedExtensionsDirectly) {
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]",
            "[k <- [1 .. 3] : sqs(k)]");
  vm::VM machine(s.compiled().module);
  VValue arg = kernels::from_boxed(parse_value("[2, 4]"),
                                   lang::parse_type("seq(int)"));
  VValue out = machine.call_function("sqs^1", {arg});
  EXPECT_EQ(kernels::to_boxed(out, lang::parse_type("seq(seq(int))")),
            parse_value("[[1,4],[1,4,9,16]]"));
  // Extensions are internal: the Session boundary refuses them.
  EXPECT_THROW((void)s.run_vm("sqs^1", {parse_value("[2, 4]")}),
               SignatureError);
}

TEST(Exec, RejectsUntransformedInput) {
  lang::Program checked = lang::typecheck(lang::parse_program(
      "fun f(n: int): seq(int) = [i <- [1 .. n] : i]"));
  EXPECT_THROW((void)vm::compile_module(checked), TransformError);
}

TEST(Exec, UnknownFunctionThrows) {
  Session s("fun f(x: int): int = x");
  vm::VM machine(s.compiled().module);
  EXPECT_THROW((void)machine.call_function("nosuch", {}), EvalError);
  EXPECT_THROW((void)s.run_vm("nosuch", {}), SignatureError);
}

TEST(Exec, IndirectCallsResolveExtensions) {
  Session s(R"(
    fun inc(x: int): int = x + 1
    fun mapit(f: (int) -> int, v: seq(int)): seq(int) = [x <- v : f(x)]
  )");
  EXPECT_EQ(s.run_vm("mapit",
                     {interp::Value::fun("inc"), parse_value("[1,2,3]")}),
            parse_value("[2,3,4]"));
}

TEST(Exec, CallDepthLimit) {
  Session s("fun loop(n: int): int = loop(n + 1)");
  try {
    (void)s.run_vm("loop", {parse_value("0")});
    FAIL() << "expected a depth trap";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kDepth);
  }
}

TEST(Exec, StatsCountPrimsAndCalls) {
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]");
  (void)s.run_vm("sqs", {parse_value("100")});
  EXPECT_EQ(s.last_cost().vm_ops.calls, 1u);
  EXPECT_GE(s.last_cost().vm_ops.prim_applications, 2u);
}

TEST(Exec, InstructionMixRecorded) {
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]");
  (void)s.run_vm("sqs", {parse_value("10")});
  auto mix = s.last_cost().vm_ops.per_prim;
  EXPECT_GE(mix[lang::Prim::kRange1], 1u);
  EXPECT_GE(mix[lang::Prim::kMul], 1u);
  EXPECT_EQ(mix[lang::Prim::kCombine], 0u);
}

TEST(Exec, TupleFlow) {
  Session s(R"(
    fun swap(p: (int, int)): (int, int) = (p.2, p.1)
    fun swapall(v: seq((int, int))): seq((int, int)) = [p <- v : swap(p)]
  )");
  EXPECT_EQ(s.run_vm("swapall", {parse_value("[(1,2),(3,4)]")}),
            parse_value("[(2,1),(4,3)]"));
}

TEST(Exec, EmptyLiteralWithType) {
  Session s("fun f(n: int): seq(int) = ([] : seq(int)) ++ [n]");
  EXPECT_EQ(s.run_vm("f", {parse_value("5")}), parse_value("[5]"));
}

TEST(Exec, SeqLiteralBroadcastAndFrame) {
  Session s("fun f(v: seq(int)): seq(seq(int)) = [x <- v : [x, x * 2, 7]]");
  EXPECT_EQ(s.run_vm("f", {parse_value("[1,5]")}),
            parse_value("[[1,2,7],[5,10,7]]"));
}

TEST(Exec, Depth0PrimitiveSurface) {
  // Whole-value (depth-0) primitive paths through real programs.
  Session s(R"(
    fun f1(v: seq(int)): int = minval(v) + maxval(v)
    fun f2(v: seq(int), m: seq(bool)): seq(int) =
      combine(m, restrict(v, m), restrict(v, [b <- m : not b]))
    fun f3(v: seq(int)): seq(int) = reverse(v) ++ v
    fun f4(s: seq(seq(int))): seq(int) = flatten(s) ++ s[1]
    fun f5(x: real): real = sqrt(x * x)
    fun f6(v: seq(bool)): (bool, bool) = (any(v), all(v))
  )");
  using testing::expect_both;
  using testing::val;
  expect_both(s, "f1", {val("[4,9,2]")}, "11");
  expect_both(s, "f2", {val("[1,2,3,4]"), val("[true,false,true,false]")},
              "[1,2,3,4]");
  expect_both(s, "f3", {val("[1,2]")}, "[2,1,1,2]");
  expect_both(s, "f4", {val("[[5],[6,7]]")}, "[5,6,7,5]");
  expect_both(s, "f5", {val("-3.0")}, "3.0");
  expect_both(s, "f6", {val("[true,false]")}, "(true,false)");
}

TEST(Exec, VValueAccessorsThrowOnWrongKind) {
  EXPECT_THROW((void)VValue::ints(1).as_seq(), EvalError);
  EXPECT_THROW((void)VValue::ints(1).as_bool(), EvalError);
  EXPECT_THROW((void)VValue::fun("f").as_int(), EvalError);
  EXPECT_THROW((void)VValue::ints(1).fun_name(), EvalError);
  EXPECT_THROW((void)VValue::ints(1).as_tuple(), EvalError);
  EXPECT_THROW((void)VValue::ints(1).as_real(), EvalError);
}

TEST(Exec, EmptyArrayOfRejectsFunctionTypes) {
  EXPECT_THROW((void)kernels::empty_array_of(lang::parse_type("(int) -> int")),
               EvalError);
}

}  // namespace
}  // namespace proteus
