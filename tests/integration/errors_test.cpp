// Failure injection at the system level: runtime errors must surface as
// typed exceptions from BOTH engines (not crashes, not wrong answers).
#include <gtest/gtest.h>

#include "testing.hpp"

namespace proteus {
namespace {

using testing::val;

TEST(Errors, IndexOutOfRangeBothEngines) {
  Session s("fun pick(v: seq(int), i: int): int = v[i]");
  EXPECT_THROW((void)s.run_reference("pick", {val("[1,2]"), val("3")}),
               EvalError);
  EXPECT_THROW((void)s.run_vm("pick", {val("[1,2]"), val("3")}),
               EvalError);
  EXPECT_THROW((void)s.run_vm("pick", {val("[1,2]"), val("0")}),
               EvalError);
}

TEST(Errors, IndexOutOfRangeInsideIterator) {
  Session s("fun f(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[i + 1]]");
  EXPECT_THROW((void)s.run_reference("f", {val("[1,2,3]")}), EvalError);
  EXPECT_THROW((void)s.run_vm("f", {val("[1,2,3]")}), EvalError);
}

TEST(Errors, DivisionByZeroInsideIterator) {
  Session s("fun f(v: seq(int)): seq(int) = [x <- v : 10 / x]");
  EXPECT_THROW((void)s.run_reference("f", {val("[1,0,2]")}), EvalError);
  EXPECT_THROW((void)s.run_vm("f", {val("[1,0,2]")}), EvalError);
  // but the guarded version must NOT fail: the conditional restricts the
  // divisor frame before dividing (rule R2d's whole point).
  Session g(
      "fun f(v: seq(int)): seq(int) = "
      "[x <- v : if x == 0 then 0 else 10 / x]");
  testing::expect_both(g, "f", {val("[1,0,2]")}, "[10,0,5]");
}

TEST(Errors, MaxvalOfEmptyInsideIterator) {
  Session s("fun f(m: seq(seq(int))): seq(int) = [row <- m : maxval(row)]");
  EXPECT_THROW((void)s.run_reference("f", {val("[[1],([] : seq(int))]")}),
               EvalError);
  EXPECT_THROW((void)s.run_vm("f", {val("[[1],([] : seq(int))]")}),
               EvalError);
}

TEST(Errors, WrongArgumentCount) {
  Session s("fun f(x: int): int = x");
  EXPECT_THROW((void)s.run_vm("f", {}), EvalError);
  EXPECT_THROW((void)s.run_reference("f", {val("1"), val("2")}), EvalError);
}

TEST(Errors, UnknownFunction) {
  Session s("fun f(x: int): int = x");
  EXPECT_THROW((void)s.run_vm("nosuch", {val("1")}), EvalError);
}

TEST(Errors, CompileTimeErrorsPropagate) {
  EXPECT_THROW((void)Session("fun f(x: int): int = x +"), SyntaxError);
  EXPECT_THROW((void)Session("fun f(x: int): int = x + true"), TypeError);
}

TEST(Errors, UpdateOutOfRange) {
  Session s("fun f(v: seq(int)): seq(int) = update(v, 5, 0)");
  EXPECT_THROW((void)s.run_vm("f", {val("[1,2]")}), EvalError);
}

}  // namespace
}  // namespace proteus
