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

// A kernel error raised inside a threaded loop (the elementwise divide at
// -O0, the fused chain at -O1) surfaces as the same EvalError the serial
// loop raises, instead of escaping the OpenMP region and terminating the
// process. 5,000 lanes is past the threaded grain; lane 0 divides by zero.
TEST(Errors, DivisionByZeroInThreadedLoopRaises) {
  if (!vl::openmp_available()) GTEST_SKIP();
  constexpr const char* kDivz =
      "fun f(n: int): seq(int) = [i <- [0 .. n] : 100 / i]";
  for (const bool optimize : {false, true}) {
    SCOPED_TRACE(optimize ? "-O1" : "-O0");
    xform::PipelineOptions options;
    options.optimize_vcode = optimize;
    Session s(kDivz, {}, options);
    testing::expect_both_fail(s, "f", {val("5000")}, "division by zero");
    testing::ThreadedBackend threaded(2);
    testing::expect_both_fail(s, "f", {val("5000")}, "division by zero");
    // A failing lane in the last block alone surfaces too.
    Session late("fun g(n: int): seq(int) = [i <- [1 .. n] : 100 / (i - n)]",
                 {}, options);
    testing::expect_both_fail(late, "g", {val("5000")}, "division by zero");
  }
}

// INT64_MIN / -1 wraps to INT64_MIN and INT64_MIN mod -1 is 0, on both
// engines, at depth 0, at depth 1 (-O0) and in a fused chain (-O1),
// instead of a SIGFPE.
TEST(Errors, IntMinByMinusOneWrapsInsteadOfTrapping) {
  constexpr const char* kSource =
      "fun d(a: int, b: int): int = a / b\n"
      "fun m(a: int, b: int): int = a mod b\n"
      "fun dv(a: int, n: int): seq(int) = [i <- [1 .. n] : (a / (0 - i)) + 1]\n"
      "fun mv(a: int, n: int): seq(int) = [i <- [1 .. n] : (a mod (0 - i)) + 1]";
  const interp::Value lo = val("0 - 9223372036854775807 - 1");
  for (const bool optimize : {false, true}) {
    SCOPED_TRACE(optimize ? "-O1" : "-O0");
    xform::PipelineOptions options;
    options.optimize_vcode = optimize;
    Session s(kSource, {}, options);
    testing::expect_both(s, "d", {lo, val("0 - 1")}, "0 - 9223372036854775807 - 1");
    testing::expect_both(s, "m", {lo, val("0 - 1")}, "0");
    testing::expect_both(s, "dv", {lo, val("2")},
                         "[0 - 9223372036854775807, 4611686018427387905]");
    testing::expect_both(s, "mv", {lo, val("2")}, "[1, 1]");
  }
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

// combine(M, V, U) needs #M == #V + #U and as many true flags in M as V
// has elements. Both engines check both rules, slot by slot inside an
// iterator, with the same messages.
constexpr std::string_view kCombineLength = "combine: #M must equal #V + #U";
constexpr std::string_view kCombineTrueCount =
    "combine: #V must equal the number of true elements of M";

TEST(Errors, CombineTrueCountDepth0) {
  Session s(
      "fun f(m: seq(bool), v: seq(int), u: seq(int)): seq(int) = "
      "combine(m, v, u)");
  testing::expect_both(s, "f", {val("[true,false,true]"), val("[1,3]"),
                                val("[2]")},
                       "[1,2,3]");
  testing::expect_both_fail(
      s, "f", {val("[true,true,false]"), val("[1]"), val("[2,3]")},
      kCombineTrueCount);
  testing::expect_both_fail(
      s, "f", {val("[false,false]"), val("[1]"), val("[2]")},
      kCombineTrueCount);
  testing::expect_both_fail(s, "f",
                            {val("[true]"), val("[1]"), val("[2]")},
                            kCombineLength);
}

TEST(Errors, CombineTrueCountDepth1) {
  Session s(
      "fun pick(ms: seq(seq(bool)), vs: seq(seq(int)), us: seq(seq(int))): "
      "seq(seq(int)) = [i <- [1 .. #ms] : combine(ms[i], vs[i], us[i])]");
  testing::expect_both(
      s, "pick",
      {val("[[true,false],[false]]"), val("[[1],([] : seq(int))]"),
       val("[[2],[3]]")},
      "[[1,2],[3]]");
  // Totals agree (2 true flags, #V = 2) but each slot is wrong.
  testing::expect_both_fail(
      s, "pick",
      {val("[[true],[false]]"), val("[([] : seq(int)),[5]]"),
       val("[[7],([] : seq(int))]")},
      kCombineTrueCount);
  // Totals agree (#M = 3 = 2 + 1) but slot 0 has #M = 2, #V + #U = 1.
  testing::expect_both_fail(
      s, "pick",
      {val("[[true,false],[true]]"), val("[[1],[2]]"),
       val("[([] : seq(int)),[3]]")},
      kCombineLength);
  // The first bad slot decides the message.
  testing::expect_both_fail(
      s, "pick",
      {val("[[true],[true,true],[false]]"), val("[[1],[2],[4]]"),
       val("[([] : seq(int)),([] : seq(int)),([] : seq(int))]")},
      kCombineLength);
}

TEST(Errors, CombineTrueCountNestedElements) {
  Session s(
      "fun g(m: seq(bool), v: seq(seq(int)), u: seq(seq(int))): "
      "seq(seq(int)) = combine(m, v, u)");
  testing::expect_both(s, "g", {val("[false,true]"), val("[[1,2]]"),
                                val("[[3]]")},
                       "[[3],[1,2]]");
  testing::expect_both_fail(
      s, "g", {val("[false,false]"), val("[[1]]"), val("[[2]]")},
      kCombineTrueCount);
  testing::expect_both_fail(
      s, "g", {val("[true,true]"), val("[[1]]"), val("[[2]]")},
      kCombineTrueCount);
}

}  // namespace
}  // namespace proteus
