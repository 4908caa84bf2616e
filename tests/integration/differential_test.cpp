// End-to-end differential tests: for a battery of P programs, the
// reference interpreter and the bytecode VM must agree exactly.
#include <gtest/gtest.h>

#include "testing.hpp"

namespace proteus {
namespace {

using testing::both;
using testing::expect_both;
using testing::val;

TEST(Differential, ScalarFunctions) {
  Session s(R"(
    fun odd(a: int): bool = 1 == (a mod 2)
    fun collatz(x: int): int = if x mod 2 == 0 then x / 2 else 3 * x + 1
  )");
  expect_both(s, "odd", {val("3")}, "true");
  expect_both(s, "odd", {val("4")}, "false");
  expect_both(s, "collatz", {val("7")}, "22");
}

TEST(Differential, PaperSection2Functions) {
  Session s(R"(
    fun odd(a: int): bool = 1 == (a mod 2)
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
    fun concat2(v: seq(int), w: seq(int)): seq(int) =
      [i <- [1 .. #v + #w] : if i <= #v then v[i] else w[i - #v]]
    fun oddsq(n: int): seq(seq(int)) = [i <- [1 .. n] | odd(i) : sqs(i)]
  )");
  expect_both(s, "sqs", {val("5")}, "[1,4,9,16,25]");
  expect_both(s, "concat2", {val("[1,2]"), val("[8,9]")}, "[1,2,8,9]");
  expect_both(s, "concat2", {val("([] : seq(int))"), val("[7]")}, "[7]");
  expect_both(s, "oddsq", {val("6")}, "[[1],[1,4,9],[1,4,9,16,25]]");
  expect_both(s, "oddsq", {val("0")}, "([] : seq(seq(int)))");
}

TEST(Differential, IrregularNesting) {
  Session s(R"(
    fun tri(n: int): seq(seq(int)) = [i <- [1 .. n] : [j <- [1 .. i] : j]]
    fun ragged(v: seq(int)): seq(seq(int)) = [x <- v : [j <- [1 .. x] : x * j]]
  )");
  expect_both(s, "tri", {val("4")}, "[[1],[1,2],[1,2,3],[1,2,3,4]]");
  expect_both(s, "ragged", {val("[2,0,3]")}, "[[2,4],[],[3,6,9]]");
}

TEST(Differential, SharedSourceGather) {
  Session s(R"(
    fun rev(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[#v + 1 - i]]
    fun permute_by(v: seq(int), p: seq(int)): seq(int) = [i <- p : v[i]]
  )");
  expect_both(s, "rev", {val("[1,2,3,4]")}, "[4,3,2,1]");
  expect_both(s, "permute_by", {val("[10,20,30]"), val("[3,3,1]")},
              "[30,30,10]");
}

TEST(Differential, NestedParallelSum) {
  Session s(R"(
    fun rowsums(m: seq(seq(int))): seq(int) = [row <- m : sum(row)]
    fun grandsum(m: seq(seq(int))): int = sum([row <- m : sum(row)])
  )");
  expect_both(s, "rowsums", {val("[[1,2],([] : seq(int)),[3,4,5]]")},
              "[3,0,12]");
  expect_both(s, "grandsum", {val("[[1,2],[3]]")}, "6");
}

TEST(Differential, ConditionalsInsideIterators) {
  Session s(R"(
    fun clamp(v: seq(int)): seq(int) =
      [x <- v : if x < 0 then 0 else if x > 9 then 9 else x]
    fun signs(v: seq(int)): seq(int) =
      [x <- v : if x < 0 then -1 else if x == 0 then 0 else 1]
  )");
  expect_both(s, "clamp", {val("[-5,3,12,0]")}, "[0,3,9,0]");
  expect_both(s, "signs", {val("[-7,0,4]")}, "[-1,0,1]");
}

TEST(Differential, BranchesWithDifferentWork) {
  // One branch recurses, the other does not: exercises the empty-frame
  // guards when the mask is all-true or all-false.
  Session s(R"(
    fun halve(v: seq(int)): seq(int) = [x <- v : if x mod 2 == 0 then x / 2 else x]
  )");
  expect_both(s, "halve", {val("[2,4,8]")}, "[1,2,4]");   // all true
  expect_both(s, "halve", {val("[1,3,5]")}, "[1,3,5]");   // all false
  expect_both(s, "halve", {val("([] : seq(int))")}, "([] : seq(int))");
}

TEST(Differential, FilteredIterators) {
  Session s(R"(
    fun evens(v: seq(int)): seq(int) = [x <- v | x mod 2 == 0 : x]
    fun bigpairs(v: seq(int)): seq((int,int)) =
      [x <- v | x > 10 : (x, x * x)]
  )");
  expect_both(s, "evens", {val("[1,2,3,4,5,6]")}, "[2,4,6]");
  expect_both(s, "evens", {val("[1,3]")}, "([] : seq(int))");
  expect_both(s, "bigpairs", {val("[5,11,20]")}, "[(11,121),(20,400)]");
}

TEST(Differential, DestructuringLet) {
  Session s(R"(
    fun swap(p: (int, int)): (int, int) = let (a, b) = p in (b, a)
    fun dots(v: seq(((int,int),(int,int)))): seq(int) =
      [pair <- v :
         let (p, q) = pair in
         let (px, py) = p in
         let (qx, qy) = q in
         px * qx + py * qy]
  )");
  expect_both(s, "swap", {val("(1,2)")}, "(2,1)");
  expect_both(s, "dots", {val("[((1,2),(3,4)),((0,1),(5,6))]")}, "[11,6]");
}

TEST(Differential, TupleManipulation) {
  Session s(R"(
    fun zipadd(v: seq((int, int))): seq(int) = [p <- v : p.1 + p.2]
    fun mkpairs(v: seq(int)): seq((int, int)) = [x <- v : (x, -x)]
    fun nested_tuple(v: seq(int)): seq((int, (int, bool))) =
      [x <- v : (x, (x * 2, x > 0))]
  )");
  expect_both(s, "zipadd", {val("[(1,10),(2,20)]")}, "[11,22]");
  expect_both(s, "mkpairs", {val("[3]")}, "[(3,-3)]");
  expect_both(s, "nested_tuple", {val("[-1,2]")},
              "[(-1,(-2,false)),(2,(4,true))]");
}

TEST(Differential, TupleFramesAtDepthTwo) {
  // tuple_cons^2 / tuple_extract^2 exercise the T1 path for tuples.
  Session s(R"(
    fun grid(n: int): seq(seq((int, int))) =
      [i <- [1 .. n] : [j <- [1 .. i] : (i, j)]]
    fun unwrap(m: seq(seq((int, int)))): seq(seq(int)) =
      [row <- m : [p <- row : p.1 * 10 + p.2]]
  )");
  expect_both(s, "grid", {val("3")},
              "[[(1,1)],[(2,1),(2,2)],[(3,1),(3,2),(3,3)]]");
  expect_both(s, "unwrap", {val("[[(1,2)],[(3,4),(5,6)]]")},
              "[[12],[34,56]]");
}

TEST(Differential, SeqConsAtDepthTwo) {
  Session s(R"(
    fun pairsof(n: int): seq(seq(seq(int))) =
      [i <- [1 .. n] : [j <- [1 .. i] : [i, j, i + j]]]
  )");
  expect_both(s, "pairsof", {val("2")},
              "[[[1,1,2]],[[2,1,3],[2,2,4]]]");
}

TEST(Differential, ReverseAndZip) {
  Session s(R"(
    fun revrows(m: seq(seq(int))): seq(seq(int)) = [row <- m : reverse(row)]
    fun zipup(a: seq(int), b: seq(int)): seq((int, int)) = zip(a, b)
    fun zipself(m: seq(seq(int))): seq(seq((int, int)))
      = [row <- m : zip(row, reverse(row))]
    fun pal(v: seq(int)): bool = all([p <- zip(v, reverse(v)) : p.1 == p.2])
  )");
  expect_both(s, "revrows", {val("[[1,2,3],([] : seq(int)),[4]]")},
              "[[3,2,1],([] : seq(int)),[4]]");
  expect_both(s, "zipup", {val("[1,2]"), val("[8,9]")}, "[(1,8),(2,9)]");
  expect_both(s, "zipself", {val("[[1,2],[5]]")},
              "[[(1,2),(2,1)],[(5,5)]]");
  expect_both(s, "pal", {val("[1,2,1]")}, "true");
  expect_both(s, "pal", {val("[1,2,2]")}, "false");
  EXPECT_THROW((void)s.run_vm("zipup", {val("[1]"), val("[1,2]")}),
               EvalError);
  EXPECT_THROW((void)s.run_reference("zipup", {val("[1]"), val("[1,2]")}),
               EvalError);
}

TEST(Differential, RealArithmetic) {
  Session s(R"(
    fun scale(v: seq(real), k: real): seq(real) = [x <- v : x * k]
    fun mean(v: seq(real)): real = sum(v) / real(#v)
    fun norms(v: seq((real, real))): seq(real) =
      [p <- v : sqrt(p.1 * p.1 + p.2 * p.2)]
  )");
  expect_both(s, "scale", {val("[1.5, 2.5]"), val("2.0")}, "[3.0, 5.0]");
  expect_both(s, "mean", {val("[1.0, 2.0, 3.0]")}, "2.0");
  expect_both(s, "norms", {val("[(3.0,4.0),(0.0,2.0)]")}, "[5.0, 2.0]");
}

TEST(Differential, DeepNesting) {
  Session s(R"(
    fun d3(n: int): seq(seq(seq(int))) =
      [i <- [1 .. n] : [j <- [1 .. i] : [k <- [1 .. j] : i*100+j*10+k]]]
    fun d4(n: int): seq(seq(seq(seq(int)))) =
      [a <- [1 .. n] : [b <- [1 .. a] : [c <- [1 .. b] : [d <- [1 .. c] : d]]]]
  )");
  both(s, "d3", {val("5")});
  both(s, "d4", {val("4")});
  expect_both(s, "d3", {val("1")}, "[[[111]]]");
}

TEST(Differential, HigherOrderReduce) {
  Session s(R"(
    fun add2(a: int, b: int): int = a + b
    fun mul2(a: int, b: int): int = a * b
    fun fold(f: (int,int) -> int, v: seq(int)): int =
      if #v == 1 then v[1]
      else f(fold(f, [i <- [1 .. #v - 1] : v[i]]), v[#v])
    fun foldrows(m: seq(seq(int))): seq(int) = [row <- m : fold(add2, row)]
    fun prodrows(m: seq(seq(int))): seq(int) = [row <- m : fold(mul2, row)]
  )");
  expect_both(s, "fold", {interp::Value::fun("add2"), val("[1,2,3,4]")}, "10");
  expect_both(s, "foldrows", {val("[[1,2,3],[10],[4,5]]")}, "[6,10,9]");
  expect_both(s, "prodrows", {val("[[2,3],[7]]")}, "[6,7]");
}

TEST(Differential, IndirectCallWithBroadcastArgument) {
  // f is applied through a function value at depth 1 with one frame
  // argument and one uniform argument (which must be replicated for the
  // user-function calling convention).
  Session s(R"(
    fun addc(x: int, c: int): int = x + c
    fun mulc(x: int, c: int): int = x * c
    fun mapc(f: (int, int) -> int, v: seq(int), c: int): seq(int) =
      [x <- v : f(x, c)]
  )");
  expect_both(s, "mapc",
              {interp::Value::fun("addc"), val("[1,2,3]"), val("10")},
              "[11,12,13]");
  expect_both(s, "mapc",
              {interp::Value::fun("mulc"), val("[1,2,3]"), val("10")},
              "[10,20,30]");
}

TEST(Differential, LambdasAsArguments) {
  Session s(R"(
    fun mapit(f: (int) -> int, v: seq(int)): seq(int) = [x <- v : f(x)]
    fun use(v: seq(int)): seq(int) = mapit(fun(x: int) => x * x + 1, v)
  )");
  expect_both(s, "use", {val("[1,2,3]")}, "[2,5,10]");
}

TEST(Differential, FlattenAndConcat) {
  Session s(R"(
    fun flat(m: seq(seq(int))): seq(int) = flatten(m)
    fun dup(v: seq(int)): seq(int) = v ++ v
    fun flatdup(m: seq(seq(int))): seq(seq(int)) = [row <- m : row ++ row]
  )");
  expect_both(s, "flat", {val("[[1],([] : seq(int)),[2,3]]")}, "[1,2,3]");
  expect_both(s, "dup", {val("[4,5]")}, "[4,5,4,5]");
  expect_both(s, "flatdup", {val("[[1],[2,3]]")}, "[[1,1],[2,3,2,3]]");
}

TEST(Differential, DeepUpdatePath) {
  Session s(R"(
    fun set2(m: seq(seq(int)), i: int, j: int, x: int): seq(seq(int)) =
      (m; [i][j] : x)
    fun setall(m: seq(seq(int)), x: int): seq(seq(seq(int))) =
      [i <- [1 .. #m] : (m; [i][1] : x)]
  )");
  expect_both(s, "set2", {val("[[1,2],[3,4,5]]"), val("2"), val("3"),
                          val("9")},
              "[[1,2],[3,4,9]]");
  expect_both(s, "setall", {val("[[1,2],[3]]"), val("7")},
              "[[[7,2],[3]],[[1,2],[7]]]");
}

TEST(Differential, UpdateInsideIterator) {
  Session s(R"(
    fun upd(v: seq(int)): seq(seq(int)) = [x <- v : update([0,0,0], 2, x)]
  )");
  expect_both(s, "upd", {val("[7,8]")}, "[[0,7,0],[0,8,0]]");
}

TEST(Differential, DistInsideIterator) {
  Session s("fun d(v: seq(int)): seq(seq(int)) = [x <- v : dist(x, x)]");
  expect_both(s, "d", {val("[3,0,1]")}, "[[3,3,3],[],[1]]");
}

TEST(Differential, RangesInsideIterators) {
  Session s(R"(
    fun f(v: seq(int)): seq(seq(int)) = [x <- v : [x .. x + 2]]
    fun g(v: seq(int)): seq(seq(int)) = [x <- v : [x .. 3]]
  )");
  expect_both(s, "f", {val("[5,0]")}, "[[5,6,7],[0,1,2]]");
  expect_both(s, "g", {val("[1,5]")}, "[[1,2,3],([] : seq(int))]");
}

TEST(Differential, RecursiveScalarFunctionAtDepth1) {
  Session s(R"(
    fun fact(n: int): int = if n <= 1 then 1 else n * fact(n - 1)
    fun facts(v: seq(int)): seq(int) = [x <- v : fact(x)]
  )");
  expect_both(s, "facts", {val("[1,3,5,0]")}, "[1,6,120,1]");
}

TEST(Differential, MaxMinAnyAll) {
  Session s(R"(
    fun rowmax(m: seq(seq(int))): seq(int) = [row <- m : maxval(row)]
    fun anyneg(m: seq(seq(int))): seq(bool) =
      [row <- m : any([x <- row : x < 0])]
  )");
  expect_both(s, "rowmax", {val("[[3,9],[5]]")}, "[9,5]");
  expect_both(s, "anyneg", {val("[[1,-2],[3],([] : seq(int))]")},
              "[true,false,false]");
}

TEST(Differential, LengthsAndArithmetic) {
  Session s(R"(
    fun lens(m: seq(seq(int))): seq(int) = [row <- m : #row]
    fun weighted(m: seq(seq(int))): seq(int) = [row <- m : #row * sum(row)]
  )");
  expect_both(s, "lens", {val("[[1,2,3],([] : seq(int)),[9]]")}, "[3,0,1]");
  expect_both(s, "weighted", {val("[[1,2],[5]]")}, "[6,5]");
}

TEST(Differential, UpdateOfNestedElements) {
  // update^1 where the replaced elements are themselves sequences — the
  // generic splice path over nested representations.
  Session s(R"(
    fun f(m: seq(seq(seq(int)))): seq(seq(seq(int))) =
      [x <- m : update(x, 1, [9, 9])]
    fun g(m: seq(seq(int)), v: seq(int)): seq(seq(seq(int))) =
      [row <- m : update([[1], [2, 2]], 2, v)]
  )");
  expect_both(s, "f", {val("[[[1],[2,3]],[[4]]]")},
              "[[[9,9],[2,3]],[[9,9]]]");
  expect_both(s, "g", {val("[[0],[0,0]]"), val("[7]")},
              "[[[1],[7]],[[1],[7]]]");
}

TEST(Differential, SeqLiteralsOfSequencesInsideIterators) {
  // seq_cons^1 with nested (sequence) element frames.
  Session s(R"(
    fun f(v: seq(int)): seq(seq(seq(int))) =
      [x <- v : [[x], [x, x * 2]]]
  )");
  expect_both(s, "f", {val("[3,0]")},
              "[[[3],[3,6]],[[0],[0,0]]]");
}

TEST(Differential, EmptyInputsEverywhere) {
  Session s(R"(
    fun tri(n: int): seq(seq(int)) = [i <- [1 .. n] : [j <- [1 .. i] : j]]
    fun rowsums(m: seq(seq(int))): seq(int) = [row <- m : sum(row)]
  )");
  expect_both(s, "tri", {val("0")}, "([] : seq(seq(int)))");
  expect_both(s, "rowsums", {val("([] : seq(seq(int)))")},
              "([] : seq(int))");
}

TEST(Differential, VectorCostIsDataIndependentInPrimCount) {
  // The number of vector primitives issued depends on the program, not on
  // the data size (work grows, step count does not).
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]");
  (void)s.run_vm("sqs", {val("4")});
  auto small = s.last_cost().vector_work.primitive_calls;
  (void)s.run_vm("sqs", {val("4000")});
  auto large = s.last_cost().vector_work.primitive_calls;
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace proteus
