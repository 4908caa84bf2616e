// Tests for the Section 4.5 shared-row optimization pass.
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "xform/build.hpp"
#include "xform/optimize.hpp"
#include "testing.hpp"

namespace proteus::xform {
namespace {

using lang::ExprPtr;
using lang::Prim;
using lang::Type;
using testing::val;

// The only depth-2 use of `row` is as a seq_index source (the bound #row
// is evaluated at depth 1, in the iterator domain).
const char* kInnerGather =
    "fun f(m: seq(seq(int))): seq(seq(int)) = "
    "[row <- m : [i <- [1 .. #row] : row[i] * 2]]";

TEST(Optimize, RewritesReplicatedSourceToSharedRowGather) {
  Session s(kInnerGather);
  std::string text = lang::to_text(*s.compiled().flat.find("f"));
  EXPECT_NE(text.find("seq_index_inner^1("), std::string::npos) << text;
  EXPECT_EQ(text.find("dist^1(row"), std::string::npos) << text;
}

TEST(Optimize, NaiveModeKeepsReplication) {
  xform::PipelineOptions naive;
  naive.shared_row_gather = false;
  Session s(kInnerGather, {}, naive);
  std::string text = lang::to_text(*s.compiled().flat.find("f"));
  EXPECT_EQ(text.find("seq_index_inner"), std::string::npos) << text;
  EXPECT_NE(text.find("dist^1(row"), std::string::npos) << text;
}

TEST(Optimize, SemanticsIdenticalBothModes) {
  xform::PipelineOptions naive;
  naive.shared_row_gather = false;
  Session opt(kInnerGather);
  Session plain(kInnerGather, {}, naive);
  interp::Value m = val("[[1,2,3],[],[4,5]]");
  interp::Value expect = val("[[2,4,6],[],[8,10]]");
  EXPECT_EQ(opt.run_vm("f", {m}), expect);
  EXPECT_EQ(plain.run_vm("f", {m}), expect);
  EXPECT_EQ(opt.run_reference("f", {m}), expect);
}

TEST(Optimize, KeptWhenVariableHasOtherUses) {
  // `row` is also summed inside the inner iterator: the dist must stay
  // (only pure seq_index sources may share).
  Session s(
      "fun f(m: seq(seq(int))): seq(seq(int)) = "
      "[row <- m : [i <- [1 .. #row] : row[i] + sum(row)]]");
  std::string text = lang::to_text(*s.compiled().flat.find("f"));
  EXPECT_NE(text.find("dist^1(row"), std::string::npos) << text;
  testing::expect_both(s, "f", {val("[[1,2],[7]]")}, "[[4,5],[14]]");
}

TEST(Optimize, LengthOfReplicatedRowsRewrites) {
  // `#row` inside the inner body is the other §4.5 pattern: lengths of
  // replicated rows are replicated lengths — dist^1(length^1(row), ib) —
  // so the row replication itself still disappears.
  Session s(
      "fun f(m: seq(seq(int))): seq(seq(int)) = "
      "[row <- m : [i <- [1 .. #row] : row[#row + 1 - i]]]");
  std::string text = lang::to_text(*s.compiled().flat.find("f"));
  EXPECT_EQ(text.find("dist^1(row"), std::string::npos) << text;
  EXPECT_NE(text.find("seq_index_inner^1(row"), std::string::npos) << text;
  EXPECT_NE(text.find("dist^1(length^1(row)"), std::string::npos) << text;
  testing::expect_both(s, "f", {val("[[1,2,3],[],[4,5]]")},
                       "[[3,2,1],[],[5,4]]");
}

TEST(Optimize, RemovesQuadraticBlowupInFlattenedRecursion) {
  const char* split = R"(
    fun halves(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let h = #v / 2 in
        let a = [i <- [1 .. h] : v[i]] in
        let b = [i <- [1 .. #v - h] : v[i + h]] in
        let t = [p <- [a, b] : halves(p)] in
        t[1] ++ t[2]
  )";
  Session s(split);
  auto work = [&](int n) {
    interp::ValueList elems;
    for (int i = 0; i < n; ++i) {
      elems.push_back(interp::Value::ints(i * 37 % 1000));
    }
    (void)s.run_vm("halves", {interp::Value::seq(std::move(elems))});
    return s.last_cost().vector_work.element_work;
  };
  auto w512 = work(512);
  auto w4096 = work(4096);
  // 8x data: O(n log n) predicts ~9-10x work; quadratic would be 64x.
  EXPECT_LT(w4096, w512 * 16);
}

TEST(Optimize, Depth2IndexingStillCorrect) {
  // Three nesting levels: the innermost use is a chained replication the
  // pass does not rewrite — results must still be right.
  Session s(
      "fun f(m: seq(seq(int))): seq(seq(seq(int))) = "
      "[row <- m : [i <- [1 .. #row] : [j <- [1 .. i] : row[j]]]]");
  testing::expect_both(s, "f", {val("[[5,6],[9]]")},
                       "[[[5],[5,6]],[[9]]]");
}

TEST(Optimize, DeadLetsRemoved) {
  // Unused witnesses and replaced replications are cleaned out of the
  // final program.
  Session s("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]");
  std::string text = lang::to_text(*s.compiled().flat.find("sqs"));
  EXPECT_EQ(text.find("_w"), std::string::npos) << text;
}

TEST(Optimize, RemoveDeadLetsDirect) {
  lang::Program checked = lang::typecheck(lang::parse_program(
      "fun f(x: int): int = let unused = x * 2 in let y = x + 1 in y"));
  lang::ExprPtr cleaned = remove_dead_lets(checked.find("f")->body);
  std::string text = lang::to_text(cleaned);
  EXPECT_EQ(text.find("unused"), std::string::npos) << text;
  EXPECT_NE(text.find("let y"), std::string::npos) << text;
}

TEST(Optimize, Idempotent) {
  Session s(kInnerGather);
  const lang::Program& flat = s.compiled().flat;
  lang::Program again = optimize_shared_rows(flat);
  again = remove_dead_lets(again);
  EXPECT_EQ(lang::to_text(again), lang::to_text(flat));
}

// Hand-built V fragments for the scoping rules of the shared-row rewrite
// and of dead-let removal. `V` is bound to dist^1(s, c) and used at depth
// 2; every other name is free.
namespace frag {

using lang::ExprPtr;
using lang::Prim;
using lang::Type;

ExprPtr var(const char* name, int depth) {
  return nb::var(name, Type::seq_n(Type::int_(), depth));
}

ExprPtr dist_v(ExprPtr body) {
  return nb::let("V",
                 nb::prim_d(Prim::kDist, 1, {var("s", 2), var("c", 1)},
                            {1, 1}, Type::seq_n(Type::int_(), 3)),
                 std::move(body));
}

ExprPtr index_v() {
  return nb::prim_d(Prim::kSeqIndex, 2, {var("V", 3), var("i", 2)}, {1, 1},
                    Type::seq_n(Type::int_(), 2));
}

ExprPtr length_v() {
  return nb::prim_d(Prim::kLength, 2, {var("V", 3)}, {1},
                    Type::seq_n(Type::int_(), 2));
}

ExprPtr add2(ExprPtr a, ExprPtr b) {
  return nb::prim_d(Prim::kAdd, 2, {std::move(a), std::move(b)}, {1, 1},
                    Type::seq_n(Type::int_(), 2));
}

std::string cleaned(const ExprPtr& e) {
  return lang::to_text(remove_dead_lets(optimize_shared_rows(e)));
}

}  // namespace frag

TEST(Optimize, SharedRowRewriteAtDepthTwo) {
  EXPECT_EQ(frag::cleaned(frag::dist_v(frag::index_v())),
            "seq_index_inner^1(s, i)");
  EXPECT_EQ(frag::cleaned(frag::dist_v(frag::length_v())),
            "dist^1(length^1(s), c)");
}

TEST(Optimize, LetRebindingTheSourceBlocksTheRewriteBelowIt) {
  // A use of V under `let s = ...` would gather from the wrong rows.
  EXPECT_EQ(frag::cleaned(frag::dist_v(
                nb::let("s", frag::var("i", 2),
                        frag::add2(frag::index_v(), frag::var("s", 2))))),
            "let V = dist^1(s, c) in let s = i in add^2(seq_index^2(V, i), s)");
  // A use of V before the rebinding still rewrites.
  EXPECT_EQ(frag::cleaned(frag::dist_v(frag::add2(
                frag::index_v(),
                nb::let("s", frag::var("i", 2), frag::var("s", 2))))),
            "add^2(seq_index_inner^1(s, i), let s = i in s)");
}

TEST(Optimize, LetRebindingTheCountsBlocksTheRewriteBelowIt) {
  EXPECT_EQ(frag::cleaned(frag::dist_v(
                nb::let("c", frag::var("k", 1),
                        frag::add2(frag::length_v(), frag::var("c", 1))))),
            "let V = dist^1(s, c) in let c = k in add^2(length^2(V), c)");
}

TEST(Optimize, LetRebindingTheReplicatedVariableEndsItsUses) {
  // Below the inner `let V`, V is the inner binding: the outer replication
  // has no uses left and disappears.
  EXPECT_EQ(frag::cleaned(frag::dist_v(
                nb::let("V", frag::var("i", 3), frag::index_v()))),
            "let V = i in seq_index^2(V, i)");
}

TEST(Optimize, DeadLetUsingTheReplicationStillBlocksTheRewrite) {
  // The dead let's init is the only non-source use of V. The shared-row
  // pass runs first and sees it; dead-let removal then drops the let.
  ExprPtr dead = nb::let(
      "d",
      nb::prim_d(Prim::kSum, 2, {frag::var("V", 3)}, {1},
                 Type::seq_n(Type::int_(), 2)),
      frag::index_v());
  EXPECT_EQ(frag::cleaned(frag::dist_v(dead)),
            "let V = dist^1(s, c) in seq_index^2(V, i)");
}

TEST(Optimize, DeadLetsFollowShadowing) {
  const ExprPtr one = nb::int_lit(1);
  const ExprPtr two = nb::int_lit(2);
  const ExprPtr x = nb::var("x", Type::int_());
  // The outer x is shadowed before any use.
  EXPECT_EQ(lang::to_text(remove_dead_lets(
                nb::let("x", one, nb::let("x", two, x)))),
            "let x = 2 in x");
  // Its only use sits in a let that is itself dead.
  EXPECT_EQ(lang::to_text(remove_dead_lets(nb::let(
                "x", one,
                nb::let("y", x, nb::let("x", two, x))))),
            "let x = 2 in x");
  // The inner init still reads the outer binding.
  EXPECT_EQ(lang::to_text(remove_dead_lets(nb::let(
                "x", one,
                nb::let("x", nb::prim(Prim::kAdd, {x, two}), x)))),
            "let x = 1 in let x = (x + 2) in x");
}

TEST(Optimize, PaperQuoteBench) {
  // The quicksort prim-vs-data profile pinned at small scale: primitive
  // count O(recursion depth), element work O(n log n).
  Session s(R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let pivot = v[1 + (#v / 2)] in
        let parts = [p <- [[x <- v | x < pivot : x],
                           [x <- v | x > pivot : x]] : qs(p)] in
        parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
  )");
  auto run = [&](int n) {
    interp::ValueList elems;
    for (int i = 0; i < n; ++i) {
      elems.push_back(
          interp::Value::ints(vl::Int{i} * 2654435761 % 1000000));
    }
    (void)s.run_vm("qs", {interp::Value::seq(std::move(elems))});
    return s.last_cost().vector_work;
  };
  auto w256 = run(256);
  auto w2048 = run(2048);
  EXPECT_LT(w2048.element_work, w256.element_work * 8 * 3);
  EXPECT_LT(w2048.primitive_calls, w256.primitive_calls * 3);
}

}  // namespace
}  // namespace proteus::xform
