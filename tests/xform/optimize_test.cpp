// Tests for the Section 4.5 shared-row optimization pass.
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "xform/optimize.hpp"
#include "testing.hpp"

namespace proteus::xform {
namespace {

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
