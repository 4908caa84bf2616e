// The paper's motivating example (Section 1): a data-parallel sort applied
// in parallel to every sequence in a collection — flattened recursive
// divide and conquer.
#include <gtest/gtest.h>

#include <algorithm>

#include "testing.hpp"

namespace proteus {
namespace {

using testing::val;

const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let less = [x <- v | x < pivot : x] in
      let same = [x <- v | x == pivot : x] in
      let more = [x <- v | x > pivot : x] in
      let sorted = [part <- [less, more] : quicksort(part)] in
      sorted[1] ++ same ++ sorted[2]

  // "a data-parallel sort function applied in parallel to every sequence
  // in a collection of sequences" — the key step the paper says flat
  // languages cannot express.
  fun sortall(m: seq(seq(int))): seq(seq(int)) = [row <- m : quicksort(row)]
)";

interp::Value sorted_value(std::vector<vl::Int> v) {
  std::sort(v.begin(), v.end());
  std::string lit = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) lit += ',';
    lit += std::to_string(v[i]);
  }
  lit += ']';
  return v.empty() ? val("([] : seq(int))") : val(lit);
}

class QuicksortBoth : public ::testing::TestWithParam<const char*> {};

TEST_P(QuicksortBoth, SortsAndEnginesAgree) {
  Session s(kQuicksort);
  interp::Value input = val(GetParam());
  interp::Value r = s.run_reference("quicksort", {input});
  interp::Value v = s.run_vm("quicksort", {input});
  EXPECT_EQ(r, v);
  // verify it actually sorts
  std::vector<vl::Int> xs;
  for (const auto& e : input.as_seq()) xs.push_back(e.as_int());
  EXPECT_EQ(r, sorted_value(xs));
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, QuicksortBoth,
    ::testing::Values("([] : seq(int))", "[1]", "[2,1]", "[1,2]",
                      "[5,5,5,5]", "[3,1,4,1,5,9,2,6,5,3,5]",
                      "[9,8,7,6,5,4,3,2,1]", "[1,2,3,4,5,6,7,8,9]",
                      "[-3,7,-1,0,7,-3,2]"));

TEST(Quicksort, RandomLargeInput) {
  Session s(kQuicksort);
  seq::IntVec raw = seq::random_ints(2024, 500, -1000, 1000);
  interp::ValueList arg;
  interp::ValueList elems;
  std::vector<vl::Int> xs;
  for (vl::Size i = 0; i < raw.size(); ++i) {
    elems.push_back(interp::Value::ints(raw[i]));
    xs.push_back(raw[i]);
  }
  arg.push_back(interp::Value::seq(std::move(elems)));
  interp::Value v = s.run_vm("quicksort", arg);
  EXPECT_EQ(v, sorted_value(xs));
}

TEST(Quicksort, NestedApplication) {
  Session s(kQuicksort);
  testing::expect_both(
      s, "sortall",
      {val("[[3,1,2],([] : seq(int)),[9,-1],[5],[2,2,1,2]]")},
      "[[1,2,3],([] : seq(int)),[-1,9],[5],[1,2,2,2]]");
}

TEST(Quicksort, VectorPrimCountGrowsWithDepthNotSize) {
  // Flattened D&C: the number of vector primitives is proportional to the
  // recursion depth (O(log n) expected), not to n.
  Session s(kQuicksort);
  auto run = [&](vl::Size n) {
    seq::IntVec raw = seq::random_ints(7, n, 0, 1 << 30);
    interp::ValueList elems;
    for (vl::Size i = 0; i < raw.size(); ++i) {
      elems.push_back(interp::Value::ints(raw[i]));
    }
    (void)s.run_vm("quicksort", {interp::Value::seq(std::move(elems))});
    return s.last_cost().vector_work.primitive_calls;
  };
  auto p128 = run(128);
  auto p4096 = run(4096);
  // 32x the data should cost far fewer than 32x the primitives (log-ratio).
  EXPECT_LT(p4096, p128 * 4);
}

}  // namespace
}  // namespace proteus
