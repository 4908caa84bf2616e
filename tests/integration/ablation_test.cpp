// The Section 4.5 optimizations must not change results — only costs.
#include <gtest/gtest.h>

#include "testing.hpp"

namespace proteus {
namespace {

using testing::val;

xform::PipelineOptions naive_options() {
  xform::PipelineOptions o;
  o.flatten.broadcast_invariant_seq_args = false;
  o.shared_row_gather = false;
  return o;
}

const char* kGatherHeavy = R"(
  fun rev(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[#v + 1 - i]]
  fun spread(v: seq(int), n: int): seq(seq(int)) =
    [i <- [1 .. n] : [j <- [1 .. #v] : v[j] + i]]
)";

TEST(Ablation, ResultsIdenticalWithAndWithoutSharedSource) {
  Session optimized(kGatherHeavy);
  Session naive(kGatherHeavy, {}, naive_options());
  interp::Value v = val("[5,6,7,8,9]");
  EXPECT_EQ(optimized.run_vm("rev", {v}), naive.run_vm("rev", {v}));
  EXPECT_EQ(optimized.run_vm("spread", {v, val("4")}),
            naive.run_vm("spread", {v, val("4")}));
  EXPECT_EQ(optimized.run_vm("rev", {v}),
            optimized.run_reference("rev", {v}));
}

TEST(Ablation, ReplicationCostsMoreElementWork) {
  // The paper: replicating the fixed source means "each set of index
  // values would retrieve from their own copy of the source sequence,
  // clearly a waste of time and space".
  Session optimized(kGatherHeavy);
  Session naive(kGatherHeavy, {}, naive_options());
  // Built with += throughout: the `"[" + s + "]"` temporary-insert form
  // trips GCC 12's -Werror=restrict false positive (PR105651) at -O2+.
  std::string literal = "[";
  for (int i = 0; i < 500; ++i) {
    if (i) literal += ',';
    literal += std::to_string(i);
  }
  literal += ']';
  interp::ValueList arg{val(literal)};
  (void)optimized.run_vm("rev", arg);
  auto opt_work = optimized.last_cost().vector_work.element_work;
  (void)naive.run_vm("rev", arg);
  auto naive_work = naive.last_cost().vector_work.element_work;
  EXPECT_GT(naive_work, opt_work);
}

TEST(Ablation, QuicksortAgreesUnderBothModes) {
  const char* qs = R"(
    fun quicksort(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let pivot = v[1 + (#v / 2)] in
        let parts = [part <- [[x <- v | x < pivot : x],
                              [x <- v | x > pivot : x]] : quicksort(part)] in
        parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
  )";
  Session optimized(qs);
  Session naive(qs, {}, naive_options());
  interp::Value input = val("[4,2,9,4,1,7,0,-3,4]");
  EXPECT_EQ(optimized.run_vm("quicksort", {input}),
            naive.run_vm("quicksort", {input}));
}

}  // namespace
}  // namespace proteus
