// Kernel-level tests for the vector-model primitives (depth 0 and their
// depth-1 parallel extensions).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <typeinfo>

#include "core/proteus.hpp"
#include "kernels/prims.hpp"
#include "lang/parser.hpp"
#include "prims_reference.hpp"
#include "rt/governor.hpp"
#include "seq/build.hpp"

namespace proteus::kernels {
namespace {

using lang::Prim;
using lang::Type;

/// Builds a VValue from a P literal with the given type text.
VValue vval(std::string_view literal, std::string_view type_text) {
  return from_boxed(parse_value(literal), lang::parse_type(type_text));
}

/// Renders a VValue through its boxed form.
std::string text(const VValue& v, std::string_view type_text) {
  return interp::to_text(to_boxed(v, lang::parse_type(type_text)));
}

TEST(Prim0, Scalars) {
  EXPECT_EQ(apply_prim0(Prim::kAdd, {VValue::ints(2), VValue::ints(3)})
                .as_int(),
            5);
  EXPECT_EQ(apply_prim0(Prim::kDiv, {VValue::reals(1.0), VValue::reals(4.0)})
                .as_real(),
            0.25);
  EXPECT_TRUE(apply_prim0(Prim::kLt, {VValue::ints(1), VValue::ints(2)})
                  .as_bool());
  EXPECT_TRUE(apply_prim0(Prim::kAnd, {VValue::bools(true),
                                       VValue::bools(true)})
                  .as_bool());
  EXPECT_THROW((void)apply_prim0(Prim::kDiv, {VValue::ints(1), VValue::ints(0)}),
               EvalError);
}

TEST(Prim0, SequenceOps) {
  VValue v = vval("[3,1,2]", "seq(int)");
  EXPECT_EQ(apply_prim0(Prim::kLength, {v}).as_int(), 3);
  EXPECT_EQ(apply_prim0(Prim::kSum, {v}).as_int(), 6);
  EXPECT_EQ(apply_prim0(Prim::kMaxVal, {v}).as_int(), 3);
  EXPECT_EQ(apply_prim0(Prim::kMinVal, {v}).as_int(), 1);
  EXPECT_EQ(apply_prim0(Prim::kSeqIndex, {v, VValue::ints(2)}).as_int(), 1);
  EXPECT_THROW((void)apply_prim0(Prim::kSeqIndex, {v, VValue::ints(0)}), EvalError);
  EXPECT_EQ(text(apply_prim0(Prim::kRange1, {VValue::ints(3)}), "seq(int)"),
            "[1,2,3]");
  EXPECT_EQ(text(apply_prim0(Prim::kRange,
                             {VValue::ints(4), VValue::ints(6)}),
                 "seq(int)"),
            "[4,5,6]");
  EXPECT_EQ(text(apply_prim0(Prim::kSeqUpdate,
                             {v, VValue::ints(1), VValue::ints(9)}),
                 "seq(int)"),
            "[9,1,2]");
}

TEST(Prim0, RestrictCombineDist) {
  VValue v = vval("[1,2,3,4]", "seq(int)");
  VValue m = vval("[true,false,true,false]", "seq(bool)");
  VValue r = apply_prim0(Prim::kRestrict, {v, m});
  EXPECT_EQ(text(r, "seq(int)"), "[1,3]");
  VValue f = vval("[2,4]", "seq(int)");
  EXPECT_EQ(text(apply_prim0(Prim::kCombine, {m, r, f}), "seq(int)"),
            "[1,2,3,4]");
  EXPECT_EQ(text(apply_prim0(Prim::kDist, {VValue::ints(7), VValue::ints(3)}),
                 "seq(int)"),
            "[7,7,7]");
  // dist of a sequence element
  EXPECT_EQ(text(apply_prim0(Prim::kDist,
                             {vval("[1,2]", "seq(int)"), VValue::ints(2)}),
                 "seq(seq(int))"),
            "[[1,2],[1,2]]");
}

TEST(Prim0, NestedSeqOps) {
  VValue m = vval("[[1,2],[],[3]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim0(Prim::kFlatten, {m}), "seq(int)"), "[1,2,3]");
  EXPECT_EQ(text(apply_prim0(Prim::kSeqIndex, {m, VValue::ints(3)}),
                 "seq(int)"),
            "[3]");
  VValue w = vval("[[9]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim0(Prim::kConcat, {m, w}), "seq(seq(int))"),
            "[[1,2],[],[3],[9]]");
}

TEST(Prim0, ExtractInsertRoundTrip) {
  VValue m = vval("[[1,2],[],[3]]", "seq(seq(int))");
  VValue flat = apply_prim0(Prim::kExtract, {m, VValue::ints(1)});
  EXPECT_EQ(text(flat, "seq(int)"), "[1,2,3]");
  VValue back = apply_prim0(Prim::kInsert, {flat, m, VValue::ints(1)});
  EXPECT_EQ(text(back, "seq(seq(int))"), "[[1,2],[],[3]]");
}

// --- depth-1 extensions -------------------------------------------------------

TEST(Prim1, ElementwiseFrames) {
  VValue a = vval("[1,2,3]", "seq(int)");
  VValue b = vval("[10,20,30]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kAdd, {a, b}, {}), "seq(int)"),
            "[11,22,33]");
  EXPECT_EQ(text(apply_prim1(Prim::kLt, {a, b}, {}), "seq(bool)"),
            "[true,true,true]");
}

TEST(Prim1, BroadcastScalarArgument) {
  VValue a = vval("[1,2,3]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kMul, {a, VValue::ints(5)}, {1, 0}),
                 "seq(int)"),
            "[5,10,15]");
  EXPECT_EQ(text(apply_prim1(Prim::kSub, {VValue::ints(10), a}, {0, 1}),
                 "seq(int)"),
            "[9,8,7]");
}

TEST(Prim1, Range1IsSegmentedIota) {
  VValue ns = vval("[3,0,2]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kRange1, {ns}, {}), "seq(seq(int))"),
            "[[1,2,3],[],[1,2]]");
}

TEST(Prim1, RangeFrames) {
  VValue lo = vval("[1,5,3]", "seq(int)");
  VValue hi = vval("[3,4,3]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kRange, {lo, hi}, {}), "seq(seq(int))"),
            "[[1,2,3],[],[3]]");
}

TEST(Prim1, DistFrames) {
  VValue c = vval("[3,4,5]", "seq(int)");
  VValue r = vval("[3,2,1]", "seq(int)");
  // the paper's example: dist([3,4,5],[3,2,1]) = [[3,3,3],[4,4],[5]]
  EXPECT_EQ(text(apply_prim1(Prim::kDist, {c, r}, {}), "seq(seq(int))"),
            "[[3,3,3],[4,4],[5]]");
}

TEST(Prim1, SeqIndexSharedSource) {
  VValue src = vval("[10,20,30]", "seq(int)");
  VValue idx = vval("[3,1,3,2]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kSeqIndex, {src, idx}, {0, 1}),
                 "seq(int)"),
            "[30,10,30,20]");
  // the ablation path (replication) must agree
  PrimOptions naive;
  naive.shared_source_gather = false;
  EXPECT_EQ(text(apply_prim1(Prim::kSeqIndex, {src, idx}, {0, 1}, naive),
                 "seq(int)"),
            "[30,10,30,20]");
}

TEST(Prim1, SeqIndexFrameSource) {
  VValue src = vval("[[1,2],[3,4,5]]", "seq(seq(int))");
  VValue idx = vval("[2,3]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kSeqIndex, {src, idx}, {1, 1}),
                 "seq(int)"),
            "[2,5]");
  VValue bad = vval("[2,4]", "seq(int)");
  EXPECT_THROW((void)apply_prim1(Prim::kSeqIndex, {src, bad}, {1, 1}), EvalError);
}

TEST(Prim1, SeqIndexInner) {
  // shared-row gather: result[s] = [v[s][i] : i in idx[s]]
  VValue v = vval("[[10,20,30],[40,50]]", "seq(seq(int))");
  VValue idx = vval("[[3,1],[2,2,1]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kSeqIndexInner, {v, idx}, {1, 1}),
                 "seq(seq(int))"),
            "[[30,10],[50,50,40]]");
  VValue bad = vval("[[4],[1]]", "seq(seq(int))");
  EXPECT_THROW((void)apply_prim1(Prim::kSeqIndexInner, {v, bad}, {1, 1}),
               EvalError);
}

TEST(Prim0, SeqIndexInner) {
  VValue v = vval("[7,8,9]", "seq(int)");
  VValue idx = vval("[3,3,1]", "seq(int)");
  EXPECT_EQ(text(apply_prim0(Prim::kSeqIndexInner, {v, idx}), "seq(int)"),
            "[9,9,7]");
  EXPECT_THROW((void)apply_prim0(Prim::kSeqIndexInner,
                                 {v, vval("[0]", "seq(int)")}),
               EvalError);
}

TEST(Prim1, LengthFrames) {
  VValue v = vval("[[1],[],[2,3]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kLength, {v}, {}), "seq(int)"), "[1,0,2]");
}

TEST(Prim1, RestrictPerSegment) {
  VValue v = vval("[[1,2,3],[4,5]]", "seq(seq(int))");
  VValue m = vval("[[true,false,true],[false,false]]", "seq(seq(bool))");
  EXPECT_EQ(text(apply_prim1(Prim::kRestrict, {v, m}, {}), "seq(seq(int))"),
            "[[1,3],[]]");
}

TEST(Prim1, CombinePerSegment) {
  VValue m = vval("[[true,false],[false,true,true]]", "seq(seq(bool))");
  VValue t = vval("[[1],[2,3]]", "seq(seq(int))");
  VValue f = vval("[[9],[8]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kCombine, {m, t, f}, {}),
                 "seq(seq(int))"),
            "[[1,9],[8,2,3]]");
}

TEST(Prim1, UpdatePerSegment) {
  VValue s = vval("[[1,2],[3,4,5]]", "seq(seq(int))");
  VValue i = vval("[2,1]", "seq(int)");
  VValue x = vval("[9,8]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kSeqUpdate, {s, i, x}, {}),
                 "seq(seq(int))"),
            "[[1,9],[8,4,5]]");
}

TEST(Prim1, ConcatPerSegment) {
  VValue a = vval("[[1],[],[2,3]]", "seq(seq(int))");
  VValue b = vval("[[9],[8],[7]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kConcat, {a, b}, {}), "seq(seq(int))"),
            "[[1,9],[8],[2,3,7]]");
}

TEST(Prim1, ReversePerSegment) {
  VValue v = vval("[[1,2,3],[],[4,5]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kReverse, {v}, {}), "seq(seq(int))"),
            "[[3,2,1],[],[5,4]]");
  // nested elements reverse as whole units
  VValue d = vval("[[[1],[2,3]]]", "seq(seq(seq(int)))");
  EXPECT_EQ(text(apply_prim1(Prim::kReverse, {d}, {}), "seq(seq(seq(int)))"),
            "[[[2,3],[1]]]");
}

TEST(Prim1, ZipPerSegment) {
  VValue a = vval("[[1,2],[3]]", "seq(seq(int))");
  VValue b = vval("[[8,9],[7]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kZip, {a, b}, {}),
                 "seq(seq((int, int)))"),
            "[[(1,8),(2,9)],[(3,7)]]");
  VValue bad = vval("[[8],[7,9]]", "seq(seq(int))");
  EXPECT_THROW((void)apply_prim1(Prim::kZip, {a, bad}, {}), EvalError);
}

TEST(Prim1, FlattenPerSegment) {
  VValue v = vval("[[[1],[2,3]],[[4,5],[]]]", "seq(seq(seq(int)))");
  EXPECT_EQ(text(apply_prim1(Prim::kFlatten, {v}, {}), "seq(seq(int))"),
            "[[1,2,3],[4,5]]");
}

TEST(Prim1, Reductions) {
  VValue v = vval("[[1,2],[],[3,4,5]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kSum, {v}, {}), "seq(int)"), "[3,0,12]");
  VValue nz = vval("[[1,9],[3]]", "seq(seq(int))");
  EXPECT_EQ(text(apply_prim1(Prim::kMaxVal, {nz}, {}), "seq(int)"), "[9,3]");
  EXPECT_EQ(text(apply_prim1(Prim::kMinVal, {nz}, {}), "seq(int)"), "[1,3]");
  EXPECT_THROW((void)apply_prim1(Prim::kMaxVal, {v}, {}), EvalError);
  VValue bs = vval("[[true,false],[false]]", "seq(seq(bool))");
  EXPECT_EQ(text(apply_prim1(Prim::kAnyV, {bs}, {}), "seq(bool)"),
            "[true,false]");
  EXPECT_EQ(text(apply_prim1(Prim::kAllV, {bs}, {}), "seq(bool)"),
            "[false,false]");
}

TEST(Prim1, SeqCons) {
  VValue a = vval("[1,2]", "seq(int)");
  VValue b = vval("[8,9]", "seq(int)");
  EXPECT_EQ(text(seq_cons1({a, b}), "seq(seq(int))"), "[[1,8],[2,9]]");
}

TEST(Prim1, BroadcastMaskMaterialized) {
  // restrict^1 with a uniform mask: replicated across the frame.
  VValue v = vval("[[1,2],[3,4]]", "seq(seq(int))");
  VValue m = vval("[true,false]", "seq(bool)");
  EXPECT_EQ(text(apply_prim1(Prim::kRestrict, {v, m}, {1, 0}),
                 "seq(seq(int))"),
            "[[1],[3]]");
}

TEST(Prim1, BroadcastDistValue) {
  // dist^1 with a uniform value and per-slot counts.
  VValue counts = vval("[2,0,3]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kDist, {VValue::ints(7), counts}, {0, 1}),
                 "seq(seq(int))"),
            "[[7,7],[],[7,7,7]]");
  // ... and a uniform sequence value
  VValue row = vval("[1,2]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kDist, {row, vval("[2,1]", "seq(int)")},
                             {0, 1}),
                 "seq(seq(seq(int)))"),
            "[[[1,2],[1,2]],[[1,2]]]");
}

TEST(Prim1, BroadcastConcatSide) {
  VValue a = vval("[[1],[2,3]]", "seq(seq(int))");
  VValue suffix = vval("[9]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kConcat, {a, suffix}, {1, 0}),
                 "seq(seq(int))"),
            "[[1,9],[2,3,9]]");
}

TEST(Prim1, BroadcastUpdateValue) {
  VValue s = vval("[[1,2],[3,4]]", "seq(seq(int))");
  VValue i = vval("[1,2]", "seq(int)");
  EXPECT_EQ(text(apply_prim1(Prim::kSeqUpdate, {s, i, VValue::ints(0)},
                             {1, 1, 0}),
                 "seq(seq(int))"),
            "[[0,2],[3,0]]");
}

TEST(Prim1, BroadcastSumArgument) {
  // sum^1 of a uniform sequence: same total for every slot. The frame
  // length comes from... no frame argument exists, so this must throw.
  EXPECT_THROW((void)apply_prim1(Prim::kSum,
                                 {vval("[1,2]", "seq(int)")}, {0}),
               EvalError);
}

TEST(Prim1, NoFrameArgumentThrows) {
  EXPECT_THROW((void)apply_prim1(Prim::kAdd, {VValue::ints(1), VValue::ints(2)},
                           {0, 0}),
               EvalError);
}

TEST(Helpers, EmptyFrameValue) {
  VValue mask = vval("[[true,false],[true]]", "seq(seq(bool))");
  VValue e = empty_frame_value(mask, 2,
                               lang::parse_type("seq(seq(int))"));
  EXPECT_EQ(text(e, "seq(seq(int))"), "[[],[]]");
  VValue flat_mask = vval("[true,true]", "seq(bool)");
  VValue e1 = empty_frame_value(flat_mask, 1, lang::parse_type("seq(int)"));
  EXPECT_EQ(text(e1, "seq(int)"), "[]");
}

TEST(Helpers, AnyTrueFrame) {
  EXPECT_TRUE(any_true_frame(vval("[[false],[true]]", "seq(seq(bool))")));
  EXPECT_FALSE(any_true_frame(vval("[false,false]", "seq(bool)")));
  EXPECT_FALSE(any_true_frame(vval("([] : seq(bool))", "seq(bool)")));
}

TEST(Helpers, Materialize) {
  EXPECT_EQ(text(VValue::seq(materialize(VValue::ints(7), 3)), "seq(int)"),
            "[7,7,7]");
  VValue s = vval("[1,2]", "seq(int)");
  EXPECT_EQ(text(VValue::seq(materialize(s, 2)), "seq(seq(int))"),
            "[[1,2],[1,2]]");
  VValue t = VValue::tuple({VValue::ints(1), VValue::bools(true)});
  EXPECT_EQ(text(VValue::seq(materialize(t, 2)), "seq((int, bool))"),
            "[(1,true),(1,true)]");
  EXPECT_THROW((void)materialize(VValue::fun("f"), 2), EvalError);
}

TEST(Helpers, ElementValue) {
  seq::Array a = seq::from_ints2({{1, 2}, {3}});
  VValue e = element_value(a, 0);
  EXPECT_EQ(text(e, "seq(int)"), "[1,2]");
  EXPECT_THROW((void)element_value(a, 2), EvalError);
}

// --- one-pass structural kernels against their composed definitions --------

using seq::Array;
using vl::IntVec;
using vl::Size;

/// What one kernel call did: its value or its error, and the vector-model
/// counters it left.
struct Outcome {
  std::optional<Array> value;
  std::string error;  // exception type and text
  vl::VectorStats stats;
};

using Kernel = std::function<Array()>;

Outcome run(const Kernel& op) {
  vl::reset_stats();
  Outcome out;
  try {
    out.value = op();
  } catch (const Error& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  out.stats = vl::stats();
  return out;
}

/// Runs `op` under a step budget of `steps` (0 is no budget): the counters
/// at the trap, or nullopt when it completes.
std::optional<vl::VectorStats> trap_at(const Kernel& op, std::uint64_t steps) {
  vl::reset_stats();
  rt::ExecBudget budget;
  budget.max_steps = steps;
  rt::GovernorScope scope(budget);
  try {
    (void)op();
  } catch (const rt::RuntimeTrap&) {
    return vl::stats();
  } catch (const Error&) {
  }
  return std::nullopt;
}

void expect_same_counts(const vl::VectorStats& got,
                        const vl::VectorStats& want) {
  EXPECT_EQ(got.primitive_calls, want.primitive_calls);
  EXPECT_EQ(got.element_work, want.element_work);
  EXPECT_EQ(got.segment_work, want.segment_work);
}

/// The one-pass kernel returns what the composed reference returns, or
/// raises the same error; charges the same primitives, work and segments
/// with no more buffers; and under every step budget traps exactly where
/// the reference traps, with the same counts. Budgets inside one record's
/// share of the work all trap at that record, so beyond `every_budget_to`
/// the budgets tried are the reference's trap points (each the work
/// charged up to and including the record that tripped).
void expect_matches_reference(const Kernel& direct, const Kernel& reference,
                              std::uint64_t every_budget_to = 5000) {
  const Outcome want = run(reference);
  const Outcome got = run(direct);
  ASSERT_EQ(got.error, want.error);
  if (want.value) {
    ASSERT_TRUE(got.value.has_value());
    EXPECT_EQ(*got.value, *want.value);
    EXPECT_EQ(seq::to_text(*got.value), seq::to_text(*want.value));
  }
  expect_same_counts(got.stats, want.stats);
  EXPECT_LE(got.stats.buffer_allocs, want.stats.buffer_allocs);
  std::uint64_t steps = 1;
  while (steps <= want.stats.element_work) {
    const auto want_trap = trap_at(reference, steps);
    const auto got_trap = trap_at(direct, steps);
    ASSERT_EQ(got_trap.has_value(), want_trap.has_value())
        << "step budget " << steps;
    if (!want_trap) break;
    expect_same_counts(*got_trap, *want_trap);
    steps = steps < every_budget_to ? steps + 1
                                    : std::max(steps + 1,
                                               want_trap->element_work);
  }
}

/// `n` elements of each covered element shape: scalar leaves of every kind,
/// sequences of depth 1-3 (with empty segments), a tuple with a sequence
/// component and a sequence of tuples.
std::vector<Array> element_shapes(std::uint64_t seed, Size n) {
  Array d1 = seq::random_nested_ints(seed, 1, n, 3);
  const Size inner = d1.inner().length();
  return {
      Array::ints(seq::random_ints(seed + 1, n, -9, 9)),
      Array::reals(vl::to_real(seq::random_ints(seed + 2, n, -9, 9))),
      Array::bools(seq::random_mask(seed + 3, n, 1, 2)),
      d1,
      seq::random_nested_ints(seed + 4, 2, n, 3),
      seq::random_nested_ints(seed + 5, 3, n, 2),
      Array::tuple({Array::bools(seq::random_mask(seed + 6, n, 1, 3)),
                    seq::random_nested_ints(seed + 7, 1, n, 2)}),
      Array::nested(d1.lengths(),
                    Array::tuple({d1.inner(), seq::random_nested_ints(
                                                  seed + 8, 1, inner, 2)})),
  };
}

/// Frames of `n` slots with segment lengths in [min_seg, max_seg], one per
/// element shape.
std::vector<Array> frames(std::uint64_t seed, Size n, Size max_seg = 3,
                          Size min_seg = 0) {
  const IntVec lens = seq::random_ints(seed, n, min_seg, max_seg);
  Size total = 0;
  for (const Int l : lens) total += l;
  std::vector<Array> out;
  for (const Array& e : element_shapes(seed + 20, total)) {
    out.push_back(Array::nested(lens, e));
  }
  return out;
}

VValue seq_of(const Array& a) { return VValue::seq(a); }

Kernel prim1(Prim op, std::vector<Array> args) {
  return [op, args] {
    std::vector<VValue> vals;
    for (const Array& a : args) vals.push_back(VValue::seq(a));
    return apply_prim1(op, vals, {}).as_seq();
  };
}

/// 1-origin indices valid for each slot of `lens` (every slot non-empty).
Array valid_indices(std::uint64_t seed, const IntVec& lens) {
  IntVec r = seq::random_ints(seed, lens.size(), 0, 1 << 20);
  for (Size k = 0; k < lens.size(); ++k) r[k] = r[k] % lens[k] + 1;
  return Array::ints(std::move(r));
}

class Prim1StructuralProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Prim1StructuralProperty, ConcatMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{6}}) {
    const std::vector<Array> as = frames(seed, n);
    const std::vector<Array> bs = frames(seed + 100, n);
    for (std::size_t k = 0; k < as.size(); ++k) {
      SCOPED_TRACE(seq::to_text(as[k]) + " ++ " + seq::to_text(bs[k]));
      expect_matches_reference(prim1(Prim::kConcat, {as[k], bs[k]}), [&] {
        return reference::concat_1(as[k], bs[k]);
      });
      // different element structure; different slot counts
      const Array& other = bs[(k + 3) % bs.size()];
      expect_matches_reference(prim1(Prim::kConcat, {as[k], other}), [&] {
        return reference::concat_1(as[k], other);
      });
      const Array longer = frames(seed + 200, n + 1)[k];
      expect_matches_reference(prim1(Prim::kConcat, {as[k], longer}), [&] {
        return reference::concat_1(as[k], longer);
      });
    }
  }
}

TEST_P(Prim1StructuralProperty, ReverseMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{7}}) {
    for (const Array& v : frames(seed, n)) {
      SCOPED_TRACE(seq::to_text(v));
      expect_matches_reference(prim1(Prim::kReverse, {v}),
                               [&] { return reference::reverse_1(v); });
    }
  }
}

TEST_P(Prim1StructuralProperty, SeqConsMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{5}}) {
    for (std::size_t k = 1; k <= 4; ++k) {
      std::vector<std::vector<Array>> per_frame;
      for (std::size_t c = 0; c < k; ++c) {
        per_frame.push_back(element_shapes(seed + 10 * c, n));
      }
      for (std::size_t s = 0; s < per_frame[0].size(); ++s) {
        std::vector<Array> elems;
        for (std::size_t c = 0; c < k; ++c) elems.push_back(per_frame[c][s]);
        SCOPED_TRACE(seq::to_text(elems[0]) + " k=" + std::to_string(k));
        const Kernel direct = [&] {
          std::vector<VValue> vals;
          for (const Array& e : elems) vals.push_back(seq_of(e));
          return seq_cons1(vals).as_seq();
        };
        expect_matches_reference(direct,
                                 [&] { return reference::seq_cons_1(elems); });
        if (k > 1) {
          // the last frame of another element structure, then of another
          // length
          elems.back() = per_frame[k - 1][(s + 3) % per_frame[k - 1].size()];
          expect_matches_reference(
              direct, [&] { return reference::seq_cons_1(elems); });
          elems.back() = element_shapes(seed + 77, n + 1)[s];
          expect_matches_reference(
              direct, [&] { return reference::seq_cons_1(elems); });
        }
      }
    }
  }
}

TEST_P(Prim1StructuralProperty, SeqCons0MatchesReference) {
  const std::uint64_t seed = GetParam();
  const lang::TypePtr int_type = lang::parse_type("int");
  for (std::size_t k = 1; k <= 4; ++k) {
    // element i of k arrays of one shape: scalars, sequences, tuples
    for (std::size_t s = 0; s < element_shapes(seed, 3).size(); ++s) {
      std::vector<VValue> elems;
      for (std::size_t i = 0; i < k; ++i) {
        elems.push_back(element_value(element_shapes(seed + i, 3)[s], 1));
      }
      const auto wrap = [](VValue v) { return v.as_seq(); };
      expect_matches_reference(
          [&] { return wrap(seq_cons0(elems, int_type)); },
          [&] { return wrap(reference::seq_cons0(elems, int_type)); });
      if (k > 1) {
        elems.back() = element_value(element_shapes(seed, 3)[(s + 3) % 8], 0);
        expect_matches_reference(
            [&] { return wrap(seq_cons0(elems, int_type)); },
            [&] { return wrap(reference::seq_cons0(elems, int_type)); });
      }
    }
  }
  const std::vector<VValue> none;
  expect_matches_reference(
      [&] { return seq_cons0(none, int_type).as_seq(); },
      [&] { return reference::seq_cons0(none, int_type).as_seq(); });
}

TEST_P(Prim1StructuralProperty, UpdateMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{6}}) {
    // with empty slots, then with every slot non-empty
    std::vector<Array> ss = frames(seed, n);
    for (const Array& f : frames(seed + 60, n, 3, 1)) ss.push_back(f);
    const std::vector<Array> xs = element_shapes(seed + 50, n);
    const std::vector<Array> short_xs =
        element_shapes(seed + 51, std::max<Size>(n - 1, 0));
    const std::vector<Array> long_xs = element_shapes(seed + 52, n + 2);
    for (std::size_t k = 0; k < ss.size(); ++k) {
      const Array& s = ss[k];
      SCOPED_TRACE(seq::to_text(s));
      const IntVec& lens = s.lengths();
      bool all_nonempty = true;
      for (const Int l : lens) all_nonempty = all_nonempty && l > 0;
      std::vector<Array> indices;
      if (all_nonempty) indices.push_back(valid_indices(seed + 3, lens));
      if (n > 0) {
        indices.push_back(Array::ints(IntVec(n, 0)));
        indices.push_back(Array::ints(IntVec(n, -2)));
        IntVec past = lens;
        for (Int& l : past) l += 1;
        indices.push_back(Array::ints(past));
      }
      indices.push_back(Array::ints(IntVec(n + 1, 1)));  // slot count differs
      for (const Array& i : indices) {
        const std::size_t e = k % xs.size();
        for (const Array* x : {&xs[e], &short_xs[e], &long_xs[e],
                               &xs[(e + 3) % xs.size()]}) {
          expect_matches_reference(
              prim1(Prim::kSeqUpdate, {s, i, *x}),
              [&] { return reference::update_1(s, i, *x); });
        }
      }
    }
  }
}

TEST_P(Prim1StructuralProperty, RangesMatchReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{8}}) {
    const Array lo = Array::ints(seq::random_ints(seed, n, -5, 5));
    const Array hi = Array::ints(seq::random_ints(seed + 1, n, -6, 6));
    expect_matches_reference(prim1(Prim::kRange, {lo, hi}),
                             [&] { return reference::range_1(lo, hi); });
    const Array counts = Array::ints(seq::random_ints(seed + 2, n, -3, 4));
    expect_matches_reference(prim1(Prim::kRange1, {counts}),
                             [&] { return reference::range1_1(counts); });
    for (const Array& v : element_shapes(seed + 3, n)) {
      expect_matches_reference(prim1(Prim::kDist, {v, counts}), [&] {
        return reference::dist_1(v, counts);
      });
    }
  }
  const Array lo = Array::ints(IntVec{1, 2});
  const Array hi = Array::ints(IntVec{3});
  expect_matches_reference(prim1(Prim::kRange, {lo, hi}),
                           [&] { return reference::range_1(lo, hi); });
}

TEST_P(Prim1StructuralProperty, IndexFamilyMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{6}}) {
    std::vector<Array> ss = frames(seed, n);
    for (const Array& f : frames(seed + 60, n, 3, 1)) ss.push_back(f);
    for (const Array& s : ss) {
      SCOPED_TRACE(seq::to_text(s));
      const IntVec& lens = s.lengths();
      bool all_nonempty = true;
      for (const Int l : lens) all_nonempty = all_nonempty && l > 0;
      std::vector<Array> indices;
      if (all_nonempty) indices.push_back(valid_indices(seed + 4, lens));
      if (n > 0) {
        indices.push_back(Array::ints(IntVec(n, 0)));
        indices.push_back(Array::ints(IntVec(n, -1)));
      }
      indices.push_back(Array::ints(IntVec(n + 1, 1)));
      for (const Array& i : indices) {
        expect_matches_reference(
            prim1(Prim::kSeqIndex, {s, i}),
            [&] { return reference::seq_index_1_frame(s, i); });
      }
      // the shared source: slot s's row of `s` gathered by every index
      const Array& source = s.inner();
      const Size m = source.length();
      std::vector<Array> shared{
          Array::ints(seq::random_ints(seed + 5, 9, 1, m > 0 ? m : 1)),
          Array::ints(IntVec{1, m + 1}), Array::ints(IntVec{-3}),
          Array::ints(IntVec{})};
      for (const Array& i : shared) {
        expect_matches_reference(
            [&] {
              return apply_prim1(Prim::kSeqIndex, {seq_of(source), seq_of(i)},
                                 {0, 1})
                  .as_seq();
            },
            [&] { return reference::seq_index_1_shared(source, i); });
        expect_matches_reference(
            [&] {
              return apply_prim0(Prim::kSeqIndexInner,
                                 {seq_of(source), seq_of(i)})
                  .as_seq();
            },
            [&] { return reference::seq_index_1_shared(source, i); });
      }
      // per-slot index rows into each slot's own row
      const IntVec per_slot = seq::random_ints(seed + 6, n, 0, 3);
      Size total = 0;
      for (const Int c : per_slot) total += c;
      IntVec good(total);
      IntVec bad(total);
      Size at = 0;
      for (Size k = 0; k < n; ++k) {
        for (Int j = 0; j < per_slot[k]; ++j, ++at) {
          good[at] = lens[k] > 0 ? (at % lens[k]) + 1 : 1;
          bad[at] = j == 1 ? lens[k] + 1 : good[at];
        }
      }
      for (const IntVec* rows : {&good, &bad}) {
        const Array idx = Array::nested(per_slot, Array::ints(*rows));
        expect_matches_reference(
            prim1(Prim::kSeqIndexInner, {s, idx}),
            [&] { return reference::seq_index_inner_1(s, idx); });
      }
    }
  }
}

/// Frames above vl::kParallelGrain, so the OpenMP backend threads the
/// one-pass loops; each case runs on both backends.
TEST_P(Prim1StructuralProperty, LargeFramesMatchReference) {
  const std::uint64_t seed = GetParam();
  const Size n = 3000;
  const std::vector<Array> as = frames(seed, n, 4);
  const std::vector<Array> bs = frames(seed + 1, n, 4);
  ASSERT_GT(as[0].inner().length(), vl::kParallelGrain);
  const Array& a = as[3];  // sequences of Ints
  const Array& b = bs[3];
  const Array x = element_shapes(seed + 2, n)[3];
  std::vector<vl::Backend> backends{vl::Backend::kSerial};
  if (vl::openmp_available()) backends.push_back(vl::Backend::kOpenMP);
  for (const vl::Backend be : backends) {
    vl::BackendGuard guard(be);
    expect_matches_reference(prim1(Prim::kConcat, {a, b}),
                             [&] { return reference::concat_1(a, b); }, 0);
    expect_matches_reference(prim1(Prim::kConcat, {as[0], bs[0]}), [&] {
      return reference::concat_1(as[0], bs[0]);
    }, 0);
    expect_matches_reference(prim1(Prim::kReverse, {a}),
                             [&] { return reference::reverse_1(a); }, 0);
    const Array e0 = Array::ints(seq::random_ints(seed + 3, 5000, -9, 9));
    const Array e1 = Array::ints(seq::random_ints(seed + 4, 5000, -9, 9));
    expect_matches_reference(
        [&] { return seq_cons1({seq_of(e0), seq_of(e1)}).as_seq(); },
        [&] { return reference::seq_cons_1({e0, e1}); }, 0);
    const Array counts = Array::ints(seq::random_ints(seed + 5, 5000, -2, 3));
    expect_matches_reference(prim1(Prim::kRange1, {counts}),
                             [&] { return reference::range1_1(counts); }, 0);
    const Array lo = Array::ints(seq::random_ints(seed + 6, 5000, -3, 3));
    expect_matches_reference(prim1(Prim::kRange, {lo, counts}),
                             [&] { return reference::range_1(lo, counts); },
                             0);
    // slots of length >= 1 for the index kernels
    IntVec ones(n, 2);
    const Array s = Array::nested(ones, element_shapes(seed + 7, 2 * n)[3]);
    const Array idx = valid_indices(seed + 8, ones);
    expect_matches_reference(
        prim1(Prim::kSeqIndex, {s, idx}),
        [&] { return reference::seq_index_1_frame(s, idx); }, 0);
    expect_matches_reference(
        prim1(Prim::kSeqUpdate, {s, idx, x}),
        [&] { return reference::update_1(s, idx, x); }, 0);
    IntVec late = idx.int_values();
    late[n - 10] = 3;  // the first bad index is in the last block
    const Array bad = Array::ints(late);
    expect_matches_reference(
        prim1(Prim::kSeqIndex, {s, bad}),
        [&] { return reference::seq_index_1_frame(s, bad); }, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prim1StructuralProperty,
                         ::testing::Values<std::uint64_t>(31, 32, 33));

}  // namespace
}  // namespace proteus::kernels
