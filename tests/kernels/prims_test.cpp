// Kernel-level tests for the vector-model primitives (depth 0 and their
// depth-1 parallel extensions).
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "kernels/prims.hpp"
#include "lang/parser.hpp"
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

}  // namespace
}  // namespace proteus::kernels
