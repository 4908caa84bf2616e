// Tests for the structural kernels on the flat representation.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <typeinfo>

#include "ops_reference.hpp"
#include "rt/governor.hpp"
#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace proteus::seq {
namespace {

using vl::BoolVec;

TEST(Gather, ScalarElements) {
  Array a = from_ints({10, 20, 30});
  EXPECT_EQ(to_text(gather(a, IntVec{2, 2, 0})), "[30,30,10]");
}

TEST(Gather, SequenceElements) {
  Array a = from_ints2({{1, 2}, {}, {3, 4, 5}});
  EXPECT_EQ(to_text(gather(a, IntVec{2, 0, 2, 1})),
            "[[3,4,5],[1,2],[3,4,5],[]]");
}

TEST(Gather, DeepElements) {
  Array a = from_ints3({{{1}, {2}}, {{3, 4}}});
  EXPECT_EQ(to_text(gather(a, IntVec{1, 1, 0})),
            "[[[3,4]],[[3,4]],[[1],[2]]]");
}

TEST(Gather, TupleElements) {
  Array a = Array::tuple({from_ints({1, 2, 3}),
                          from_ints2({{9}, {}, {8, 7}})});
  EXPECT_EQ(to_text(gather(a, IntVec{2, 0})), "[(3,[8,7]),(1,[9])]");
}

TEST(Gather, OutOfRangeThrows) {
  EXPECT_THROW((void)gather(from_ints({1}), IntVec{1}), EvalError);
}

TEST(Pack, RestrictOnRepresentation) {
  Array a = from_ints2({{1}, {2, 2}, {}, {3}});
  EXPECT_EQ(to_text(pack(a, BoolVec{1, 0, 1, 1})), "[[1],[],[3]]");
}

TEST(Pack, LengthMismatchThrows) {
  EXPECT_THROW((void)pack(from_ints({1, 2}), BoolVec{1}), VectorError);
}

TEST(Combine, InterleavesByMask) {
  Array t = from_ints2({{1}, {2, 2}});
  Array f = from_ints2({{9, 9, 9}});
  EXPECT_EQ(to_text(combine(BoolVec{1, 0, 1}, t, f)),
            "[[1],[9,9,9],[2,2]]");
}

TEST(Combine, EmptySideWorks) {
  Array t = from_ints({});
  Array f = from_ints({4, 5});
  EXPECT_EQ(to_text(combine(BoolVec{0, 0}, t, f)), "[4,5]");
}

TEST(Combine, StructureMismatchThrows) {
  EXPECT_THROW((void)combine(BoolVec{1, 0}, from_ints({1}), from_ints2({{2}})),
               RepresentationError);
}

TEST(CombinePack, InverseLawsOnNested) {
  Array r = random_nested_ints(3, 2, 40, 4);
  BoolVec m = random_mask(4, 40, 1, 2);
  Array t = pack(r, m);
  Array f = pack(r, vl::logical_not(m));
  EXPECT_EQ(combine(m, t, f), r);
}

TEST(Concat, Nested) {
  EXPECT_EQ(to_text(concat(from_ints2({{1}, {}}), from_ints2({{2, 3}}))),
            "[[1],[],[2,3]]");
}

TEST(EmptyLike, PreservesStructure) {
  Array a = from_ints3({{{1}}, {}});
  Array e = empty_like(a);
  EXPECT_EQ(e.length(), 0);
  EXPECT_TRUE(same_structure(a, e));
}

TEST(BroadcastElement, ReplicatesOneElement) {
  Array a = from_ints2({{1, 2}, {3}});
  EXPECT_EQ(to_text(broadcast_element(a, 1, 3)), "[[3],[3],[3]]");
  EXPECT_EQ(to_text(broadcast_element(a, 0, 0)), "[]");
  EXPECT_THROW((void)broadcast_element(a, 2, 1), VectorError);
}

TEST(SegBroadcast, Dist1Semantics) {
  // dist^1([10, 20], [3, 1]) elements: 10 thrice, 20 once.
  EXPECT_EQ(to_text(seg_broadcast(from_ints({10, 20}), IntVec{3, 1})),
            "[10,10,10,20]");
}

TEST(ElementAndSlice, Basic) {
  Array a = from_ints({5, 6, 7, 8});
  EXPECT_EQ(to_text(element(a, 2)), "[7]");
  EXPECT_EQ(to_text(slice(a, 1, 2)), "[6,7]");
  EXPECT_THROW((void)slice(a, 3, 2), VectorError);
}

TEST(SameStructure, Cases) {
  EXPECT_TRUE(same_structure(from_ints({1}), from_ints({})));
  EXPECT_FALSE(same_structure(from_ints({1}), from_ints2({{1}})));
  EXPECT_TRUE(same_structure(from_ints2({{1}}), from_ints2({})));
  EXPECT_FALSE(same_structure(Array::ints({}), Array::reals({})));
}

/// Property: gather distributes over nesting — gathering whole segments
/// equals per-segment boxed selection.
class GatherNestedProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GatherNestedProperty, MatchesBoxedSelection) {
  const std::uint64_t seed = GetParam();
  Array a = random_nested_ints(seed, 2, 25, 5);
  IntVec idx = random_ints(seed + 1, 40, 0, 24);
  Array got = gather(a, idx);
  // reference via slow element/concat path
  Array expect = empty_like(a);
  for (Size i = 0; i < idx.size(); ++i) {
    expect = concat(expect, element(a, idx[i]));
  }
  EXPECT_EQ(got, expect);
}

// --- direct kernels against the composed reference (ops_reference.hpp) ---

/// What one call of a structural kernel did: its value or its error, and
/// the vector-model counters it left.
struct Outcome {
  std::optional<Array> value;
  std::string error;  // exception type and text
  vl::VectorStats stats;
};

Outcome run(const std::function<Array()>& op) {
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

/// Runs `op` under a step budget of `steps`: the counters at the trap, or
/// nullopt when it completes.
std::optional<vl::VectorStats> trap_at(const std::function<Array()>& op,
                                       std::uint64_t steps) {
  vl::reset_stats();
  rt::ExecBudget budget;
  budget.max_steps = steps;
  rt::GovernorScope scope(budget);
  try {
    (void)op();
  } catch (const rt::RuntimeTrap&) {
    return vl::stats();
  }
  return std::nullopt;
}

void expect_same_counts(const vl::VectorStats& got,
                        const vl::VectorStats& want) {
  EXPECT_EQ(got.primitive_calls, want.primitive_calls);
  EXPECT_EQ(got.element_work, want.element_work);
  EXPECT_EQ(got.segment_work, want.segment_work);
}

/// The direct kernel returns what the reference returns, bit for bit, or
/// raises the same error; charges the same primitives, work and segments
/// with no more buffers; and, under every step budget up to its total
/// work, traps exactly when (and with the counts at which) the reference
/// does.
void expect_matches_reference(const std::function<Array()>& direct,
                              const std::function<Array()>& reference) {
  const Outcome want = run(reference);
  const Outcome got = run(direct);
  ASSERT_EQ(got.error, want.error);
  if (want.value) {
    ASSERT_TRUE(got.value.has_value());
    EXPECT_EQ(*got.value, *want.value);
    EXPECT_EQ(to_text(*got.value), to_text(*want.value));
  }
  expect_same_counts(got.stats, want.stats);
  EXPECT_LE(got.stats.buffer_allocs, want.stats.buffer_allocs);
  if (!want.value) return;
  for (std::uint64_t steps = 0; steps <= want.stats.element_work; ++steps) {
    const auto want_trap = trap_at(reference, steps);
    const auto got_trap = trap_at(direct, steps);
    ASSERT_EQ(got_trap.has_value(), want_trap.has_value())
        << "step budget " << steps;
    if (want_trap) expect_same_counts(*got_trap, *want_trap);
  }
}

/// `n` elements in each covered element shape: scalar leaves of every
/// kind, sequences of depth 1-3 (with empty segments), a tuple with a
/// sequence component, and a sequence of tuples.
std::vector<Array> shapes(std::uint64_t seed, Size n) {
  Array d1 = random_nested_ints(seed, 1, n, 3);
  const Size inner = d1.inner().length();
  return {
      Array::ints(random_ints(seed + 1, n, -9, 9)),
      Array::reals(vl::to_real(random_ints(seed + 2, n, -9, 9))),
      Array::bools(random_mask(seed + 3, n, 1, 2)),
      d1,
      random_nested_ints(seed + 4, 2, n, 3),
      random_nested_ints(seed + 5, 3, n, 2),
      Array::tuple({Array::bools(random_mask(seed + 6, n, 1, 3)),
                    random_nested_ints(seed + 7, 1, n, 2)}),
      Array::nested(d1.lengths(),
                    Array::tuple({d1.inner(),
                                  random_nested_ints(seed + 8, 1, inner, 2)})),
  };
}

/// Masks of length n: random, all true, all false.
std::vector<BoolVec> masks(std::uint64_t seed, Size n) {
  return {random_mask(seed, n, 1, 2), BoolVec(n, Bool{1}),
          BoolVec(n, Bool{0})};
}

TEST_P(GatherNestedProperty, GatherMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{6}}) {
    for (const Array& a : shapes(seed, n)) {
      SCOPED_TRACE(to_text(a));
      // duplicates, empty, and (last) an out-of-range and a negative index
      std::vector<IntVec> indices{IntVec{}};
      if (n > 0) indices.push_back(random_ints(seed + 9, 2 * n, 0, n - 1));
      indices.push_back(IntVec{0, n});
      indices.push_back(IntVec{-1});
      for (const IntVec& idx : indices) {
        expect_matches_reference([&] { return gather(a, idx); },
                                 [&] { return reference::gather(a, idx); });
      }
    }
  }
}

TEST_P(GatherNestedProperty, SegBroadcastMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{6}}) {
    for (const Array& a : shapes(seed, n)) {
      SCOPED_TRACE(to_text(a));
      std::vector<IntVec> counts{random_ints(seed + 10, n, 0, 3),
                                 IntVec(n, 0), IntVec(n + 1, 1)};
      if (n > 0) counts.push_back(IntVec(n, -1));
      for (const IntVec& c : counts) {
        expect_matches_reference(
            [&] { return seg_broadcast(a, c); },
            [&] { return reference::seg_broadcast(a, c); });
      }
    }
  }
}

TEST_P(GatherNestedProperty, BroadcastElementMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Array& a : shapes(seed, 6)) {
    SCOPED_TRACE(to_text(a));
    for (const Size i : {Size{0}, Size{5}, Size{6}, Size{-1}}) {
      for (const Size n : {Size{0}, Size{1}, Size{4}, Size{-1}}) {
        expect_matches_reference(
            [&] { return broadcast_element(a, i, n); },
            [&] { return reference::broadcast_element(a, i, n); });
      }
    }
  }
}

TEST_P(GatherNestedProperty, PackMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{7}}) {
    for (const Array& a : shapes(seed, n)) {
      SCOPED_TRACE(to_text(a));
      std::vector<BoolVec> ms = masks(seed + 11, n);
      ms.push_back(BoolVec(n + 1, Bool{1}));  // length mismatch
      for (const BoolVec& m : ms) {
        expect_matches_reference([&] { return pack(a, m); },
                                 [&] { return reference::pack(a, m); });
      }
    }
  }
}

TEST_P(GatherNestedProperty, CombineMatchesReference) {
  const std::uint64_t seed = GetParam();
  for (const Size n : {Size{0}, Size{7}}) {
    for (const BoolVec& m : masks(seed + 12, n)) {
      Size trues = 0;
      for (const Bool b : m) trues += b != 0 ? 1 : 0;
      const std::vector<Array> ts = shapes(seed + 13, trues);
      const std::vector<Array> fs = shapes(seed + 14, n - trues);
      for (std::size_t k = 0; k < ts.size(); ++k) {
        SCOPED_TRACE(to_text(ts[k]) + " / " + to_text(fs[k]));
        expect_matches_reference(
            [&] { return combine(m, ts[k], fs[k]); },
            [&] { return reference::combine(m, ts[k], fs[k]); });
        // #M != #V + #U, then the true count off by one with #M right
        BoolVec longer(n + 1, Bool{0});
        expect_matches_reference(
            [&] { return combine(longer, ts[k], fs[k]); },
            [&] { return reference::combine(longer, ts[k], fs[k]); });
        if (n > 0) {
          BoolVec flipped = m;
          flipped[0] = flipped[0] != 0 ? 0 : 1;
          expect_matches_reference(
              [&] { return combine(flipped, ts[k], fs[k]); },
              [&] { return reference::combine(flipped, ts[k], fs[k]); });
        }
        // different element structure
        const Array& other = fs[(k + 3) % fs.size()];
        expect_matches_reference(
            [&] { return combine(m, ts[k], other); },
            [&] { return reference::combine(m, ts[k], other); });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatherNestedProperty,
                         ::testing::Values<std::uint64_t>(21, 22, 23, 24));

}  // namespace
}  // namespace proteus::seq
