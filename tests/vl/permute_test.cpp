// Unit tests for the data-movement primitives.
#include <gtest/gtest.h>

#include "seq/build.hpp"
#include "vl/vl.hpp"

namespace proteus::vl {
namespace {

TEST(Gather, Basic) {
  EXPECT_EQ(gather(IntVec{10, 20, 30}, IntVec{2, 0, 2, 1}),
            (IntVec{30, 10, 30, 20}));
}

TEST(Gather, EmptyIndices) {
  EXPECT_EQ(gather(IntVec{1, 2}, IntVec{}), IntVec{});
}

TEST(Gather, OutOfRangeThrows) {
  EXPECT_THROW((void)gather(IntVec{1, 2}, IntVec{2}), EvalError);
  EXPECT_THROW((void)gather(IntVec{1, 2}, IntVec{-1}), EvalError);
}

TEST(Permute, Basic) {
  // element i goes to position positions[i]
  EXPECT_EQ(permute(IntVec{10, 20, 30}, IntVec{2, 0, 1}),
            (IntVec{20, 30, 10}));
}

TEST(Permute, NotAPermutationThrows) {
  EXPECT_THROW((void)permute(IntVec{1, 2}, IntVec{0, 0}), VectorError);
  EXPECT_THROW((void)permute(IntVec{1, 2}, IntVec{0, 5}), VectorError);
}

TEST(Permute, InverseOfGather) {
  IntVec v = seq::random_ints(7, 100, -50, 50);
  IntVec idx(100);
  for (Size i = 0; i < 100; ++i) idx[i] = 99 - i;  // reversal permutation
  EXPECT_EQ(gather(permute(v, idx), idx), v);
}

TEST(Scatter, Basic) {
  EXPECT_EQ(scatter(IntVec{0, 0, 0, 0}, IntVec{3, 1}, IntVec{9, 8}),
            (IntVec{0, 8, 0, 9}));
}

TEST(Scatter, DuplicatePositionThrows) {
  EXPECT_THROW((void)scatter(IntVec{0, 0}, IntVec{1, 1}, IntVec{5, 6}),
               VectorError);
}

TEST(Scatter, PositionOutOfRangeThrows) {
  EXPECT_THROW((void)scatter(IntVec{0}, IntVec{1}, IntVec{5}), EvalError);
}

TEST(Reverse, Basic) {
  EXPECT_EQ(reverse(IntVec{1, 2, 3}), (IntVec{3, 2, 1}));
  EXPECT_EQ(reverse(IntVec{}), IntVec{});
}

TEST(Rotate, Basic) {
  EXPECT_EQ(rotate(IntVec{1, 2, 3, 4}, 1), (IntVec{2, 3, 4, 1}));
  EXPECT_EQ(rotate(IntVec{1, 2, 3, 4}, -1), (IntVec{4, 1, 2, 3}));
  EXPECT_EQ(rotate(IntVec{1, 2, 3, 4}, 4), (IntVec{1, 2, 3, 4}));
  EXPECT_EQ(rotate(IntVec{}, 3), IntVec{});
}

TEST(Gather, BoolAndRealCarriers) {
  EXPECT_EQ(gather(BoolVec{1, 0}, IntVec{1, 1, 0}), (BoolVec{0, 0, 1}));
  EXPECT_EQ(gather(RealVec{1.5, 2.5}, IntVec{1, 0}), (RealVec{2.5, 1.5}));
}

class GatherBackends : public ::testing::TestWithParam<Size> {};

TEST_P(GatherBackends, OpenMPMatchesSerial) {
  if (!openmp_available()) GTEST_SKIP();
  const Size n = GetParam();
  IntVec v = seq::random_ints(5, n, -9, 9);
  IntVec idx = seq::random_ints(6, n * 2, 0, n > 0 ? n - 1 : 0);
  if (n == 0) return;
  IntVec serial;
  IntVec threaded;
  {
    BackendGuard g(Backend::kSerial);
    serial = gather(v, idx);
  }
  {
    BackendGuard g(Backend::kOpenMP);
    threaded = gather(v, idx);
  }
  EXPECT_EQ(serial, threaded);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GatherBackends,
                         ::testing::Values<Size>(1, 4096, 50000));

}  // namespace
}  // namespace proteus::vl
