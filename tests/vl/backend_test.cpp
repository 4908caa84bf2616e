// Tests for the execution-policy plumbing and work counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "vl/kernel.hpp"
#include "vl/vl.hpp"

namespace proteus::vl {
namespace {

TEST(Backend, DefaultFollowsEnvironment) {
  // Serial unless the process was launched with PROTEUS_BACKEND=openmp
  // (how the CI matrix runs the whole suite on the parallel kernels).
  const char* env = std::getenv("PROTEUS_BACKEND");
  const bool want_openmp = env != nullptr &&
                           std::string_view(env) == "openmp" &&
                           openmp_available();
  EXPECT_EQ(backend(),
            want_openmp ? Backend::kOpenMP : Backend::kSerial);
}

TEST(Backend, GuardRestores) {
  Backend before = backend();
  {
    BackendGuard guard(Backend::kOpenMP);
    if (openmp_available()) {
      EXPECT_EQ(backend(), Backend::kOpenMP);
    }
  }
  EXPECT_EQ(backend(), before);
}

TEST(Backend, OpenMPFallsBackWhenUnavailable) {
  // set_backend never leaves the process in an unrunnable state.
  Backend prev = set_backend(Backend::kOpenMP);
  if (!openmp_available()) {
    EXPECT_EQ(backend(), Backend::kSerial);
  }
  set_backend(prev);
}

TEST(Backend, ThreadCountPositive) {
  EXPECT_GE(backend_threads(), 1);
}

// A throwing body inside a threaded loop: every block catches its own
// exception and the one of the lowest failing iteration is rethrown after
// the region, the error the serial loop raises. Without that the exception
// would leave the OpenMP region and terminate the process.
TEST(Backend, ThreadedLoopRaisesLowestFailingIteration) {
  constexpr Size n = 4 * kParallelGrain;
  const auto body = [](Size i) {
    if (i == 9 || i == n / 2 || i == n - 1) {
      throw VectorError("lane " + std::to_string(i));
    }
    return i;
  };
  for (const Backend b : {Backend::kSerial, Backend::kOpenMP}) {
    BackendGuard guard(b);
    try {
      detail::parallel_for(n, [&](Size i) { (void)body(i); });
      ADD_FAILURE() << "parallel_for did not throw";
    } catch (const VectorError& e) {
      EXPECT_STREQ(e.what(), "lane 9");
    }
    try {
      (void)detail::parallel_reduce(
          n, Size{0}, body, [](Size x, Size y) { return x + y; });
      ADD_FAILURE() << "parallel_reduce did not throw";
    } catch (const VectorError& e) {
      EXPECT_STREQ(e.what(), "lane 9");
    }
  }
}

TEST(Backend, ParallelReduceFoldsEveryBlock) {
  constexpr Size n = 3 * kParallelGrain + 7;
  for (const Backend b : {Backend::kSerial, Backend::kOpenMP}) {
    BackendGuard guard(b);
    EXPECT_EQ(detail::parallel_reduce(
                  n, Size{0}, [](Size i) { return i; },
                  [](Size x, Size y) { return x + y; }),
              n * (n - 1) / 2);
  }
}

TEST(Stats, AccumulateAndReset) {
  reset_stats();
  EXPECT_EQ(stats().primitive_calls, 0u);
  (void)iota(100, 0);
  (void)scan_add(iota(100, 0));
  EXPECT_GE(stats().primitive_calls, 3u);  // two iotas + one scan
  EXPECT_GE(stats().element_work, 300u);
  reset_stats();
  EXPECT_EQ(stats().element_work, 0u);
}

TEST(Vec, BoundsCheckedAccess) {
  IntVec v{1, 2, 3};
  EXPECT_EQ(v[0], 1);
  EXPECT_THROW((void)v[3], VectorError);
  EXPECT_THROW((void)v[-1], VectorError);
}

TEST(Vec, NegativeSizeThrows) {
  EXPECT_THROW((void)IntVec(Size{-1}), VectorError);
}

TEST(Vec, Printing) {
  std::ostringstream os;
  os << IntVec{1, 2} << ' ' << BoolVec{1, 0};
  EXPECT_EQ(os.str(), "[1,2] [T,F]");
}

}  // namespace
}  // namespace proteus::vl
