// Property tests for the count-then-compact pack family: pack, combine,
// pack_indices and seg_pack_lengths against naive references, on the
// Serial and the OpenMP backend, at lengths around the threaded grain and
// masks of every density. Besides the values, each kernel must raise the
// same VectorError text and charge the vector-model records of the
// composition it stands for (the rank scan, then the pass), so the work
// counters, step-budget traps and injected kernel faults do not depend on
// how the kernel is written or on the backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rt/fault.hpp"
#include "rt/governor.hpp"
#include "seq/build.hpp"
#include "vl/vl.hpp"

namespace proteus::vl {
namespace {

// --- naive references: one branch per lane --------------------------------

template <typename T>
Vec<T> ref_pack(const Vec<T>& v, const BoolVec& m) {
  Vec<T> out;
  for (Size i = 0; i < m.size(); ++i) {
    if (m[i] != 0) out.push_back(v[i]);
  }
  return out;
}

IntVec ref_pack_indices(const BoolVec& m) {
  IntVec out;
  for (Size i = 0; i < m.size(); ++i) {
    if (m[i] != 0) out.push_back(i);
  }
  return out;
}

template <typename T>
Vec<T> ref_combine(const BoolVec& m, const Vec<T>& t, const Vec<T>& f) {
  Vec<T> out;
  Size ti = 0;
  Size fi = 0;
  for (Size i = 0; i < m.size(); ++i) {
    out.push_back(m[i] != 0 ? t[ti++] : f[fi++]);
  }
  return out;
}

IntVec ref_seg_pack_lengths(const IntVec& lens, const BoolVec& m) {
  IntVec out;
  Size at = 0;
  for (Size s = 0; s < lens.size(); ++s) {
    Int c = 0;
    for (Int k = 0; k < lens[s]; ++k, ++at) c += m[at] != 0 ? 1 : 0;
    out.push_back(c);
  }
  return out;
}

// --- inputs ----------------------------------------------------------------

constexpr Size kGrain = kParallelGrain;
const std::vector<Size> kLengths = {0, 1, kGrain - 1, kGrain, kGrain + 1,
                                    3 * kGrain + 7};
/// Mask densities in sixteenths: all false, 1/16, 1/2, 15/16, all true.
const std::vector<int> kSixteenths = {0, 1, 8, 15, 16};

template <typename T>
Vec<T> values(std::uint64_t seed, Size n) {
  if constexpr (std::is_same_v<T, Int>) {
    return seq::random_ints(seed, n, -999, 999);
  } else if constexpr (std::is_same_v<T, Real>) {
    return to_real(seq::random_ints(seed, n, -999, 999));
  } else {
    return seq::random_mask(seed, n, 1, 2);
  }
}

/// Segment lengths 0..5 covering n lanes (empty segments included).
IntVec segments(std::uint64_t seed, Size n) {
  IntVec lens;
  Size covered = 0;
  for (const Int len : seq::random_ints(seed, n + 1, 0, 5)) {
    if (covered == n) break;
    const Int take = std::min<Int>(len, n - covered);
    lens.push_back(take);
    covered += take;
  }
  if (covered < n) lens.push_back(n - covered);
  return lens;
}

// --- running one call --------------------------------------------------------

template <typename R>
struct Outcome {
  std::optional<R> value;
  std::string error;  // VectorError text
  VectorStats stats;
};

template <typename R>
Outcome<R> measure(const std::function<R()>& op) {
  reset_stats();
  Outcome<R> out;
  try {
    out.value = op();
  } catch (const VectorError& e) {
    out.error = e.what();
  }
  out.stats = stats();
  return out;
}

/// The records the kernel must charge, in order: {elements, segments}.
struct Record {
  Size work;
  Size segments = 0;
};

/// Under a step budget the governor traps at the first record that takes
/// the running total past it; under an injected kernel fault k, at the
/// k-th record. Either way the counters at the trap are that prefix.
template <typename R>
void expect_traps_at_records(const std::function<R()>& op,
                             const std::vector<Record>& records) {
  std::uint64_t total = 0;
  std::uint64_t calls = 0;
  std::uint64_t segs = 0;
  for (const Record& r : records) {
    const std::uint64_t before = total;
    total += static_cast<std::uint64_t>(r.work);
    calls += 1;
    segs += static_cast<std::uint64_t>(r.segments);
    // The budgets either side of this record's boundary.
    for (const std::uint64_t steps : {before, total - (total > 0 ? 1 : 0)}) {
      // A budget of 0 is no budget; at or above the total nothing traps.
      if (steps == 0 || steps >= total) continue;
      reset_stats();
      rt::ExecBudget budget;
      budget.max_steps = steps;
      bool trapped = false;
      {
        rt::GovernorScope scope(budget);
        try {
          (void)op();
        } catch (const rt::RuntimeTrap&) {
          trapped = true;
        }
      }
      // An earlier record may already exceed `steps`; find the first.
      std::uint64_t run = 0;
      std::uint64_t want_calls = 0;
      for (const Record& q : records) {
        run += static_cast<std::uint64_t>(q.work);
        want_calls += 1;
        if (run > steps) break;
      }
      ASSERT_TRUE(trapped) << "step budget " << steps;
      EXPECT_EQ(stats().primitive_calls, want_calls) << "step budget " << steps;
    }
    reset_stats();
    rt::FaultPlan plan;
    plan.kernel = calls;
    rt::arm_faults(plan);
    bool trapped = false;
    try {
      (void)op();
    } catch (const rt::RuntimeTrap&) {
      trapped = true;
    }
    rt::disarm_faults();
    ASSERT_TRUE(trapped) << "kernel fault " << calls;
    EXPECT_EQ(stats().primitive_calls, calls) << "kernel fault " << calls;
    EXPECT_EQ(stats().element_work, total) << "kernel fault " << calls;
  }
  // A budget of the whole work completes.
  reset_stats();
  rt::ExecBudget budget;
  budget.max_steps = total;
  rt::GovernorScope scope(budget);
  EXPECT_NO_THROW((void)op());
  EXPECT_EQ(stats().segment_work, segs);
}

/// Runs `op` on both backends: it must return `want` (or raise `error`)
/// and charge exactly `records` on each.
template <typename R>
void expect_kernel(const std::function<R()>& op, const std::optional<R>& want,
                   const std::string& error,
                   const std::vector<Record>& records, bool sweep_traps) {
  std::uint64_t calls = 0;
  std::uint64_t work = 0;
  std::uint64_t segs = 0;
  for (const Record& r : records) {
    calls += 1;
    work += static_cast<std::uint64_t>(r.work);
    segs += static_cast<std::uint64_t>(r.segments);
  }
  for (const Backend b : {Backend::kSerial, Backend::kOpenMP}) {
    if (b == Backend::kOpenMP && !openmp_available()) continue;
    SCOPED_TRACE(b == Backend::kSerial ? "serial" : "openmp");
    BackendGuard guard(b);
    const Outcome<R> got = measure(op);
    EXPECT_EQ(got.error, error);
    EXPECT_EQ(got.value, want);
    EXPECT_EQ(got.stats.primitive_calls, calls);
    EXPECT_EQ(got.stats.element_work, work);
    EXPECT_EQ(got.stats.segment_work, segs);
    if (sweep_traps && want) expect_traps_at_records(op, records);
  }
}

std::string failed(const std::string& msg, const char* cond) {
  return msg + " [failed: " + cond + "]";
}

// --- the properties ------------------------------------------------------

template <typename T>
void check_pack_and_combine(std::uint64_t seed) {
  for (const Size n : kLengths) {
    for (const int sixteenths : kSixteenths) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(sixteenths) + "/16");
      const BoolVec m = seq::random_mask(seed, n, sixteenths, 16);
      Size trues = 0;
      for (const Bool b : m) trues += b != 0 ? 1 : 0;
      // Sweep traps on the small cases; their charge points are the same
      // at every length.
      const bool sweep = n <= kGrain + 1;

      const Vec<T> v = values<T>(seed + 1, n);
      expect_kernel<Vec<T>>([&] { return pack(v, m); }, ref_pack(v, m), "",
                            {{n}, {n}}, sweep);

      const Vec<T> t = values<T>(seed + 2, trues);
      const Vec<T> f = values<T>(seed + 3, n - trues);
      expect_kernel<Vec<T>>([&] { return combine(m, t, f); },
                            ref_combine(m, t, f), "", {{n}, {n}}, sweep);

      // The checks, with their text: lengths, #M, then the true count
      // (after the rank scan's record).
      const Vec<T> longer = values<T>(seed + 4, n + 1);
      expect_kernel<Vec<T>>(
          [&] { return pack(longer, m); }, std::nullopt,
          failed("restrict: operand lengths differ (" + std::to_string(n + 1) +
                     " vs " + std::to_string(n) + ")",
                 "a.size() == b.size()"),
          {}, false);
      expect_kernel<Vec<T>>(
          [&] { return combine(m, t, longer); }, std::nullopt,
          failed("combine: #M must equal #V + #U",
                 "mask.size() == when_true.size() + when_false.size()"),
          {}, false);
      if (trues < n) {
        const Vec<T> t1 = values<T>(seed + 5, trues + 1);
        const Vec<T> f1 = values<T>(seed + 6, n - trues - 1);
        expect_kernel<Vec<T>>(
            [&] { return combine(m, t1, f1); }, std::nullopt,
            failed("combine: mask true-count does not match #V",
                   "survivors == when_true.size()"),
            {{n}}, false);
      }
    }
  }
}

class PackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackProperty, IntLeaves) { check_pack_and_combine<Int>(GetParam()); }

TEST_P(PackProperty, RealLeaves) { check_pack_and_combine<Real>(GetParam()); }

TEST_P(PackProperty, BoolLeaves) { check_pack_and_combine<Bool>(GetParam()); }

TEST_P(PackProperty, PackIndices) {
  const std::uint64_t seed = GetParam();
  for (const Size n : kLengths) {
    for (const int sixteenths : kSixteenths) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(sixteenths) + "/16");
      const BoolVec m = seq::random_mask(seed, n, sixteenths, 16);
      // The composition: the index vector, the rank scan, the pass.
      expect_kernel<IntVec>([&] { return pack_indices(m); },
                            ref_pack_indices(m), "", {{n}, {n}, {n}},
                            n <= kGrain + 1);
    }
  }
}

TEST_P(PackProperty, SegPackLengths) {
  const std::uint64_t seed = GetParam();
  for (const Size n : kLengths) {
    for (const int sixteenths : kSixteenths) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(sixteenths) + "/16");
      const BoolVec m = seq::random_mask(seed, n, sixteenths, 16);
      const IntVec lens = segments(seed + 1, n);
      const Size nseg = lens.size();
      // The composition: the descriptor check, the 0/1 vector, the
      // segmented sum.
      expect_kernel<IntVec>([&] { return seg_pack_lengths(lens, m); },
                            ref_seg_pack_lengths(lens, m), "",
                            {{nseg, nseg}, {n}, {n, nseg}}, n <= kGrain + 1);
      IntVec over = lens;
      over.push_back(1);
      expect_kernel<IntVec>(
          [&] { return seg_pack_lengths(over, m); }, std::nullopt,
          failed("seg_pack_lengths: descriptor does not cover the vector",
                 "lengths_total(lengths) == total"),
          {{nseg + 1, nseg + 1}}, false);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackProperty,
                         ::testing::Values<std::uint64_t>(1, 2));

}  // namespace
}  // namespace proteus::vl
