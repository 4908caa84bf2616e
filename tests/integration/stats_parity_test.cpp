// stats_parity_test.cpp — the machine-independent cost counters must be
// exactly that: machine-independent. Element work, segment work, the
// per-primitive tallies and the per-opcode VM profile have to come out
// bit-identical whether the vl kernels run serially or threaded, on
// inputs big enough to actually cross kParallelGrain and take the OpenMP
// paths. Any divergence means a kernel counts work differently when it
// parallelises — exactly the bug class this guards against. The -O0 VM
// must also reproduce the primitive count and element work the tree
// executor (the project's first vector-model engine, since retired)
// recorded for the same calls: the paper's work-count claims stay pinned
// to the V program T1 emits, whichever engine runs it.
#include <cstdint>
#include <random>
#include <string>

#include "core/report.hpp"
#include "testing.hpp"
#include "vl/backend.hpp"

namespace {

using namespace proteus;
using proteus::testing::val;

const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

const char* kRowSums = R"(
  fun rowsums(m: seq(seq(int))): seq(int) =
    [row <- m : sum([x <- row : x * x])]
)";

const char* kPrefix = R"(
  fun prefix(v: seq(int)): seq(int) =
    [i <- [1 .. #v] : sum([j <- [1 .. i] : v[j]])]
)";

interp::Value random_ints(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vl::Int> dist(-1000, 1000);
  interp::ValueList out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(interp::Value::ints(dist(rng)));
  return interp::Value::seq(std::move(out));
}

interp::Value ragged_rows(std::uint64_t seed, int rows, int big_row_len) {
  interp::ValueList out;
  for (int r = 0; r < rows; ++r) {
    // One row well past kParallelGrain, the rest short: the irregular
    // case where segmented kernels split serial/threaded differently.
    const int len = r == 0 ? big_row_len : 1 + r % 7;
    out.push_back(random_ints(seed + static_cast<std::uint64_t>(r), len));
  }
  return interp::Value::seq(std::move(out));
}

/// Runs `fn(args)` on the VM under `backend` and returns the full
/// published metric registry (deterministic: vm profiling is off, so no
/// wall-clock keys appear).
obs::MetricsRegistry::Map run_metrics(Session& session, vl::Backend backend,
                                      const std::string& fn,
                                      const interp::ValueList& args) {
  vl::BackendGuard guard(backend);
  (void)session.run_vm(fn, args);
  return session.last_cost().metrics.all();
}

/// Serial/OpenMP parity at -O1 and -O0, and the -O0 run's cost against
/// the tree executor's recorded `tree_prims` / `tree_work`.
void expect_parity(const char* program, const std::string& fn,
                   const interp::ValueList& args, std::uint64_t tree_prims,
                   std::uint64_t tree_work) {
  for (const bool optimize : {true, false}) {
    xform::PipelineOptions options;
    options.optimize_vcode = optimize;
    Session session(program, {}, options);
    const char* level = optimize ? "-O1" : "-O0";
    const auto serial = run_metrics(session, vl::Backend::kSerial, fn, args);
    const auto openmp = run_metrics(session, vl::Backend::kOpenMP, fn, args);
    EXPECT_EQ(serial, openmp)
        << fn << " at " << level
        << ": cost counters differ between serial and openmp backends";
    EXPECT_GT(serial.at("vl.element_work"), 0u) << fn << " at " << level;
    if (!optimize) {
      EXPECT_EQ(serial.at("vl.primitive_calls"), tree_prims) << fn;
      EXPECT_EQ(serial.at("vl.element_work"), tree_work) << fn;
    }
  }
}

TEST(StatsParity, QuicksortSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  expect_parity(kQuicksort, "quicksort", {random_ints(3, 6000)}, 7380,
                8783532);
}

TEST(StatsParity, IrregularRowSumsSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  expect_parity(kRowSums, "rowsums", {ragged_rows(7, 64, 8192)}, 43, 153592);
}

TEST(StatsParity, NestedPrefixSumsSerialVsOpenMP) {
  if (!vl::openmp_available()) GTEST_SKIP() << "serial-only build";
  // n rows of lengths 1..n flatten to n(n+1)/2 ~ 20k elements.
  expect_parity(kPrefix, "prefix", {random_ints(11, 200)}, 16, 162400);
}

}  // namespace
