// bench_sec6_irregular — Section 6: "irregular parallel computations (as
// found in the parallel application of a function to each of a collection
// of sequences of different length) ... can be executed with excellent
// load-balance".
//
// The same nested computation (per-row squares-and-sum) runs over three
// row-length profiles with IDENTICAL total element counts: uniform,
// skewed, and one-giant-row. The flattened execution operates on the flat
// value vector, so its time and work must be (nearly) profile-independent
// — that flatness IS the load-balance claim, measurable even on one core.
// A per-row outer loop (the naive "parallelize the outer iterator"
// strategy) would be hostage to the longest row.
#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kProgram = R"(
  fun rowwork(m: seq(seq(int))): seq(int) =
    [row <- m : sum([x <- row : x * x + 1])]
)";

constexpr int kRows = 512;
constexpr int kTotal = 1 << 16;

void run_profile(benchmark::State& state, const std::vector<int>& lens) {
  Session session(kProgram);
  interp::Value m = ragged(33, lens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("rowwork", {m}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * kTotal);
}

void BM_uniform_rows_vector(benchmark::State& state) {
  run_profile(state, uniform_rows(kRows, kTotal / kRows));
}

void BM_skewed_rows_vector(benchmark::State& state) {
  run_profile(state, skewed_rows(5, kRows, kTotal));
}

void BM_one_giant_row_vector(benchmark::State& state) {
  run_profile(state, one_giant_rows(kRows, kTotal));
}

void run_profile_interp(benchmark::State& state,
                        const std::vector<int>& lens) {
  Session session(kProgram);
  interp::Value m = ragged(33, lens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_reference("rowwork", {m}));
  }
  report_interp_cost(state, session);
  state.SetItemsProcessed(state.iterations() * kTotal);
}

void BM_uniform_rows_interp(benchmark::State& state) {
  run_profile_interp(state, uniform_rows(kRows, kTotal / kRows));
}

void BM_skewed_rows_interp(benchmark::State& state) {
  run_profile_interp(state, skewed_rows(5, kRows, kTotal));
}

void BM_one_giant_row_interp(benchmark::State& state) {
  run_profile_interp(state, one_giant_rows(kRows, kTotal));
}

// The "longest row" metric the naive outer-parallel strategy is hostage
// to: simulated critical path = max row length (per-element work), versus
// the vector model's total/P behaviour.
void BM_critical_path_report(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.range(0));
  }
  std::vector<int> uniform = uniform_rows(kRows, kTotal / kRows);
  std::vector<int> skewed = skewed_rows(5, kRows, kTotal);
  std::vector<int> giant = one_giant_rows(kRows, kTotal);
  auto longest = [](const std::vector<int>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  state.counters["uniform_max_row"] = longest(uniform);
  state.counters["skewed_max_row"] = longest(skewed);
  state.counters["giant_max_row"] = longest(giant);
}

BENCHMARK(BM_uniform_rows_vector);
BENCHMARK(BM_skewed_rows_vector);
BENCHMARK(BM_one_giant_row_vector);
BENCHMARK(BM_uniform_rows_interp);
BENCHMARK(BM_skewed_rows_interp);
BENCHMARK(BM_one_giant_row_interp);
BENCHMARK(BM_critical_path_report)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
