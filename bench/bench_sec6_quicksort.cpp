// bench_sec6_quicksort — Section 6: "recursive parallel computations (as
// found, for example, in parallel divide-and-conquer algorithms)".
//
// Flattened parallel quicksort across n and key distributions, on both
// engines, plus std::sort as the absolute yardstick. The shape that must
// hold: vector primitives ~ O(recursion depth); element work ~ O(n log n);
// the bytecode VM beats the per-element interpreter by a widening
// factor; sorted/equal-key inputs change depth, not correctness.
#include <algorithm>

#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kProgram = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]

  fun sortall(m: seq(seq(int))): seq(seq(int)) = [row <- m : quicksort(row)]
)";

interp::Value keys(std::int64_t n, const std::string& mode) {
  if (mode == "sorted") {
    interp::ValueList v;
    for (std::int64_t i = 0; i < n; ++i) {
      v.push_back(interp::Value::ints(i));
    }
    return interp::Value::seq(std::move(v));
  }
  if (mode == "fewkeys") {
    return random_int_seq(3, static_cast<int>(n), 0, 7);
  }
  return random_int_seq(3, static_cast<int>(n), 0, 1 << 30);
}

void quicksort_vector(benchmark::State& state, const std::string& mode) {
  Session session(kProgram);
  interp::Value input = keys(state.range(0), mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("quicksort", {input}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_quicksort_vector_random(benchmark::State& state) {
  quicksort_vector(state, "random");
}
void BM_quicksort_vector_sorted(benchmark::State& state) {
  quicksort_vector(state, "sorted");
}
void BM_quicksort_vector_fewkeys(benchmark::State& state) {
  quicksort_vector(state, "fewkeys");
}

void BM_quicksort_interp_random(benchmark::State& state) {
  Session session(kProgram);
  interp::Value input = keys(state.range(0), "random");
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_reference("quicksort", {input}));
  }
  report_interp_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_std_sort_yardstick(benchmark::State& state) {
  seq::IntVec raw =
      seq::random_ints(3, state.range(0), 0, 1 << 30);
  for (auto _ : state) {
    seq::IntVec copy = raw;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_sortall_ragged_vector(benchmark::State& state) {
  Session session(kProgram);
  interp::Value m =
      ragged(9, skewed_rows(11, 64, static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("sortall", {m}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_quicksort_vector_random)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_quicksort_vector_sorted)->RangeMultiplier(4)->Range(256, 4096);
BENCHMARK(BM_quicksort_vector_fewkeys)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_quicksort_interp_random)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_std_sort_yardstick)->RangeMultiplier(4)->Range(256, 16384);
BENCHMARK(BM_sortall_ragged_vector)->RangeMultiplier(4)->Range(1024, 16384);

}  // namespace

BENCHMARK_MAIN();
