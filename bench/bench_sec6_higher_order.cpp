// bench_sec6_higher_order — Section 6: "high-order parallel function
// application (as found in the parallel reduction of a sequence of values
// using an arbitrary function)". Also exercises the translation of
// function values, which the paper singles out as going beyond NESL/
// Paralation-Lisp flattening.
//
// A user-defined fold parameterized by a function value runs (a) at top
// level, (b) in parallel over every row of a ragged collection — the
// function value is broadcast, the fold's recursion is flattened.
#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kProgram = R"(
  fun add2(a: int, b: int): int = a + b
  fun max2(a: int, b: int): int = if a > b then a else b
  fun fold(f: (int,int) -> int, z: int, v: seq(int)): int =
    if #v == 0 then z
    else f(fold(f, z, [i <- [1 .. #v - 1] : v[i]]), v[#v])
  fun foldrows(m: seq(seq(int))): seq(int) =
    [row <- m : fold(add2, 0, row)]
  fun maxrows(m: seq(seq(int))): seq(int) =
    [row <- m : fold(max2, -1000000, row)]
  // the built-in reduction as the flat comparison point
  fun sumrows(m: seq(seq(int))): seq(int) = [row <- m : sum(row)]
)";

void BM_fold_rows_vector(benchmark::State& state) {
  Session session(kProgram);
  interp::Value m =
      ragged(3, uniform_rows(static_cast<int>(state.range(0)), 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("foldrows", {m}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0) * 16);
}

void BM_fold_rows_interp(benchmark::State& state) {
  Session session(kProgram);
  interp::Value m =
      ragged(3, uniform_rows(static_cast<int>(state.range(0)), 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_reference("foldrows", {m}));
  }
  report_interp_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0) * 16);
}

void BM_max_fold_rows_vector(benchmark::State& state) {
  Session session(kProgram);
  interp::Value m =
      ragged(5, uniform_rows(static_cast<int>(state.range(0)), 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("maxrows", {m}));
  }
  report_cost(state, session);
}

void BM_builtin_sum_rows_vector(benchmark::State& state) {
  // Section 4.5's point about enlarging the predefined set: the built-in
  // segmented reduction versus the general flattened fold.
  Session session(kProgram);
  interp::Value m =
      ragged(3, uniform_rows(static_cast<int>(state.range(0)), 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("sumrows", {m}));
  }
  report_cost(state, session);
}

BENCHMARK(BM_fold_rows_vector)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_fold_rows_interp)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_max_fold_rows_vector)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_builtin_sum_rows_vector)->RangeMultiplier(4)->Range(16, 1024);

}  // namespace

BENCHMARK_MAIN();
