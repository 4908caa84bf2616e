// bench_45_optimizations — ablation of the Section 4.5 vector-level
// optimizations:
//
//   (a) shared-source seq_index: a fixed sequence indexed inside an
//       iterator is gathered from one copy instead of being replicated
//       ("clearly a waste of time and space");
//   (b) shared-row gather: rule R2c's replication of a frame variable
//       through an inner iterator is removed when the variable is only a
//       seq_index source — without it, flattened divide-and-conquer is
//       QUADRATIC (measured here);
//   (c) native flatten: flatten as descriptor surgery versus the
//       user-level reduce/concat definition of Section 2.
//
// Expected shape: optimized work is O(n) / O(n log n); naive work blows up
// by the replication factor; results are identical (pinned by tests).
#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

xform::PipelineOptions naive_options() {
  xform::PipelineOptions o;
  o.flatten.broadcast_invariant_seq_args = false;
  o.shared_row_gather = false;
  return o;
}

const char* kGather = R"(
  fun rev(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[#v + 1 - i]]
)";

void BM_shared_source_gather_optimized(benchmark::State& state) {
  Session session(kGather);
  interp::Value v = random_int_seq(1, static_cast<int>(state.range(0)), 0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("rev", {v}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_shared_source_gather_replicated(benchmark::State& state) {
  Session session(kGather, {}, naive_options());
  interp::Value v = random_int_seq(1, static_cast<int>(state.range(0)), 0, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("rev", {v}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

const char* kRecursion = R"(
  fun halves(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let h = #v / 2 in
      let a = [i <- [1 .. h] : v[i]] in
      let b = [i <- [1 .. #v - h] : v[i + h]] in
      let t = [p <- [a, b] : halves(p)] in
      t[1] ++ t[2]
)";

void BM_recursion_shared_rows(benchmark::State& state) {
  Session session(kRecursion);
  interp::Value v =
      random_int_seq(2, static_cast<int>(state.range(0)), 0, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("halves", {v}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_recursion_replicated_quadratic(benchmark::State& state) {
  Session session(kRecursion, {}, naive_options());
  interp::Value v =
      random_int_seq(2, static_cast<int>(state.range(0)), 0, 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("halves", {v}));
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

const char* kFlatten = R"(
  // Section 2's user-level flatten via a recursive fold of concat ...
  fun cat2(a: seq(int), b: seq(int)): seq(int) = a ++ b
  fun user_flatten(v: seq(seq(int))): seq(int) =
    if #v == 0 then ([] : seq(int))
    else if #v == 1 then v[1]
    else cat2(user_flatten([i <- [1 .. #v - 1] : v[i]]), v[#v])
  // ... versus the native descriptor-surgery primitive (Section 4.5)
  fun native_flatten(v: seq(seq(int))): seq(int) = flatten(v)
)";

void BM_flatten_user_level(benchmark::State& state) {
  Session session(kFlatten);
  interp::Value m =
      ragged(4, uniform_rows(static_cast<int>(state.range(0)), 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("user_flatten", {m}));
  }
  report_cost(state, session);
}

void BM_flatten_native(benchmark::State& state) {
  Session session(kFlatten);
  interp::Value m =
      ragged(4, uniform_rows(static_cast<int>(state.range(0)), 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_vm("native_flatten", {m}));
  }
  report_cost(state, session);
}

BENCHMARK(BM_shared_source_gather_optimized)
    ->RangeMultiplier(4)
    ->Range(256, 16384);
BENCHMARK(BM_shared_source_gather_replicated)
    ->RangeMultiplier(4)
    ->Range(256, 4096);  // quadratic: 16K would take ~a minute
BENCHMARK(BM_recursion_shared_rows)->RangeMultiplier(4)->Range(256, 4096);
BENCHMARK(BM_recursion_replicated_quadratic)
    ->RangeMultiplier(4)
    ->Range(256, 1024);  // quadratic by construction
BENCHMARK(BM_flatten_user_level)->RangeMultiplier(4)->Range(16, 256);
BENCHMARK(BM_flatten_native)->RangeMultiplier(4)->Range(16, 256);

}  // namespace

BENCHMARK_MAIN();
