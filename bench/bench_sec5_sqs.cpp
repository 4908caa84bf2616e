// bench_sec5_sqs — the worked example of Section 5, end to end:
//     [k <- [1..n] : sqs(k)]
// on both engines across n. The transformed program issues a *constant*
// number of vector primitives (reported as the `prims` counter) while the
// interpreter's work is per-element.
//
// Expected shape: vector execution wins by a growing factor as n grows;
// `prims` stays constant; `work` grows with the triangular output size.
#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kProgram =
    "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]";

std::string entry(std::int64_t n) {
  return "[k <- [1 .. " + std::to_string(n) + "] : sqs(k)]";
}

void BM_sqs_reference_interpreter(benchmark::State& state) {
  Session session(kProgram, entry(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_entry_reference());
  }
  report_interp_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          (state.range(0) + 1) / 2);
}

void BM_sqs_vm(benchmark::State& state) {
  Session session(kProgram, entry(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run_entry_vm());
  }
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          (state.range(0) + 1) / 2);
}

void BM_sqs_transformation_itself(benchmark::State& state) {
  // Cost of the directed transformation (parse -> check -> R1 -> R2 ->
  // 4.5 -> T1); a compile-time cost, constant in the data size.
  std::string e = entry(state.range(0));
  for (auto _ : state) {
    Session session(kProgram, e);
    benchmark::DoNotOptimize(session.compiled().vec.functions.size());
  }
}

BENCHMARK(BM_sqs_reference_interpreter)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_sqs_vm)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_sqs_transformation_itself)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
