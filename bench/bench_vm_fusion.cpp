// bench_vm_fusion — VCODE superinstruction fusion (-O1) vs the unfused
// instruction stream (-O0) on the bytecode VM.
//
// Three workload families stress the optimizer from different sides:
//
//   fma_chain  — a long elementwise arithmetic chain over a flat vector
//                (the best case: one fused kernel replaces seven
//                primitive dispatches and six intermediate buffers);
//   quicksort  — recursive divide-and-conquer where only the pivot
//                compare chains fuse and most time is in permutation
//                primitives (the realistic case: fusion must help a
//                little and hurt nothing);
//   count_reachable — examples/programs/graph.p's frontier expansion,
//                whose iterators over sequences read each element
//                through an identity gather that -O1 elides, and whose
//                member^1 reads the distributed neighbour list through
//                an extension prologue gather that -O1 elides too;
//   mass       — examples/programs/mandel.p's escape-time image, whose
//                flattened recursion re-reads every frame argument of
//                escape^1 through a prologue gather each round.
//
// Both sessions compile the identical source; the only difference is
// PipelineOptions::optimize_vcode, so the wall-clock gap is pure
// optimization: saved dispatch, saved intermediate allocations (visible
// as the vl.buffer_allocs metric in BENCH_vm_fusion.json), in-place
// execution of last-use operands, and the elided gathers' element work
// (vl.element_work, the `work` counter).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

// Seven fusible primitives per element; every intermediate is dead
// after one use, so -O1 collapses the body to one kFusedMap that
// writes into the (last-use) input buffer.
const char* kFmaChain = R"(
  fun fma_chain(v: seq(int)): seq(int) =
    [x <- v : (x * 3 + 1) * (x - 2) + x * x]
)";

// The same chain applied round after round: fusion wins once per
// round, so the gap should persist (not amortise away) as work grows.
const char* kFmaRounds = R"(
  fun step(v: seq(int)): seq(int) =
    [x <- v : (x * 3 + 1) * (x - 2) + x * x]

  fun rounds(v: seq(int), k: int): seq(int) =
    if k <= 0 then v else rounds(step(v), k - 1)
)";

const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

std::string read_program(const char* relative) {
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/" + relative);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// graph.p adjacency lists: `n` vertices, each with `degree` distinct
/// out-neighbours other than itself.
interp::Value random_graph(std::uint64_t seed, int n, int degree) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vl::Int> pick(1, n);
  interp::ValueList rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (vl::Int v = 1; v <= n; ++v) {
    std::vector<vl::Int> out;
    while (static_cast<int>(out.size()) < degree) {
      const vl::Int w = pick(rng);
      if (w != v && std::find(out.begin(), out.end(), w) == out.end()) {
        out.push_back(w);
      }
    }
    interp::ValueList row;
    for (const vl::Int w : out) row.push_back(interp::Value::ints(w));
    rows.push_back(interp::Value::seq(std::move(row)));
  }
  return interp::Value::seq(std::move(rows));
}

xform::PipelineOptions options_for(bool fused) {
  xform::PipelineOptions options;
  options.optimize_vcode = fused;
  return options;
}

/// Runs `fn(args)` on the VM of a session compiled with or without the
/// VCODE optimizer and records the best wall time plus the run's metric
/// registry (vl.buffer_allocs shows the saved intermediates) into
/// BENCH_vm_fusion.json under engine "vm-O0" / "vm-O1" and case `fn`.
void run_fusion(benchmark::State& state, const std::string& source,
                bool fused, const std::string& fn,
                const interp::ValueList& args) {
  Session session(source, {}, options_for(fused));
  const std::uint64_t best = best_wall_ns(state, [&] {
    interp::Value v = session.run_vm(fn, args);
    benchmark::DoNotOptimize(v);
  });
  report_cost(state, session);
  state.counters["buffer_allocs"] = static_cast<double>(
      session.last_cost().vector_work.buffer_allocs);
  const std::uint64_t chains = session.compiled().fusion.fused_chains;
  state.counters["fused_chains"] = static_cast<double>(chains);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  obs::MetricsRegistry metrics = session.last_cost().metrics;
  metrics.set("vm.fused_chains", chains);
  JsonReporter::instance().record("vm_fusion", fused ? "vm-O1" : "vm-O0",
                                  state.range(0), best, metrics, fn);
}

void fma_chain_bench(benchmark::State& state, bool fused) {
  interp::Value input =
      random_int_seq(3, static_cast<int>(state.range(0)), -1000, 1000);
  run_fusion(state, kFmaChain, fused, "fma_chain", {input});
}

void fma_rounds_bench(benchmark::State& state, bool fused) {
  interp::Value input =
      random_int_seq(5, static_cast<int>(state.range(0)), -1000, 1000);
  interp::ValueList args = {input, interp::Value::ints(16)};
  run_fusion(state, kFmaRounds, fused, "rounds", args);
}

void quicksort_bench(benchmark::State& state, bool fused) {
  interp::Value input =
      random_int_seq(7, static_cast<int>(state.range(0)), 0, 1 << 30);
  run_fusion(state, kQuicksort, fused, "quicksort", {input});
}

void reach_bench(benchmark::State& state, bool fused) {
  const int n = static_cast<int>(state.range(0));
  interp::ValueList args = {random_graph(11, n, 4), interp::Value::ints(1)};
  run_fusion(state, read_program("examples/programs/graph.p"), fused,
             "count_reachable", args);
}

void mass_bench(benchmark::State& state, bool fused) {
  const vl::Int w = state.range(0);
  interp::ValueList args = {interp::Value::ints(w), interp::Value::ints(w / 2),
                            interp::Value::ints(64)};
  run_fusion(state, read_program("examples/programs/mandel.p"), fused, "mass",
             args);
}

void BM_fma_chain_O0(benchmark::State& s) { fma_chain_bench(s, false); }
void BM_fma_chain_O1(benchmark::State& s) { fma_chain_bench(s, true); }
void BM_fma_rounds_O0(benchmark::State& s) { fma_rounds_bench(s, false); }
void BM_fma_rounds_O1(benchmark::State& s) { fma_rounds_bench(s, true); }
void BM_quicksort_O0(benchmark::State& s) { quicksort_bench(s, false); }
void BM_quicksort_O1(benchmark::State& s) { quicksort_bench(s, true); }
void BM_count_reachable_O0(benchmark::State& s) { reach_bench(s, false); }
void BM_count_reachable_O1(benchmark::State& s) { reach_bench(s, true); }
void BM_mass_O0(benchmark::State& s) { mass_bench(s, false); }
void BM_mass_O1(benchmark::State& s) { mass_bench(s, true); }

// The acceptance bar: >= 1.5x on the elementwise chain at n = 1M+.
BENCHMARK(BM_fma_chain_O0)->RangeMultiplier(10)->Range(10000, 4000000);
BENCHMARK(BM_fma_chain_O1)->RangeMultiplier(10)->Range(10000, 4000000);
BENCHMARK(BM_fma_rounds_O0)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_fma_rounds_O1)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quicksort_O0)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quicksort_O1)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_count_reachable_O0)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_count_reachable_O1)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_mass_O0)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_mass_O1)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
