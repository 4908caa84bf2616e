// bench_vm_memplan — the memory plan on the bytecode VM (-O1, warm): the
// default run, which clears the registers the plan proves dead at their
// last use, and the resident peak it leaves.
//
// Two workload families:
//
//   quicksort  — recursive divide-and-conquer, where clearing frees each
//                level's partitions at their last use instead of at the
//                frame's return;
//   fma_chain  — a flat elementwise map.
//
// Each record in BENCH_vm_memplan.json carries, besides wall time and
// the usual vl.* registry, `rt.peak_resident_bytes`: the governor's
// resident-byte watermark for the last run under death clearing.
#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "rt/rt.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

const char* kFmaChain = R"(
  fun fma_chain(v: seq(int)): seq(int) =
    [x <- v : (x * 3 + 1) * (x - 2) + x * x]
)";

/// Runs `fn(arg)` on the VM under a generous (never-tripping) budget so
/// the governor's resident watermark is exact, and records wall time and
/// the watermark.
void run_memplan(benchmark::State& state, const char* source,
                 const std::string& fn) {
  const auto n = static_cast<int>(state.range(0));
  interp::Value input = random_int_seq(11, n, 0, 1 << 30);
  Session session(source);
  rt::ExecBudget budget;
  budget.max_resident_bytes = 1ull << 32;  // governs; never trips
  session.set_budget(budget);

  const std::uint64_t best = best_wall_ns(state, [&] {
    rt::reset_peak_resident_bytes();
    interp::Value v = session.run_vm(fn, {input});
    benchmark::DoNotOptimize(v);
  });
  const std::uint64_t observed = rt::peak_resident_bytes();

  report_cost(state, session);
  state.counters["buffer_allocs"] = static_cast<double>(
      session.last_cost().vector_work.buffer_allocs);
  state.counters["peak_resident"] = static_cast<double>(observed);
  state.SetItemsProcessed(state.iterations() * state.range(0));

  obs::MetricsRegistry metrics = session.last_cost().metrics;
  metrics.set("rt.peak_resident_bytes", observed);
  JsonReporter::instance().record("vm_memplan", "vm", state.range(0), best,
                                  metrics);
}

void BM_quicksort(benchmark::State& s) {
  run_memplan(s, kQuicksort, "quicksort");
}
void BM_fma_chain(benchmark::State& s) {
  run_memplan(s, kFmaChain, "fma_chain");
}

BENCHMARK(BM_quicksort)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_fma_chain)->Arg(1000000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
