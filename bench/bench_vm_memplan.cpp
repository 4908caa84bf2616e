// bench_vm_memplan — the memory plan on the bytecode VM (-O1, warm): the
// default run, which clears the registers the plan proves dead at their
// last use, against the plan's static peak bound.
//
// Two workload families bracket the analyzer:
//
//   quicksort  — recursive divide-and-conquer; its plan bound is
//                "unbounded" (recursion), so the record documents that
//                admission stays inert;
//   fma_chain  — a flat elementwise map whose plan carries a finite
//                affine peak bound, checked here against the governor's
//                observed resident-byte watermark (bound >= observed is
//                the soundness claim admission control relies on).
//
// Each record in BENCH_vm_memplan.json carries, besides wall time and
// the usual vl.* registry, three plan fields:
//
//   plan.bounded              1 if the function's peak bound is finite
//   plan.peak_bound_bytes     the bound evaluated at this run's N (0 if
//                             unbounded)
//   rt.peak_resident_bytes    the governor's watermark for the last run
//
// so the CI gate can assert bound >= observed without re-running
// anything.
#include <cstdint>
#include <string>

#include "analysis/lifetime.hpp"
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
/// the governor's resident watermark is exact, and records wall time +
/// the plan fields described above.
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

  // The function's static peak bound, evaluated at this run's input
  // scale (N = leaf scalars in the argument list = n here).
  const auto& module = *session.compiled().module;
  const auto it = module.fn_index.find(fn);
  analysis::SymBound bound = analysis::SymBound::top();
  if (module.plan != nullptr && it != module.fn_index.end()) {
    bound = module.plan->functions[it->second].peak_bytes;
  }

  report_cost(state, session);
  state.counters["buffer_allocs"] = static_cast<double>(
      session.last_cost().vector_work.buffer_allocs);
  state.counters["peak_resident"] = static_cast<double>(observed);
  state.SetItemsProcessed(state.iterations() * state.range(0));

  obs::MetricsRegistry metrics = session.last_cost().metrics;
  metrics.set("plan.bounded", bound.is_top() ? 0 : 1);
  metrics.set("plan.peak_bound_bytes",
              bound.is_top() ? 0 : bound.eval(static_cast<std::uint64_t>(n)));
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
