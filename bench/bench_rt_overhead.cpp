// bench_rt_overhead — cost of the always-on execution governor.
//
// Every vl allocation charges resident bytes and every kernel charges
// element work against the governor. With no budget installed the charge
// paths are one relaxed atomic op plus a predictable branch; with a
// budget installed (but never tripped) each charge also runs the limit
// comparison. The acceptance bar: the *governed-but-untripped* quicksort
// at n = 100k must be within 3% of the ungoverned run on the VM
// (compare BM_quicksort_vm_governed against BM_quicksort_vm in the same
// invocation — same build, same input, back to back).
#include "bench_common.hpp"

#include "rt/rt.hpp"

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
)";

/// A budget loose enough that a 100k-element quicksort never comes close:
/// measures pure bookkeeping, not trap handling.
rt::ExecBudget generous_budget() {
  rt::ExecBudget b;
  b.max_resident_bytes = 1ull << 40;
  b.max_steps = 1ull << 50;
  b.max_depth = 1 << 20;
  b.deadline_ms = 0;  // no deadline: the strided clock check stays off
  return b;
}

void quicksort_run(benchmark::State& state, bool governed) {
  Session session(kProgram);
  if (governed) session.set_budget(generous_budget());
  interp::Value input =
      random_int_seq(3, static_cast<int>(state.range(0)), 0, 1 << 30);

  const std::uint64_t best = best_wall_ns(state, [&] {
    benchmark::DoNotOptimize(session.run_vm("quicksort", {input}));
  });
  report_cost(state, session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  JsonReporter::instance().record(
      "rt_overhead", governed ? "vm-governed" : "vm",
      state.range(0), best, session);
}

void BM_quicksort_vm(benchmark::State& s) { quicksort_run(s, false); }
void BM_quicksort_vm_governed(benchmark::State& s) { quicksort_run(s, true); }

BENCHMARK(BM_quicksort_vm)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quicksort_vm_governed)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
