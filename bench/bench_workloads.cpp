// bench_workloads — the end-to-end reproduction workloads (quicksort,
// quickhull, spmv) on both engines, with machine-readable output.
//
// Besides the usual google-benchmark console table, this bench writes
// BENCH_quicksort.json / BENCH_quickhull.json / BENCH_spmv.json into the
// current directory (see bench::JsonReporter in bench_common.hpp for the
// schema): per engine and backend, the best wall-clock time plus the
// unified metric registry of the run (element work, primitive steps,
// per-primitive counters). scripts/reproduce.sh relies on these files;
// CI parses and archives them.
//
// The reference interpreter runs smaller inputs than the VM —
// it evaluates per element, and the point of the record is the
// machine-independent counters next to the wall clock, not a same-n race
// (bench_sec6_quicksort covers the scaling comparison).
#include <random>

#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kQuicksortProgram = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

const char* kQuickhullProgram = R"(
  fun cross(o: (int,int), a: (int,int), b: (int,int)): int =
    (a.1 - o.1) * (b.2 - o.2) - (a.2 - o.2) * (b.1 - o.1)

  fun farthest(l: (int,int), r: (int,int), pts: seq((int,int))): (int,int) =
    let ds = [p <- pts : cross(l, r, p)] in
    let best = maxval(ds) in
    [i <- [1 .. #pts] | ds[i] == best : pts[i]][1]

  fun hullside(l: (int,int), r: (int,int), pts: seq((int,int)))
      : seq((int,int)) =
    let above = [p <- pts | cross(l, r, p) > 0 : p] in
    if #above == 0 then ([] : seq((int,int)))
    else
      let m = farthest(l, r, above) in
      let halves = [side <- [(l, m), (m, r)]
                    : hullside(side.1, side.2, above)] in
      halves[1] ++ [m] ++ halves[2]

  fun quickhull(pts: seq((int,int))): seq((int,int)) =
    let xs = [p <- pts : p.1] in
    let lx = minval(xs) in
    let rx = maxval(xs) in
    let ly = minval([p <- pts | p.1 == lx : p.2]) in
    let ry = maxval([p <- pts | p.1 == rx : p.2]) in
    let l = (lx, ly) in
    let r = (rx, ry) in
    [l] ++ hullside(l, r, pts) ++ [r] ++ hullside(r, l, pts)
)";

const char* kSpmvProgram = R"(
  fun spmv(rows: seq(seq((int, real))), x: seq(real)): seq(real) =
    [row <- rows : sum([e <- row : e.2 * x[e.1]])]
)";

interp::Value random_points(std::uint64_t seed, std::int64_t n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vl::Int> coord(-100000, 100000);
  interp::ValueList pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    pts.push_back(interp::Value::tuple({interp::Value::ints(coord(rng)),
                                        interp::Value::ints(coord(rng))}));
  }
  return interp::Value::seq(std::move(pts));
}

/// Skewed sparse matrix: each row has 1..64 nonzeros.
interp::Value random_matrix(std::uint64_t seed, std::int64_t rows, int cols) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> col(1, cols);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  interp::ValueList out;
  for (std::int64_t r = 0; r < rows; ++r) {
    int nnz = 1 << (rng() % 7);
    interp::ValueList row;
    for (int k = 0; k < nnz; ++k) {
      row.push_back(interp::Value::tuple(
          {interp::Value::ints(col(rng)), interp::Value::reals(val(rng))}));
    }
    out.push_back(interp::Value::seq(std::move(row)));
  }
  return interp::Value::seq(std::move(out));
}

interp::Value random_real_vector(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  interp::ValueList out;
  for (int i = 0; i < n; ++i) out.push_back(interp::Value::reals(val(rng)));
  return interp::Value::seq(std::move(out));
}

/// Runs `fn(args)` on `engine` ("ref" | "vm") under the
/// google-benchmark loop and records the best wall-clock time plus the
/// run's metric registry into BENCH_<workload>.json.
void run_workload(benchmark::State& state, const std::string& workload,
                  const std::string& engine, Session& session,
                  const std::string& fn, const interp::ValueList& args) {
  const std::uint64_t best = best_wall_ns(state, [&] {
    interp::Value v = engine == "ref" ? session.run_reference(fn, args)
                                      : session.run_vm(fn, args);
    benchmark::DoNotOptimize(v);
  });
  if (engine == "ref") {
    report_interp_cost(state, session);
  } else {
    report_cost(state, session);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  JsonReporter::instance().record(workload, engine, state.range(0), best,
                                  session);
}

void quicksort_bench(benchmark::State& state, const std::string& engine) {
  Session session(kQuicksortProgram);
  interp::Value input =
      random_int_seq(3, static_cast<int>(state.range(0)), 0, 1 << 30);
  run_workload(state, "quicksort", engine, session, "quicksort", {input});
}

void quickhull_bench(benchmark::State& state, const std::string& engine) {
  Session session(kQuickhullProgram);
  interp::Value pts = random_points(17, state.range(0));
  run_workload(state, "quickhull", engine, session, "quickhull", {pts});
}

void spmv_bench(benchmark::State& state, const std::string& engine) {
  Session session(kSpmvProgram);
  const int cols = 1024;
  interp::Value a = random_matrix(5, state.range(0), cols);
  interp::Value x = random_real_vector(7, cols);
  run_workload(state, "spmv", engine, session, "spmv", {a, x});
}

void BM_quicksort_ref(benchmark::State& s) { quicksort_bench(s, "ref"); }
void BM_quicksort_vm(benchmark::State& s) { quicksort_bench(s, "vm"); }
void BM_quickhull_ref(benchmark::State& s) { quickhull_bench(s, "ref"); }
void BM_quickhull_vm(benchmark::State& s) { quickhull_bench(s, "vm"); }
void BM_spmv_ref(benchmark::State& s) { spmv_bench(s, "ref"); }
void BM_spmv_vm(benchmark::State& s) { spmv_bench(s, "vm"); }

BENCHMARK(BM_quicksort_ref)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quicksort_vm)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quickhull_ref)->Arg(2000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quickhull_vm)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_spmv_ref)->Arg(512)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_spmv_vm)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
