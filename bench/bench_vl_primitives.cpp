// bench_vl_primitives — per-primitive throughput of the flat vector
// library (the CVL substrate), including the segmented variants that carry
// the flattening translation. Corresponds to the primitive-level tables of
// the CVL report [BCS+90] the paper targets.
//
// Expected shape: elementwise/scan/reduce throughput is flat in n
// (bandwidth bound); segmented variants track their unsegmented
// counterparts (the whole point of the segmented representation).
//
// The BM_seq_* cases time the structural kernels of seq/ops one layer up
// (the nested gather, dist^1, dist of a sequence, restrict, combine), each
// producing n elements. Their counters are the vector-model element work
// and the output buffers allocated per call.
#include <benchmark/benchmark.h>

#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace {

using namespace proteus;
using vl::Int;
using vl::IntVec;
using vl::Size;

IntVec data(Size n) { return seq::random_ints(7, n, -1000, 1000); }

/// Segment lengths averaging 8 covering n elements.
IntVec segments(Size n) {
  IntVec lens;
  Size covered = 0;
  std::uint64_t x = 12345;
  while (covered < n) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Int len = static_cast<Int>(x >> 60);  // 0..15
    if (covered + len > n) len = n - covered;
    lens.push_back(len);
    covered += len;
  }
  return lens;
}

void BM_elementwise_add(benchmark::State& state) {
  IntVec a = data(state.range(0));
  IntVec b = data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_elementwise_select(benchmark::State& state) {
  IntVec a = data(state.range(0));
  IntVec b = data(state.range(0));
  vl::BoolVec m = seq::random_mask(3, state.range(0), 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::select(m, a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_scan_add(benchmark::State& state) {
  IntVec a = data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::scan_add(a));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_seg_scan_add(benchmark::State& state) {
  IntVec a = data(state.range(0));
  IntVec lens = segments(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::seg_scan_add(a, lens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_reduce_add(benchmark::State& state) {
  IntVec a = data(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::reduce_add(a));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_seg_reduce_add(benchmark::State& state) {
  IntVec a = data(state.range(0));
  IntVec lens = segments(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::seg_reduce_add(a, lens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_gather(benchmark::State& state) {
  IntVec a = data(state.range(0));
  IntVec idx = seq::random_ints(9, state.range(0), 0, state.range(0) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::gather(a, idx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_pack(benchmark::State& state) {
  IntVec a = data(state.range(0));
  vl::BoolVec m = seq::random_mask(5, state.range(0), 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::pack(a, m));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_combine(benchmark::State& state) {
  vl::BoolVec m = seq::random_mask(5, state.range(0), 1, 2);
  Size trues = vl::count(m);
  IntVec t = data(trues);
  IntVec f = data(state.range(0) - trues);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::combine(m, t, f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Mask density sweep: range(1) sixteenths of the lanes are true (0, 1, 8
/// and 16). The all-false and all-true masks are the predictable cases a
/// data-dependent branch handles well; 1/2 is the one it mispredicts.
void BM_pack_density(benchmark::State& state) {
  IntVec a = data(state.range(0));
  const auto sixteenths = static_cast<int>(state.range(1));
  vl::BoolVec m = seq::random_mask(5, state.range(0), sixteenths, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::pack(a, m));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_combine_density(benchmark::State& state) {
  const auto sixteenths = static_cast<int>(state.range(1));
  vl::BoolVec m = seq::random_mask(5, state.range(0), sixteenths, 16);
  Size trues = vl::count(m);
  IntVec t = data(trues);
  IntVec f = data(state.range(0) - trues);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::combine(m, t, f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_seg_iota1(benchmark::State& state) {
  IntVec lens = segments(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::seg_iota1(lens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_seg_dist(benchmark::State& state) {
  IntVec lens = segments(state.range(0));
  IntVec vals = data(lens.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vl::seg_dist(vals, lens));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// --- seq layer ---------------------------------------------------------------

/// Runs `op` once more, outside the timed loop, to report its counters.
template <typename F>
void report_counters(benchmark::State& state, F&& op) {
  vl::reset_stats();
  benchmark::DoNotOptimize(op());
  state.counters["element_work"] =
      static_cast<double>(vl::stats().element_work);
  state.counters["buffer_allocs"] =
      static_cast<double>(vl::stats().buffer_allocs);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Rows averaging 8 elements, n elements in all.
seq::Array rows(Size n) {
  return seq::Array::nested(segments(n), seq::Array::ints(data(n)));
}

void BM_seq_gather_nested(benchmark::State& state) {
  const seq::Array a = rows(state.range(0));
  const IntVec idx = seq::random_ints(9, a.length(), 0, a.length() - 1);
  auto op = [&] { return seq::gather(a, idx); };
  for (auto _ : state) benchmark::DoNotOptimize(op());
  report_counters(state, op);
}

void BM_seq_seg_broadcast(benchmark::State& state) {
  const IntVec counts = segments(state.range(0));
  const seq::Array values = seq::Array::ints(data(counts.size()));
  auto op = [&] { return seq::seg_broadcast(values, counts); };
  for (auto _ : state) benchmark::DoNotOptimize(op());
  report_counters(state, op);
}

/// dist(v, n / 256) for a sequence v of 256 Ints: materialize's path.
void BM_seq_broadcast_element(benchmark::State& state) {
  const seq::Array one =
      seq::Array::nested(IntVec{256}, seq::Array::ints(data(256)));
  const Size copies = state.range(0) / 256;
  auto op = [&] { return seq::broadcast_element(one, 0, copies); };
  for (auto _ : state) benchmark::DoNotOptimize(op());
  report_counters(state, op);
}

void BM_seq_pack(benchmark::State& state) {
  const seq::Array a = seq::Array::ints(data(state.range(0)));
  const vl::BoolVec m = seq::random_mask(5, state.range(0), 1, 2);
  auto op = [&] { return seq::pack(a, m); };
  for (auto _ : state) benchmark::DoNotOptimize(op());
  report_counters(state, op);
}

void BM_seq_combine(benchmark::State& state) {
  const vl::BoolVec m = seq::random_mask(5, state.range(0), 1, 2);
  const Size trues = vl::count(m);
  const seq::Array t = seq::Array::ints(data(trues));
  const seq::Array f = seq::Array::ints(data(state.range(0) - trues));
  auto op = [&] { return seq::combine(m, t, f); };
  for (auto _ : state) benchmark::DoNotOptimize(op());
  report_counters(state, op);
}

constexpr int kLo = 1 << 10;
constexpr int kHi = 1 << 21;

BENCHMARK(BM_elementwise_add)->Range(kLo, kHi);
BENCHMARK(BM_elementwise_select)->Range(kLo, kHi);
BENCHMARK(BM_scan_add)->Range(kLo, kHi);
BENCHMARK(BM_seg_scan_add)->Range(kLo, kHi);
BENCHMARK(BM_reduce_add)->Range(kLo, kHi);
BENCHMARK(BM_seg_reduce_add)->Range(kLo, kHi);
BENCHMARK(BM_gather)->Range(kLo, kHi);
BENCHMARK(BM_pack)->Range(kLo, kHi);
BENCHMARK(BM_combine)->Range(kLo, kHi);
BENCHMARK(BM_pack_density)->ArgsProduct({{1 << 18}, {0, 1, 8, 16}});
BENCHMARK(BM_combine_density)->ArgsProduct({{1 << 18}, {0, 1, 8, 16}});
BENCHMARK(BM_seg_iota1)->Range(kLo, kHi);
BENCHMARK(BM_seg_dist)->Range(kLo, kHi);

BENCHMARK(BM_seq_gather_nested)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_seq_seg_broadcast)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_seq_broadcast_element)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_seq_pack)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_seq_combine)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
