// bench_fig3_fd_translation — Figure 3 / rule T1: a depth-d parallel
// extension f^d runs as extract + f^1 + insert. Measures the realized
// cost of mult^d against (a) the flat mult^1 on the same data (the T1
// overhead should be the constant-ish spine surgery) and (b) a boxed
// per-element evaluation of the same frame (the serial baseline).
//
// Expected shape: f^d cost ~= f^1 cost, independent of d; the boxed
// traversal is several times slower and degrades with depth.
#include <benchmark/benchmark.h>

#include <functional>

#include "kernels/prims.hpp"
#include "interp/value.hpp"
#include "lang/types.hpp"
#include "seq/seq.hpp"
#include "vl/vl.hpp"

namespace {

using namespace proteus;
using kernels::VValue;
using seq::Array;

constexpr std::int64_t kTop = 256;

/// A depth-d frame of ints with ~4 kTop leaves.
VValue frame_of_depth(int d) {
  return VValue::seq(seq::random_nested_ints(31, d - 1, kTop, 4));
}

void BM_mult_d_via_T1(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  VValue v = frame_of_depth(d);
  for (auto _ : state) {
    // T1: insert(mult^1(extract(v,d-1), extract(v,d-1)), v, d-1)
    VValue flat = kernels::apply_prim0(
        lang::Prim::kExtract, {v, VValue::ints(d - 1)});
    VValue squared =
        kernels::apply_prim1(lang::Prim::kMul, {flat, flat}, {1, 1});
    benchmark::DoNotOptimize(kernels::apply_prim0(
        lang::Prim::kInsert, {squared, v, VValue::ints(d - 1)}));
  }
  state.counters["leaves"] =
      static_cast<double>(v.as_seq().leaf_count());
}

void BM_mult_1_flat_baseline(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  VValue v = frame_of_depth(d);
  VValue flat =
      kernels::apply_prim0(lang::Prim::kExtract, {v, VValue::ints(d - 1)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::apply_prim1(lang::Prim::kMul, {flat, flat}, {1, 1}));
  }
}

void BM_mult_d_boxed_traversal(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  VValue v = frame_of_depth(d);
  auto type = lang::Type::seq_n(lang::Type::int_(), d);
  interp::Value boxed = kernels::to_boxed(v, type);

  // per-element recursive traversal (the serial per-element view)
  std::function<interp::Value(const interp::Value&, int)> walk =
      [&](const interp::Value& x, int depth) -> interp::Value {
    if (depth == 0) return interp::Value::ints(x.as_int() * x.as_int());
    interp::ValueList out;
    out.reserve(x.as_seq().size());
    for (const interp::Value& c : x.as_seq()) {
      out.push_back(walk(c, depth - 1));
    }
    return interp::Value::seq(std::move(out));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk(boxed, d));
  }
}

BENCHMARK(BM_mult_d_via_T1)->DenseRange(1, 5);
BENCHMARK(BM_mult_1_flat_baseline)->DenseRange(1, 5);
BENCHMARK(BM_mult_d_boxed_traversal)->DenseRange(1, 5);

}  // namespace

BENCHMARK_MAIN();
