// bench_sec6_seq_overhead — Section 6, "Implications for sequential
// execution": "One of the objections often raised to the iterator
// construct is that it incurs substantial overhead in the repeated
// evaluation of the iterator body. The transformation rules suggest ...
// that by replacing the iterators with vector primitives, the overhead of
// repeated calls can be eliminated."
//
// Both engines run on ONE thread (serial backend): this isolates exactly
// the interpretation overhead the paper describes.
//
// Expected shape: the bytecode VM wins by a large constant factor
// (one type dispatch per *vector* instead of per *element*), growing
// mildly with n as boxing costs dominate the interpreter.
#include "bench_common.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;

const char* kPrograms = R"(
  fun squares(v: seq(int)): seq(int) = [x <- v : x * x]
  fun dot(a: seq(int), b: seq(int)): int =
    sum([i <- [1 .. #a] : a[i] * b[i]])
  fun filter_sum(v: seq(int)): int = sum([x <- v | x > 0 : x * 3 - 1])
  fun saxpy(a: int, x: seq(int), y: seq(int)): seq(int) =
    [i <- [1 .. #x] : a * x[i] + y[i]]
)";

class Fixture {
 public:
  explicit Fixture(std::int64_t n)
      : session(kPrograms),
        v(random_int_seq(1, static_cast<int>(n), -1000, 1000)),
        w(random_int_seq(2, static_cast<int>(n), -1000, 1000)) {}

  Session session;
  interp::Value v;
  interp::Value w;
};

void BM_squares_interp(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_reference("squares", {f.v}));
  }
  report_interp_cost(state, f.session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_squares_vector(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_vm("squares", {f.v}));
  }
  report_cost(state, f.session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_dot_interp(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_reference("dot", {f.v, f.w}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_dot_vector(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_vm("dot", {f.v, f.w}));
  }
  report_cost(state, f.session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_filter_sum_interp(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_reference("filter_sum", {f.v}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_filter_sum_vector(benchmark::State& state) {
  Fixture f(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_vm("filter_sum", {f.v}));
  }
  report_cost(state, f.session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_saxpy_interp(benchmark::State& state) {
  Fixture f(state.range(0));
  interp::Value a = interp::Value::ints(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.session.run_reference("saxpy", {a, f.v, f.w}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_saxpy_vector(benchmark::State& state) {
  Fixture f(state.range(0));
  interp::Value a = interp::Value::ints(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.session.run_vm("saxpy", {a, f.v, f.w}));
  }
  report_cost(state, f.session);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr int kLo = 1 << 8;
constexpr int kHi = 1 << 16;

BENCHMARK(BM_squares_interp)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_squares_vector)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_dot_interp)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_dot_vector)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_filter_sum_interp)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_filter_sum_vector)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_saxpy_interp)->RangeMultiplier(8)->Range(kLo, kHi);
BENCHMARK(BM_saxpy_vector)->RangeMultiplier(8)->Range(kLo, kHi);

}  // namespace

BENCHMARK_MAIN();
