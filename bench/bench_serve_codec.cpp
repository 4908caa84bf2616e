// bench_serve_codec — the daemon's argument decode and result render, in
// process, on the three bulk-io shapes of bench/e2e:
//
//   sqs       sort.p  sqs(47500): a ~440 KB seq(int) result to render
//   centered  stats.p centered of 12,500 reals: ~110 KB in and ~100 KB out
//   spmv      spmv.p  448 ragged rows of (column, value) pairs (14,560
//             nonzeros) and 1,024 reals: ~250 KB in
//
// Each shape is measured on both paths, interleaved in one loop so both
// see the same machine load:
//
//   codec  kernels::decode(text, T) and kernels::encode(v, T)
//   boxed  from_boxed(parse_value(text), T) and to_text(to_boxed(v, T))
//
// BENCH_serve_codec.json holds one run per (path, shape): engine "codec"
// or "boxed", n = the shape's text bytes in plus out, wall_ns = the best
// decode + encode, and metrics codec.decode_ns / codec.encode_ns (best of
// the iterations), codec.text_in_bytes / codec.text_out_bytes and
// codec.shape (1 sqs, 2 centered, 3 spmv). The CI schema check asserts
// the codec decodes spmv in at most a third of the boxed path's time.
// This is the per-layer evidence bench/e2e's traced replay cannot give:
// that replay times the boxed calls from outside the daemon.
//
// Both paths must produce the same values and the same text; on any
// difference the bench prints it and exits 1.
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "kernels/codec.hpp"

namespace {

using namespace proteus;
using namespace proteus::bench;
using Clock = std::chrono::steady_clock;

std::string read_program(const char* relative) {
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/" + relative);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// "-1.250": the three-decimal real literals bench/e2e sends.
std::string real_lit(std::mt19937_64& rng, std::int64_t lo, std::int64_t hi) {
  const std::int64_t milli =
      std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  const std::int64_t m = milli < 0 ? -milli : milli;
  std::string s = milli < 0 ? "-" : "";
  s += std::to_string(m / 1000);
  s += '.';
  s += std::to_string(m % 1000 + 1000).substr(1);
  return s;
}

std::string real_seq(std::mt19937_64& rng, int n) {
  std::string s = "[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ',';
    s += real_lit(rng, -100000, 100000);
  }
  return s + "]";
}

/// `rows` rows whose lengths are a shuffle of 1, 2, ..., 64, 1, 2, ...
std::string sparse_rows(std::mt19937_64& rng, int rows, int cols) {
  std::vector<int> nnz(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < nnz.size(); ++i) {
    nnz[i] = static_cast<int>(i % 64) + 1;
  }
  std::shuffle(nnz.begin(), nnz.end(), rng);
  std::uniform_int_distribution<int> col(1, cols);
  std::string s = "[";
  for (std::size_t i = 0; i < nnz.size(); ++i) {
    s += i > 0 ? ",[" : "[";
    for (int k = 0; k < nnz[i]; ++k) {
      if (k > 0) s += ',';
      s += '(';
      s += std::to_string(col(rng));
      s += ',';
      s += real_lit(rng, -10000, 10000);
      s += ')';
    }
    s += ']';
  }
  return s + "]";
}

struct Shape {
  const char* name;
  int id;
  const char* program;
  const char* fun;
  std::vector<std::string> args;
};

Shape make_shape(int id) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(id));
  switch (id) {
    case 1:
      return {"sqs", id, "examples/programs/sort.p", "sqs", {"47500"}};
    case 2:
      return {"centered", id, "examples/programs/stats.p", "centered",
              {real_seq(rng, 12500)}};
    default:
      return {"spmv", id, "bench/e2e/programs/spmv.p", "spmv",
              {sparse_rows(rng, 448, 1024), real_seq(rng, 1024)}};
  }
}

[[noreturn]] void mismatch(const Shape& shape, const char* what) {
  std::fprintf(stderr, "bench_serve_codec: %s: codec and boxed %s differ\n",
               shape.name, what);
  std::exit(1);
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

void BM_serve_codec(benchmark::State& state) {
  const Shape shape = make_shape(static_cast<int>(state.range(0)));
  Session session(read_program(shape.program));
  const lang::FunDef& f = *session.compiled().checked.find(shape.fun);

  // The result to render, computed once on the VM.
  interp::ValueList boxed_args;
  for (const std::string& a : shape.args) boxed_args.push_back(parse_value(a));
  const kernels::VValue result =
      kernels::from_boxed(session.run_vm(shape.fun, boxed_args), f.result);

  std::uint64_t in_bytes = 0;
  for (const std::string& a : shape.args) in_bytes += a.size();
  std::uint64_t out_bytes = 0;
  std::uint64_t best[2][2] = {{UINT64_MAX, UINT64_MAX},
                              {UINT64_MAX, UINT64_MAX}};  // [path][op]
  for (auto _ : state) {
    std::vector<interp::Value> codec_values;
    std::string codec_text;
    for (int path = 0; path < 2; ++path) {  // 0 codec, 1 boxed
      std::vector<kernels::VValue> decoded;
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < shape.args.size(); ++i) {
        const lang::TypePtr& t = f.params[i].type;
        if (path == 0) {
          std::optional<kernels::VValue> v = kernels::decode(shape.args[i], t);
          if (!v.has_value()) mismatch(shape, "acceptance");
          decoded.push_back(std::move(*v));
        } else {
          decoded.push_back(kernels::from_boxed(parse_value(shape.args[i]), t));
        }
      }
      best[path][0] = std::min(best[path][0], ns_since(t0));

      t0 = Clock::now();
      std::string text;
      if (path == 0) {
        kernels::encode(result, f.result, text);
      } else {
        text = interp::to_text(kernels::to_boxed(result, f.result));
      }
      best[path][1] = std::min(best[path][1], ns_since(t0));

      // Both paths must agree exactly: the decoded values (compared in
      // boxed form) and the rendered text.
      std::vector<interp::Value> values;
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        values.push_back(kernels::to_boxed(decoded[i], f.params[i].type));
      }
      if (path == 0) {
        codec_values = std::move(values);
        codec_text = std::move(text);
      } else {
        if (values != codec_values) mismatch(shape, "decoded values");
        if (text != codec_text) mismatch(shape, "rendered text");
        out_bytes = text.size();
      }
    }
  }
  for (int path = 0; path < 2; ++path) {
    obs::MetricsRegistry m;
    m.set("codec.decode_ns", best[path][0]);
    m.set("codec.encode_ns", best[path][1]);
    m.set("codec.text_in_bytes", in_bytes);
    m.set("codec.text_out_bytes", out_bytes);
    m.set("codec.shape", static_cast<std::uint64_t>(shape.id));
    JsonReporter::instance().record(
        "serve_codec", path == 0 ? "codec" : "boxed",
        static_cast<std::int64_t>(in_bytes + out_bytes),
        best[path][0] + best[path][1], m);
  }
  state.counters["decode_speedup"] =
      static_cast<double>(best[1][0]) / static_cast<double>(best[0][0]);
  state.counters["encode_speedup"] =
      static_cast<double>(best[1][1]) / static_cast<double>(best[0][1]);
  state.SetLabel(shape.name);
}

// Explicit MinTime so the CI smoke-run's --benchmark_min_time=0.01 still
// takes a best-of over several iterations for the ratio check.
BENCHMARK(BM_serve_codec)
    ->DenseRange(1, 3)
    ->MinTime(0.3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
