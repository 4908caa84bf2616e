// bench_common.hpp — shared programs and input builders for the
// reproduction benches. Every bench reports, besides wall time, the
// machine-independent cost counters the Proteus methodology is about:
//   work   — vector-model element work (vl element touches)
//   prims  — vector primitives issued (the "step" count)
//   iters  — reference-interpreter iterator body evaluations
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/proteus.hpp"
#include "core/report.hpp"

namespace proteus::bench {

inline interp::Value random_int_seq(std::uint64_t seed, int n, vl::Int lo,
                                    vl::Int hi) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vl::Int> dist(lo, hi);
  interp::ValueList elems;
  elems.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    elems.push_back(interp::Value::ints(dist(rng)));
  }
  return interp::Value::seq(std::move(elems));
}

/// Ragged collection with the given per-row lengths.
inline interp::Value ragged(std::uint64_t seed,
                            const std::vector<int>& row_lengths) {
  interp::ValueList rows;
  rows.reserve(row_lengths.size());
  for (std::size_t r = 0; r < row_lengths.size(); ++r) {
    rows.push_back(random_int_seq(seed + r, row_lengths[r], -1000, 1000));
  }
  return interp::Value::seq(std::move(rows));
}

/// Row-length profiles for the irregularity benches.
inline std::vector<int> uniform_rows(int rows, int len) {
  return std::vector<int>(static_cast<std::size_t>(rows), len);
}

inline std::vector<int> skewed_rows(std::uint64_t seed, int rows, int total) {
  // Power-law-ish skew: a few rows get most of the elements.
  std::mt19937_64 rng(seed);
  std::vector<int> lens(static_cast<std::size_t>(rows), 1);
  int remaining = total - rows;
  while (remaining > 0) {
    std::size_t r = rng() % lens.size();
    int grab = std::min<int>(remaining, 1 + static_cast<int>(rng() % 64));
    // concentrate on the first few rows half the time
    if (rng() % 2 == 0) r %= std::max<std::size_t>(1, lens.size() / 16);
    lens[r] += grab;
    remaining -= grab;
  }
  return lens;
}

inline std::vector<int> one_giant_rows(int rows, int total) {
  std::vector<int> lens(static_cast<std::size_t>(rows), 1);
  lens[0] = total - (rows - 1);
  return lens;
}

/// Attaches the cost counters of the session's last run.
inline void report_cost(::benchmark::State& state, const Session& session) {
  const RunCost& c = session.last_cost();
  state.counters["work"] =
      static_cast<double>(c.vector_work.element_work);
  state.counters["prims"] =
      static_cast<double>(c.vector_work.primitive_calls);
  state.counters["segments"] =
      static_cast<double>(c.vector_work.segment_work);
}

inline void report_interp_cost(::benchmark::State& state,
                               const Session& session) {
  state.counters["iters"] =
      static_cast<double>(session.last_cost().reference.iterations);
  state.counters["scalar_ops"] =
      static_cast<double>(session.last_cost().reference.scalar_ops);
}

inline const char* backend_name() {
  return vl::backend() == vl::Backend::kOpenMP ? "openmp" : "serial";
}

/// Times `fn` once per benchmark iteration and returns the best (minimum)
/// wall-clock nanoseconds observed — the usual noise-resistant estimator
/// for machine-readable reports.
template <class Fn>
inline std::uint64_t best_wall_ns(::benchmark::State& state, Fn&& fn) {
  std::uint64_t best = UINT64_MAX;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  return best;
}

/// Machine-readable bench output: accumulates one record per measured
/// run and, at process exit, writes a BENCH_<workload>.json file per
/// workload into the current directory:
///
///   {"bench": "<workload>", "schema": 1,
///    "runs": [{"engine": "...", "backend": "...", "n": N,
///              "wall_ns": T, "metrics": {"vl.element_work": ..., ...}},
///             ...]}
///
/// `metrics` is the session's unified per-run registry (the same names
/// `proteusc --stats=json` emits), so work / steps / per-primitive
/// counters ride along with the wall-clock numbers. A workload that runs
/// several programs names each run's program in a `"case"` field.
class JsonReporter {
 public:
  static JsonReporter& instance() {
    static JsonReporter reporter;
    return reporter;
  }

  void record(const std::string& workload, std::string_view engine,
              std::int64_t n, std::uint64_t wall_ns, const Session& session,
              std::string_view run_case = {}) {
    record(workload, engine, n, wall_ns, session.last_cost().metrics,
           run_case);
  }

  /// For benches whose unit of measurement is not a Session run (e.g.
  /// bench_serve reports the daemon's serve.* counters instead).
  void record(const std::string& workload, std::string_view engine,
              std::int64_t n, std::uint64_t wall_ns,
              const obs::MetricsRegistry& metrics,
              std::string_view run_case = {}) {
    std::ostringstream os;
    os << '{';
    if (!run_case.empty()) os << "\"case\":\"" << run_case << "\",";
    os << "\"engine\":\"" << engine << "\",\"backend\":\""
       << backend_name() << "\",\"n\":" << n << ",\"wall_ns\":" << wall_ns
       << ",\"metrics\":";
    metrics.write_json(os);
    os << '}';
    // google-benchmark re-enters the bench function while calibrating the
    // iteration count; keep only the final (longest-running) measurement
    // of each configuration.
    std::ostringstream key;
    key << run_case << '/' << engine << '/' << backend_name() << '/' << n;
    auto& runs = runs_[workload];
    for (auto& [k, json] : runs) {
      if (k == key.str()) {
        json = os.str();
        return;
      }
    }
    runs.emplace_back(key.str(), os.str());
  }

  ~JsonReporter() {
    for (const auto& [workload, runs] : runs_) {
      std::ofstream out("BENCH_" + workload + ".json");
      if (!out) continue;
      out << "{\"bench\":\"" << workload << "\",\"schema\":1,\"runs\":[";
      for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i > 0) out << ',';
        out << runs[i].second;
      }
      out << "]}\n";
    }
  }

 private:
  JsonReporter() = default;
  std::map<std::string,
           std::vector<std::pair<std::string, std::string>>> runs_;
};

}  // namespace proteus::bench
