// bench_obs_overhead — cost of the always-compiled-in instrumentation.
//
// Every kernel opcode the VM dispatches constructs an obs::Span. With no
// tracer installed that is one relaxed atomic load and a branch, so the
// *untraced* numbers here must match the pre-instrumentation baseline
// within noise (< 2% on quicksort n = 100k is the acceptance bar; compare
// BM_quicksort_vm_untraced against the same-revision-minus-obs build or
// historical bench_sec6_quicksort output). The *traced* variants show the
// real price of recording — expected to be visible, which is why tracing
// is opt-in.
//
// The serve-path variants (ISSUE 7) measure the daemon's per-request
// telemetry wrapper the same way, on a representative warm eval (a
// cached-VM quicksort of 64 ints, ~300 us of real work): "serve-notel"
// is the PR 6 request path (ServerOptions::telemetry = false),
// "serve-unsampled" is telemetry on with sampling off and logging off
// — the production default — and "serve-sampled" records a full span
// trace per request. The acceptance bar (CI-checked over
// BENCH_obs_overhead.json): serve-unsampled stays within 2% of
// serve-notel. The absolute envelope cost on a request that does
// nothing else is bench_serve's warm/warm-notel pair.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/server.hpp"

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

void quicksort_run(benchmark::State& state, bool traced) {
  Session session(kProgram);
  interp::Value input =
      random_int_seq(3, static_cast<int>(state.range(0)), 0, 1 << 30);

  obs::Tracer tracer;
  obs::MaybeTracerScope scope(traced ? &tracer : nullptr);
  if (traced) session.set_tracer(&tracer);

  for (auto _ : state) {
    // Keep the traced variant honest: don't let the event buffer grow
    // (and reallocate) across iterations.
    tracer.clear();
    benchmark::DoNotOptimize(session.run_vm("quicksort", {input}));
  }
  report_cost(state, session);
  if (traced) {
    state.counters["events"] = static_cast<double>(tracer.event_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_quicksort_vm_untraced(benchmark::State& s) {
  quicksort_run(s, false);
}
void BM_quicksort_vm_traced(benchmark::State& s) { quicksort_run(s, true); }

BENCHMARK(BM_quicksort_vm_untraced)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_quicksort_vm_traced)->Arg(100000)->Unit(benchmark::kMillisecond);

// ---- serve request path ------------------------------------------------
// One warm (cache-hit) eval request, measured through handle_line so the
// whole telemetry wrapper — request id, histograms, sampling decision —
// is inside the timed region. Logging stays off (the logger defaults to
// kOff); only the sampled variant pays for span capture.

std::string serve_eval_line(int n) {
  std::string args = "[";
  for (int i = 0; i < n; ++i) {
    args += std::to_string((i * 37) % 101);
    if (i + 1 < n) args += ",";
  }
  args += "]";
  return std::string("{\"op\":\"eval\",\"source\":") +
         serve::Json(std::string(kProgram)).dump() +
         ",\"fun\":\"quicksort\",\"args\":[" + serve::Json(args).dump() + "]}";
}

std::uint64_t timed_request(serve::Server& server, const std::string& line) {
  const auto t0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(server.handle_line(line));
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

/// The ratio-critical pair, measured alternately inside ONE benchmark
/// loop so frequency scaling and machine load hit both the same way —
/// a between-runs drift of a few percent would otherwise swamp the
/// sub-0.1% true overhead of the unsampled path and make the CI ratio
/// check meaningless. The sampled variant deliberately stays OUT of
/// this loop: its allocation-heavy span capture pollutes the cache
/// state the next variant inherits, skewing the pair.
void BM_serve_overhead_pair(benchmark::State& state) {
  const std::string line = serve_eval_line(static_cast<int>(state.range(0)));
  serve::ServerOptions notel_options;
  notel_options.telemetry = false;
  serve::Server notel(notel_options);
  serve::Server unsampled;  // telemetry on, sample rate 0, logging off
  benchmark::DoNotOptimize(notel.handle_line(line));      // prime
  benchmark::DoNotOptimize(unsampled.handle_line(line));  // prime

  std::uint64_t best_notel = UINT64_MAX;
  std::uint64_t best_unsampled = UINT64_MAX;
  bool notel_first = true;
  for (auto _ : state) {
    // ABBA ordering: alternate which variant goes first so a monotonic
    // drift (frequency ramp, thermal throttle) cancels out of the ratio.
    if (notel_first) {
      best_notel = std::min(best_notel, timed_request(notel, line));
      best_unsampled =
          std::min(best_unsampled, timed_request(unsampled, line));
    } else {
      best_unsampled =
          std::min(best_unsampled, timed_request(unsampled, line));
      best_notel = std::min(best_notel, timed_request(notel, line));
    }
    notel_first = !notel_first;
  }
  JsonReporter::instance().record("obs_overhead", "serve-notel",
                                  state.range(0), best_notel,
                                  notel.metrics());
  JsonReporter::instance().record("obs_overhead", "serve-unsampled",
                                  state.range(0), best_unsampled,
                                  unsampled.metrics());
}

/// The opt-in price: every request records a full span trace into the
/// flight-recorder ring. Not ratio-checked — expected to be visible.
void BM_serve_sampled(benchmark::State& state) {
  const std::string line = serve_eval_line(static_cast<int>(state.range(0)));
  serve::ServerOptions options;
  options.trace_sample_rate = 1.0;
  serve::Server server(options);
  benchmark::DoNotOptimize(server.handle_line(line));  // prime
  const std::uint64_t best = best_wall_ns(state, [&] {
    benchmark::DoNotOptimize(server.handle_line(line));
  });
  JsonReporter::instance().record("obs_overhead", "serve-sampled",
                                  state.range(0), best, server.metrics());
}

// Explicit MinTime: the CI smoke-run passes --benchmark_min_time=0.01,
// far too few iterations for the best-of floors of both variants to
// converge — the ratio check needs a few hundred samples each.
BENCHMARK(BM_serve_overhead_pair)
    ->Arg(64)
    ->MinTime(0.5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_serve_sampled)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
