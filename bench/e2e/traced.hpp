// traced.hpp — the in-process traced run behind `--trace 1`.
//
// On one thread, each request of the workload goes through the request
// path three times:
//
//   1. an untraced serve::Server with daemon-default options: its
//      handle_line wall time is what the layers below must add up to;
//   2. a second Server with an obs::Tracer installed, which records the
//      library's own compile-phase and per-opcode spans (and gives
//      trace.overhead_ratio);
//   3. a replay of the public calls Server::do_eval makes, each wrapped
//      in a bench-side obs::Span: parse_json -> ModuleCache::lookup
//      [-> xform::compile -> ModuleCache::insert] -> parse_value ->
//      from_boxed -> VM::call_function (profile on) -> to_boxed ->
//      interp::to_text -> Json::dump.
//
// The replay's result text and reply size must equal the served reply's,
// so the model of the request path cannot drift from it silently.
// Whatever handle_line spends beyond the replayed layers is reported as
// the serve envelope. Spans come from the benchmark's files only; the
// library is timed from outside through its public functions.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace proteus::bench_e2e {

/// The VM opcode families reported per layer (vm.op.<family>.*).
[[nodiscard]] const std::vector<std::string>& op_families();

/// One stated expectation about where a workload's time goes.
struct Prediction {
  std::string text;
  bool held = false;
};

struct TracedResult {
  /// Per-layer metric name -> value (microseconds per request, per
  /// compile for the compile layers, or a ratio).
  std::map<std::string, double> metrics;
  double handle_line_p50_us = 0;  ///< untraced in-process handle_line
  std::uint64_t requests = 0;     ///< requests replayed
  std::uint64_t mismatches = 0;   ///< wrong answers or replay drift
  std::vector<Prediction> predictions;
};

/// Runs the traced replay over requests 0, 1, ... in round-robin order
/// until every shape has `per_shape` requests, or `budget_s` has passed
/// once every shape has at least one. Writes the per-shape and
/// per-workload self-time table to `report` and the Chrome trace of the
/// whole run to `chrome_path`.
TracedResult traced_run(Workload& workload, double budget_s,
                        std::uint64_t per_shape, const std::string& chrome_path,
                        std::ostream& report);

}  // namespace proteus::bench_e2e
