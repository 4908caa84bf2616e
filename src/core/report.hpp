// report.hpp — publishing engine stats into the unified metric schema
// and rendering them for humans and machines.
//
// Schema (full list in docs/OBSERVABILITY.md):
//   ref.iterations / ref.scalar_ops / ref.steps / ref.calls
//   vm.calls / vm.instructions / vm.prim_applications / vm.prim.<name>
//   vm.op.<name>.count / vm.op.<name>.work / vm.op.<name>.ns
//   vl.primitive_calls / vl.element_work / vl.segment_work / vl.buffer_allocs
//
// Session::run_* calls publish_metrics automatically; the renderers
// back `proteusc --stats` (text) and `--stats=json`.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "core/proteus.hpp"

namespace proteus {

/// Fills cost.metrics from the engine-specific structs for a run on
/// `engine` ("ref" or "vm"). Clears previously published values.
void publish_metrics(RunCost& cost, std::string_view engine);

/// The classic human-readable "[stats] ..." lines for `engine`. Any
/// histograms published into cost.metrics render via
/// print_histograms_text.
void print_stats_text(std::ostream& os, const RunCost& cost,
                      const std::string& engine);

/// One "[stats] <name>: count=.. p50=.. p95=.. p99=.. min=.. max=.."
/// line per histogram in `metrics` (no output when there are none) —
/// how `proteusc --stats` renders its per-run wall-time distributions.
void print_histograms_text(std::ostream& os,
                           const obs::MetricsRegistry& metrics);

/// One JSON object for a run: {"engine": "...", "metrics": {...}}.
void write_run_json(std::ostream& os, const RunCost& cost,
                    std::string_view engine);

}  // namespace proteus
