// metrics.hpp — the flat metric sink all engines report through.
//
// A MetricsRegistry is an ordered map of dotted metric names to integer
// values ("vl.element_work", "vm.instructions", "vm.prim.plus", ...).
// The engine-specific stat structs (interp::InterpStats, vm::VMStats,
// vl::VectorStats) stay plain structs on the hot paths; after every
// Session::run_* call they are *published* into one registry under the
// unified schema of docs/OBSERVABILITY.md, so both engines — and every
// future one — report through the same names and
// the same exporters (text, JSON, and OpenMetrics).
//
// Three metric kinds:
//   counters   — set()/add(); monotonically meaningful totals.
//   gauges     — set_gauge(); point-in-time values (uptime, inflight).
//   histograms — observe(); log-bucketed distributions (obs::Histogram)
//                for latencies and sizes, with p50/p95/p99 estimation.
// The text and JSON exporters flatten each histogram into scalar
// entries (name.count/.sum/.min/.max/.p50/.p95/.p99) so existing
// consumers keep working; the OpenMetrics exporter emits real
// cumulative `_bucket{le="..."}` series for Prometheus.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace proteus::obs {

class MetricsRegistry {
 public:
  /// Transparent comparator so string_view lookups don't allocate.
  using Map = std::map<std::string, std::uint64_t, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  /// Sets counter `name` to `value` (overwrites).
  void set(std::string name, std::uint64_t value);

  /// Adds `delta` to counter `name` (creates at 0).
  void add(std::string name, std::uint64_t delta);

  /// Sets gauge `name` to `value`. Gauges share the scalar namespace
  /// with counters but export with OpenMetrics type `gauge` (no
  /// `_total` suffix).
  void set_gauge(std::string name, std::uint64_t value);

  /// Records one observation into histogram `name` (creates empty).
  void observe(std::string name, std::uint64_t value);

  /// Pre-registered handle for hot paths: creates histogram `name` (if
  /// absent) and returns a pointer the caller may observe() through
  /// directly, skipping the per-observation name lookup. Map nodes are
  /// stable, so the handle stays valid until clear(); callers provide
  /// the same synchronization they would for observe().
  [[nodiscard]] Histogram* histogram_handle(std::string name);

  /// Value of scalar `name`, or 0 when never reported.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;

  /// True when scalar `name` has been reported.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// True when `name` was reported via set_gauge.
  [[nodiscard]] bool is_gauge(std::string_view name) const;

  /// Histogram `name`, or nullptr when never observed.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] const Map& all() const { return values_; }
  [[nodiscard]] const HistogramMap& histograms() const { return histograms_; }

  [[nodiscard]] bool empty() const {
    return values_.empty() && histograms_.empty();
  }

  void clear() {
    values_.clear();
    gauge_names_.clear();
    histograms_.clear();
  }

  /// One "name value" line per metric, sorted by name. Histograms
  /// flatten to name.count/.sum/.min/.max/.p50/.p95/.p99 lines.
  void write_text(std::ostream& os) const;

  /// A flat JSON object {"name": value, ...}, sorted by name, with the
  /// same histogram flattening as write_text.
  void write_json(std::ostream& os) const;

  /// OpenMetrics text exposition (Prometheus-scrapeable): `# TYPE`
  /// lines, `_total`-suffixed counters, cumulative
  /// `_bucket{le="..."}` histogram series, terminated by `# EOF`.
  /// Dotted names mangle to underscores (see openmetrics_name).
  void write_openmetrics(std::ostream& os) const;

 private:
  Map values_;
  std::set<std::string, std::less<>> gauge_names_;
  HistogramMap histograms_;
};

/// Mangles a dotted metric name into the OpenMetrics charset
/// [a-zA-Z0-9_:]: every other byte becomes '_', and a leading digit
/// gains a '_' prefix ("serve.eval.duration_us" →
/// "serve_eval_duration_us").
[[nodiscard]] std::string openmetrics_name(std::string_view name);

}  // namespace proteus::obs
