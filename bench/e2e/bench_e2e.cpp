// bench_e2e — the proteus-e2e benchmark program (README.md).
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             --proteusd PATH --root DIR [--out FILE] [--chrome FILE]
//   bench_e2e --smoke --proteusd PATH --root DIR
//
// One run generates every request of workload NAME from the seed, checks
// each expected result with the reference interpreter, launches a real
// proteusd, and drives it over loopback TCP in a closed loop for S
// seconds. It prints `name=value unit` for every metric, writes a result
// JSON (--out) for compare.py, and ends its standard output with one
// line {"correct","attempted","failed","metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1, which splits
// the time between the served run and the in-process traced run).
//
// --smoke runs every workload briefly, twice, and checks that no request
// fails, that the replay matches the daemon, that every metric named in
// BENCHMARK.json is produced, and that the counters repeat exactly.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.hpp"
#include "serve/json.hpp"
#include "traced.hpp"
#include "vm/module_io.hpp"
#include "workloads.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace proteus::bench_e2e {
namespace {

using serve::Json;

struct Metric {
  double value = 0;
  std::string unit;
};

/// Per-request counters summed from each reply's "metrics" object.
std::vector<std::string> reply_counter_names() {
  std::vector<std::string> names = {"vm.instructions", "vm.calls",
                                    "vl.element_work", "vl.primitive_calls",
                                    "vl.segment_work", "vl.buffer_allocs"};
  for (const std::string& f : op_families()) {
    names.push_back("vm.op." + f + ".work");
  }
  return names;
}

/// Metrics of deterministic work, which must repeat exactly from run to
/// run, are the ones in these units; compare.py reads the same units.
bool is_count(const Metric& m) {
  return m.unit == "count" || m.unit == "bytes" || m.unit == "ratio";
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string proteusd;
  std::string root = ".";
  std::string out;
  std::string chrome;
  bool smoke = false;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  std::string fingerprint;
  std::vector<std::pair<std::string, std::uint64_t>> programs;  ///< path, fnv1a
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< traced-run replay drift
  std::map<std::string, Metric> metrics;
  std::vector<Prediction> predictions;
};

/// Launches a daemon and primes it with one compile per shape. Returns
/// the set-up time: spawn to the last priming reply.
double launch(const Options& opt, const Workload& w,
              std::unique_ptr<Daemon>* daemon) {
  const Clock::time_point t0 = Clock::now();
  *daemon = std::make_unique<Daemon>(opt.proteusd);
  const std::vector<std::string> lines = w.priming_lines();
  for (std::size_t s = 0; s < lines.size(); ++s) {
    const std::string reply = (*daemon)->call(0, lines[s]);
    const std::string key =
        "\"key\":\"" + vm::hash_hex(w.shapes()[s].key) + "\"";
    if (reply.find("\"ok\":true") == std::string::npos ||
        reply.find(key) == std::string::npos) {
      throw std::runtime_error("priming compile failed: " + reply);
    }
  }
  return seconds_since(t0);
}

/// Tallies of the counted cycle: the first full pass over every pool,
/// served before the measured phase. Its request set is fixed by the
/// seed alone, so its counters repeat exactly from run to run.
struct CycleTally {
  std::map<std::string, double> counters;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  double request_bytes = 0;
  double reply_bytes = 0;

  void add(const Workload& w, std::uint64_t i, std::string_view reply) {
    ++requests;
    request_bytes += static_cast<double>(w.line(i).size() - 1);
    reply_bytes += static_cast<double>(reply.size());
    const std::optional<Json> doc = serve::parse_json(reply);
    if (!doc.has_value()) return;
    if (doc->get("cached").as_bool(false)) ++hits;
    const Json& m = doc->get("metrics");
    for (const std::string& name : reply_counter_names()) {
      counters[name] += static_cast<double>(m.get(name).as_int(0));
    }
  }
};

/// Launches timed for setup_s, which is their median.
constexpr int kSetupLaunches = 21;

/// The measured phase: every reply's latency in order, cut into windows
/// of Workload::window() replies.
struct Measured {
  std::vector<double> latency_us;
  std::vector<Window> windows;
  std::vector<std::size_t> window_first;  ///< first reply of each window
  double seconds = 0;                     ///< whole phase
  double cpu_ms = 0;                      ///< whole phase

  void add(const LoopStats& loop, std::uint64_t window, double cpu) {
    for (std::size_t k = 0; k < loop.windows.size(); ++k) {
      window_first.push_back(latency_us.size() + k * window);
    }
    windows.insert(windows.end(), loop.windows.begin(), loop.windows.end());
    latency_us.insert(latency_us.end(), loop.latency_us.begin(),
                      loop.latency_us.end());
    seconds += loop.elapsed_s;
    cpu_ms += cpu;
  }
};

/// throughput_rps, latency_p50_ms and server_cpu_ms_per_req over the
/// fastest quarter of the windows (at least one; the whole phase when it
/// is shorter than a window), latency_p99_ms over every reply. Windows
/// hold equal work, so a change that slows every request slows the
/// fastest windows alike; taking them leaves out the stretches in which
/// the machine's neighbours slowed it (README.md, "Calibration").
void end_to_end_metrics(const Measured& run, std::uint64_t window,
                        std::map<std::string, Metric>* m) {
  double seconds = run.seconds;
  double cpu_ms = run.cpu_ms;
  std::vector<double> latency_us = run.latency_us;
  if (!run.windows.empty()) {
    std::vector<std::size_t> order(run.windows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return run.windows[a].seconds < run.windows[b].seconds;
    });
    order.resize(std::max<std::size_t>(1, order.size() / 4));
    seconds = 0;
    cpu_ms = 0;
    latency_us.clear();
    for (const std::size_t k : order) {
      seconds += run.windows[k].seconds;
      cpu_ms += run.windows[k].cpu_ms;
      const auto first = run.latency_us.begin() +
                         static_cast<std::ptrdiff_t>(run.window_first[k]);
      latency_us.insert(latency_us.end(), first,
                        first + static_cast<std::ptrdiff_t>(window));
    }
  }
  std::sort(latency_us.begin(), latency_us.end());
  std::vector<double> all = run.latency_us;
  std::sort(all.begin(), all.end());
  const auto replies = static_cast<double>(latency_us.size());
  (*m)["throughput_rps"] = {replies / seconds, "req/s"};
  (*m)["latency_p50_ms"] = {percentile(latency_us, 0.50) / 1000, "ms"};
  (*m)["server_cpu_ms_per_req"] = {cpu_ms / replies, "ms"};
  (*m)["latency_p99_ms"] = {percentile(all, 0.99) / 1000, "ms"};
  std::cerr << "bench_e2e: whole measured phase: " << std::fixed
            << std::setprecision(1)
            << static_cast<double>(all.size()) / run.seconds << " req/s, p50 "
            << percentile(all, 0.50) << " us, "
            << run.cpu_ms * 1000 / static_cast<double>(all.size())
            << " CPU us/req; fastest " << latency_us.size() / window << " of "
            << run.windows.size() << " windows of " << window << " replies\n";
}

RunResult run_workload(const Options& opt) {
  RunResult r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  const Clock::time_point gen0 = Clock::now();
  Workload w(opt.workload, opt.seed, opt.root);
  r.fingerprint = w.fingerprint();
  for (const ShapeData& s : w.shapes()) {
    r.programs.emplace_back(s.path, fnv1a(s.source));
  }
  std::cerr << "bench_e2e: " << w.name() << " seed " << opt.seed
            << ": generated and checked " << w.cycle() << " inputs in "
            << std::fixed << std::setprecision(2) << seconds_since(gen0)
            << " s (fingerprint " << w.fingerprint() << ")\n";

  const double e2e_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::uint64_t cap =
      w.round_cap() > 0 ? w.round_cap() : std::uint64_t{1} << 40;
  const Clock::time_point never = Clock::time_point::max();
  auto after_s = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  auto check = [&](std::uint64_t i, std::string_view reply) {
    return served_correctly(reply, w.input_of(i));
  };

  // kSetupLaunches launches time the set-up; the last also warms the
  // machine with up to a second of traffic before anything is measured.
  std::vector<std::unique_ptr<Daemon>> stopped;  // reaped on return
  std::vector<double> setups;
  for (int k = 0; k < kSetupLaunches; ++k) {
    std::unique_ptr<Daemon> d;
    setups.push_back(launch(opt, w, &d));
    if (k == kSetupLaunches - 1) {
      w.prepare(0, cap);
      const LoopStats warm = closed_loop(
          *d, w, 0, cap, after_s(std::min(1.0, opt.seconds / 20)), check);
      r.attempted += warm.sent;
      r.failed += warm.failed;
    }
    d->stop();
    stopped.push_back(std::move(d));
  }

  CycleTally tally;
  Measured measured;
  std::vector<std::vector<double>> shape_latency_us(w.shapes().size());
  double peak_rss_mb = 0;
  std::uint64_t next = 0;
  // Salted workloads serve round_cap requests per daemon, then launch a
  // fresh one; every other workload has a single round.
  for (int round = 0;; ++round) {
    w.prepare(next, w.cycle() + cap);
    std::unique_ptr<Daemon> d;
    (void)launch(opt, w, &d);

    // One full cycle first, unmeasured; round 0's is the counted one.
    const LoopStats warm = closed_loop(
        *d, w, next, w.cycle(), never,
        [&](std::uint64_t i, std::string_view reply) {
          if (round == 0) tally.add(w, i, reply);
          return check(i, reply);
        });
    r.attempted += warm.sent;
    r.failed += warm.failed;
    next += w.cycle();

    const ProcSample before = d->sample();
    const LoopStats loop =
        closed_loop(*d, w, next, cap, after_s(e2e_seconds - measured.seconds),
                    check, w.window());
    const ProcSample after = d->sample();
    d->stop();
    stopped.push_back(std::move(d));
    next += cap;

    r.attempted += loop.sent;
    r.failed += loop.failed;
    measured.add(loop, w.window(), after.cpu_ms - before.cpu_ms);
    peak_rss_mb = std::max(peak_rss_mb, after.hwm_mb);
    for (std::size_t k = 0; k < loop.request.size(); ++k) {
      shape_latency_us[loop.request[k] % w.shapes().size()].push_back(
          loop.latency_us[k]);
    }
    // Time is up.
    if (loop.sent < cap || measured.seconds >= e2e_seconds) break;
  }

  auto& m = r.metrics;
  m["setup_s"] = {median(setups), "s"};
  end_to_end_metrics(measured, w.window(), &m);
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  m["error_rate"] = {static_cast<double>(r.failed) /
                         static_cast<double>(r.attempted),
                     "ratio"};
  std::cerr << "bench_e2e: " << w.name() << ": " << measured.latency_us.size()
            << " measured requests in " << std::setprecision(2)
            << measured.seconds << " s; p50 by shape:" << std::setprecision(1);
  for (std::size_t k = 0; k < w.shapes().size(); ++k) {
    std::cerr << ' ' << w.shapes()[k].label << '='
              << median(shape_latency_us[k]) << " us";
  }
  std::cerr << '\n';

  if (opt.trace) {
    const auto n = static_cast<double>(tally.requests);
    for (const auto& [name, sum] : tally.counters) m[name] = {sum / n, "count"};
    m["serve.request_bytes"] = {tally.request_bytes / n, "bytes"};
    m["serve.reply_bytes"] = {tally.reply_bytes / n, "bytes"};
    m["serve.cache.hit_ratio"] = {static_cast<double>(tally.hits) / n, "ratio"};

    const std::string chrome =
        opt.chrome.empty() ? "bench_e2e_trace.json" : opt.chrome;
    const TracedResult traced = traced_run(
        w, opt.seconds - e2e_seconds, opt.smoke ? 2 : 200, chrome, std::cerr);
    for (const auto& [name, value] : traced.metrics) {
      // trace.overhead_ratio is a time over a time, not a count.
      m[name] = {value, name == "trace.overhead_ratio" ? "us/us" : "us"};
    }
    m["serve.transport_us"] = {
        m["latency_p50_ms"].value * 1000 - traced.handle_line_p50_us, "us"};
    r.attempted += traced.requests;
    r.failed += traced.mismatches;
    r.mismatches = traced.mismatches;
    r.predictions = traced.predictions;
    std::cerr << "bench_e2e: chrome trace written to " << chrome << "\n";
  }
  return r;
}

/// The metrics JSON object: all of them, or the `only` names (each of
/// which must exist).
Json metrics_json(const std::map<std::string, Metric>& metrics,
                  const std::vector<std::string>* only) {
  Json::Object out;
  for (const auto& [name, metric] : metrics) {
    if (only != nullptr &&
        std::find(only->begin(), only->end(), name) == only->end()) {
      continue;
    }
    Json::Object m;
    m["value"] = std::isfinite(metric.value) ? metric.value : 0.0;
    m["unit"] = metric.unit;
    out[name] = Json(std::move(m));
  }
  if (only != nullptr && out.size() != only->size()) {
    throw std::runtime_error(
        "a metric named in BENCHMARK.json was not measured");
  }
  return Json(std::move(out));
}

/// The full result file: every metric plus what compare.py needs to pair
/// runs (workload fingerprint, programs, machine).
Json result_json(const Options& opt, const RunResult& r) {
  Json::Object doc;
  doc["workload"] = r.workload;
  doc["seed"] = r.seed;
  doc["seconds"] = opt.seconds;
  doc["trace"] = opt.trace ? 1 : 0;
  doc["fingerprint"] = r.fingerprint;
  Json::Array programs;
  for (const auto& [path, hash] : r.programs) {
    Json::Object p;
    p["path"] = path;
    p["fnv1a"] = vm::hash_hex(hash);
    programs.emplace_back(std::move(p));
  }
  doc["programs"] = Json(std::move(programs));
  Json::Object env;
  env["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  env["compiler"] = __VERSION__;
  env["build_type"] = BENCH_E2E_BUILD_TYPE;
  doc["env"] = Json(std::move(env));
  doc["correct"] = r.failed == 0;
  doc["attempted"] = r.attempted;
  doc["failed"] = r.failed;
  doc["metrics"] = metrics_json(r.metrics, nullptr);
  Json::Array predictions;
  for (const Prediction& p : r.predictions) {
    Json::Object o;
    o["text"] = p.text;
    o["held"] = p.held;
    predictions.emplace_back(std::move(o));
  }
  doc["predictions"] = Json(std::move(predictions));
  return Json(std::move(doc));
}

void print_metrics(const RunResult& r) {
  for (const auto& [name, metric] : r.metrics) {
    std::cout << name << '=' << std::setprecision(10) << metric.value << ' '
              << metric.unit << '\n';
  }
}

/// BENCHMARK.json's metric names of section `key` ("end_to_end",
/// "per_layer").
std::vector<std::string> declared_metrics(const std::string& root,
                                          const std::string& key) {
  std::ifstream in(root + "/BENCHMARK.json");
  std::stringstream ss;
  ss << in.rdbuf();
  std::string error;
  const std::optional<Json> doc = serve::parse_json(ss.str(), &error);
  if (!doc.has_value()) throw std::runtime_error("BENCHMARK.json: " + error);
  std::vector<std::string> names;
  for (const Json& m : doc->get(key).as_array()) {
    names.push_back(m.get("name").as_string());
  }
  return names;
}

int smoke(Options opt) {
  const std::vector<std::string> e2e =
      declared_metrics(opt.root, "end_to_end");
  const std::vector<std::string> layers =
      declared_metrics(opt.root, "per_layer");
  bool ok = !e2e.empty() && !layers.empty();
  std::map<std::string, std::map<std::string, double>> first_counts;
  opt.seconds = 0.4;
  opt.trace = true;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& name : workload_names()) {
      opt.workload = name;
      opt.chrome = "bench_e2e_smoke_trace.json";
      const RunResult r = run_workload(opt);
      auto expect = [&](bool cond, const std::string& what) {
        if (!cond) {
          std::cerr << "bench_e2e --smoke: " << name << " pass " << pass
                    << ": " << what << "\n";
          ok = false;
        }
      };
      expect(r.failed == 0, std::to_string(r.failed) + " failed requests");
      expect(r.mismatches == 0, "replay differs from the daemon's reply");
      for (const std::string& metric : e2e) {
        expect(r.metrics.count(metric) == 1, "no end-to-end metric " + metric);
      }
      for (const std::string& metric : layers) {
        expect(r.metrics.count(metric) == 1, "no per-layer metric " + metric);
      }
      for (const auto& [metric, value] : r.metrics) {
        if (!is_count(value)) continue;
        if (pass == 0) {
          first_counts[name][metric] = value.value;
        } else {
          expect(first_counts[name][metric] == value.value,
                 "count " + metric + " differs between passes");
        }
      }
    }
  }
  std::cout << (ok ? "bench_e2e --smoke: ok" : "bench_e2e --smoke: FAILED")
            << std::endl;
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --proteusd PATH [--root DIR] [--out FILE] "
               "[--chrome FILE]\n"
               "       bench_e2e --smoke --proteusd PATH [--root DIR]\n"
               "workloads:";
  for (const std::string& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() == "1";
      } else if (arg == "--proteusd") {
        opt.proteusd = value();
      } else if (arg == "--root") {
        opt.root = value();
      } else if (arg == "--out") {
        opt.out = value();
      } else if (arg == "--chrome") {
        opt.chrome = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else {
        usage();
      }
    } catch (const std::logic_error&) {
      usage();
    }
  }
  const auto& names = workload_names();
  if (opt.proteusd.empty() || opt.seconds <= 0 ||
      (!opt.smoke &&
       std::find(names.begin(), names.end(), opt.workload) == names.end())) {
    usage();
  }
  return opt;
}

}  // namespace
}  // namespace proteus::bench_e2e

int main(int argc, char** argv) {
  using namespace proteus::bench_e2e;
  const Options opt = parse_args(argc, argv);
  try {
    if (opt.smoke) return smoke(opt);
    const RunResult r = run_workload(opt);
    print_metrics(r);
    if (!opt.out.empty()) {
      std::ofstream out(opt.out);
      out << result_json(opt, r).dump() << '\n';
      if (!out) throw std::runtime_error("cannot write " + opt.out);
    }
    Json::Object line;
    line["correct"] = r.failed == 0;
    line["attempted"] = r.attempted;
    line["failed"] = r.failed;
    // --trace 0 reports BENCHMARK.json's end-to-end metrics, --trace 1
    // its per-layer ones.
    const std::vector<std::string> declared =
        declared_metrics(opt.root, opt.trace ? "per_layer" : "end_to_end");
    line["metrics"] = metrics_json(r.metrics, &declared);
    std::cout << Json(std::move(line)).dump() << std::endl;
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
