#include "traced.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "core/proteus.hpp"
#include "core/report.hpp"
#include "kernels/vvalue.hpp"
#include "obs/log.hpp"
#include "obs/tracer.hpp"
#include "rt/governor.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "vl/backend.hpp"
#include "vm/module_io.hpp"
#include "vm/vm.hpp"

namespace proteus::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// The replayed layers, in request order; metric name = span name + "_us".
constexpr std::array<const char*, 10> kLayers = {
    "serve.json.parse", "serve.cache.lookup", "xform.compile",
    "serve.cache.insert", "core.decode", "kernels.to_flat",
    "vm.run", "kernels.to_boxed", "interp.to_text",
    "serve.json.dump"};
constexpr std::size_t kParse = 0;
constexpr std::size_t kLookup = 1;
constexpr std::size_t kCompile = 2;
constexpr std::size_t kInsert = 3;
constexpr std::size_t kDecode = 4;
constexpr std::size_t kToFlat = 5;
constexpr std::size_t kVmRun = 6;
constexpr std::size_t kToBoxed = 7;
constexpr std::size_t kToText = 8;
constexpr std::size_t kDump = 9;

constexpr std::array<vm::Op, 10> kFamilyOps = {
    vm::Op::kScalar, vm::Op::kElementwise, vm::Op::kFusedMap,
    vm::Op::kBuild,  vm::Op::kGather,      vm::Op::kPack,
    vm::Op::kReduce, vm::Op::kSegment,     vm::Op::kExtract,
    vm::Op::kInsert};

// xform::compile's own span names -> xform.phase.<name>_us.
const std::vector<std::pair<std::string, std::string>>& compile_phases() {
  static const std::vector<std::pair<std::string, std::string>> kPhases = {
      {"parse", "parse"},
      {"check", "check"},
      {"canonicalize[R1]", "canonicalize"},
      {"flatten[R2]", "flatten"},
      {"optimize", "optimize"},
      {"translate[T1]", "translate"},
      {"analyze", "analyze"},
      {"vm-assemble", "vm_assemble"},
      {"optimize-vcode", "optimize_vcode"},
      {"verify-vcode", "verify_vcode"},
      {"plan-memory", "plan_memory"}};
  return kPhases;
}

/// Runs `body` as bench-side layer `name`: the span records into `t`,
/// while the body runs with no tracer installed, so the library's own
/// spans neither enter the replay nor cost it anything.
template <class F>
auto layer(obs::Tracer& t, const char* name, F&& body) {
  std::optional<obs::Span> span;
  {
    const obs::TracerScope on(&t);
    span.emplace("bench", name);
  }
  return body();
}

/// proteusd logs one line per request at its default level (to
/// /dev/null in the benchmark); in process the lines are rendered and
/// dropped here, for the life of the scope.
class NullLog {
 public:
  NullLog() { obs::logger().configure(obs::LogLevel::kInfo, false, &os_); }
  ~NullLog() { obs::logger().configure(obs::LogLevel::kOff, false, nullptr); }
  NullLog(const NullLog&) = delete;
  NullLog& operator=(const NullLog&) = delete;

 private:
  class NullBuf : public std::streambuf {
   protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };
  NullBuf buf_;
  std::ostream os_{&buf_};
};

struct Sample {
  std::size_t shape = 0;
  double handle_line_us = 0;  ///< untraced server
  double served_us = 0;       ///< traced server
  std::array<double, kLayers.size()> layer_us{};
  std::array<double, kFamilyOps.size()> op_us{};

  [[nodiscard]] double layers_total() const {
    double sum = 0;
    for (const double v : layer_us) sum += v;
    return sum;
  }
};

/// The in-process request paths of one stretch of the run.
struct Rig {
  serve::Server plain;
  serve::Server traced;
  serve::ModuleCache cache;  ///< the replay's
};

/// Events [begin, end) of the run tracer and what produced them.
struct Slice {
  enum class Kind { kReplay, kServed } kind;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t sample = SIZE_MAX;  ///< replayed request; SIZE_MAX: priming
};

/// Server::obtain's public calls: the cache key, lookup, and on a miss
/// compile + insert.
serve::CacheEntry replay_obtain(const serve::Json& req,
                                serve::ModuleCache& cache, obs::Tracer& t,
                                std::uint64_t* key, bool* hit) {
  const std::string& source = req.get("source").as_string();
  if (req.has("key")) {
    *key = std::stoull(req.get("key").as_string(), nullptr, 16);
  } else {
    *key = vm::source_hash(source + '\x1E' + req.get("entry").as_string(),
                           vm::options_tag(true, true));
  }
  std::optional<serve::CacheEntry> entry = layer(
      t, kLayers[kLookup], [&] { return cache.lookup(*key, /*verify=*/true); });
  *hit = entry.has_value();
  if (*hit) return *entry;
  auto compiled = layer(t, kLayers[kCompile], [&] {
    xform::PipelineOptions po;
    return std::make_shared<const xform::Compiled>(
        xform::compile(source, req.get("entry").as_string(), po));
  });
  return layer(t, kLayers[kInsert], [&] {
    return cache.insert(*key, serve::CacheEntry{compiled, compiled->module});
  });
}

/// Server::do_eval's public calls. Returns the reply line it would send
/// (request_id zeroed) and the result text in *result.
std::string replay_eval(const std::string& line, serve::ModuleCache& cache,
                        obs::Tracer& t, Sample* s, std::string* result) {
  const std::optional<serve::Json> req =
      layer(t, kLayers[kParse], [&] { return serve::parse_json(line); });
  if (!req.has_value()) throw std::runtime_error("replay: bad request line");
  std::uint64_t key = 0;
  bool hit = false;
  const serve::CacheEntry entry = replay_obtain(*req, cache, t, &key, &hit);

  const std::string& fun = req->get("fun").as_string();
  const interp::ValueList args = layer(t, kLayers[kDecode], [&] {
    interp::ValueList values;
    for (const serve::Json& a : req->get("args").as_array()) {
      values.push_back(parse_value(a.as_string()));
    }
    return values;
  });
  const auto index = entry.module->fn_index.find(fun);
  const vm::Signature* sig = index == entry.module->fn_index.end()
                                 ? nullptr
                                 : entry.module->signature(index->second);
  if (sig == nullptr) throw std::runtime_error("replay: no function " + fun);

  // Session::run_vm's VM attempt, as the daemon runs it: one governor
  // scope, prims as Session sets them, no re-verification.
  RunCost cost;
  interp::Value boxed;
  {
    const rt::GovernorScope governor(rt::ExecBudget{});
    std::vector<kernels::VValue> vargs = layer(t, kLayers[kToFlat], [&] {
      std::vector<kernels::VValue> flat;
      for (std::size_t i = 0; i < args.size(); ++i) {
        flat.push_back(kernels::from_boxed(args[i], sig->params[i]));
      }
      return flat;
    });
    kernels::PrimOptions prims;
    prims.shared_source_gather =
        xform::PipelineOptions{}.flatten.broadcast_invariant_seq_args;
    vm::VM machine(entry.module,
                   {prims, /*profile=*/true, /*verify=*/false,
                    /*arena=*/false, /*admission=*/false});
    vl::reset_stats();
    const kernels::VValue out = layer(t, kLayers[kVmRun], [&] {
      return machine.call_function(fun, std::move(vargs));
    });
    cost.vm_ops = machine.stats();
    cost.vector_work = vl::stats();
    boxed = layer(t, kLayers[kToBoxed],
                  [&] { return kernels::to_boxed(out, sig->result); });
  }
  for (std::size_t f = 0; f < kFamilyOps.size(); ++f) {
    const auto op = static_cast<std::size_t>(kFamilyOps[f]);
    s->op_us[f] = static_cast<double>(cost.vm_ops.per_op[op].nanos) / 1000.0;
  }
  // The served VM runs unprofiled, so its reply carries no .ns rows.
  for (vm::OpProfile& p : cost.vm_ops.per_op) p.nanos = 0;
  publish_metrics(cost, "vm");

  *result = layer(t, kLayers[kToText], [&] { return interp::to_text(boxed); });
  serve::Json::Object reply;
  reply["ok"] = true;
  reply["key"] = vm::hash_hex(key);
  reply["cached"] = hit;
  reply["engine"] = "vm";
  reply["result"] = *result;
  serve::Json::Object metrics;
  for (const auto& [name, value] : cost.metrics.all()) metrics[name] = value;
  reply["metrics"] = serve::Json(std::move(metrics));
  reply["request_id"] = vm::hash_hex(0);
  const serve::Json doc(std::move(reply));
  return layer(t, kLayers[kDump], [&] { return doc.dump(); });
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A workload line without its '\n', as a transport hands it over.
std::string strip_newline(const std::string& line) {
  return line.substr(0, line.size() - 1);
}

void print_table(std::ostream& os, const std::string& title,
                 const std::vector<const Sample*>& rows) {
  std::vector<double> handle;
  for (const Sample* s : rows) handle.push_back(s->handle_line_us);
  const double total = mean(handle);
  os << "  " << std::left << std::setw(14) << title << std::right
     << " n=" << rows.size() << "  handle_line mean " << std::fixed
     << std::setprecision(1) << total << " us, p50 " << median(handle)
     << " us\n";
  auto row = [&](const std::string& name, double us) {
    os << "    " << std::left << std::setw(22) << name << std::right
       << std::setw(12) << std::setprecision(1) << us << " us  "
       << std::setw(6) << (total > 0 ? 100.0 * us / total : 0.0) << " %\n";
  };
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    std::vector<double> v;
    for (const Sample* s : rows) v.push_back(s->layer_us[l]);
    row(kLayers[l], mean(v));
  }
  std::vector<double> envelope;
  for (const Sample* s : rows) {
    envelope.push_back(s->handle_line_us - s->layers_total());
  }
  row("serve.envelope", mean(envelope));
}

}  // namespace

const std::vector<std::string>& op_families() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const vm::Op op : kFamilyOps) names.emplace_back(vm::op_name(op));
    return names;
  }();
  return kNames;
}

TracedResult traced_run(Workload& workload, double budget_s,
                        std::uint64_t per_shape, const std::string& chrome_path,
                        std::ostream& report) {
  const std::uint64_t shapes = workload.shapes().size();
  const std::uint64_t limit = per_shape * shapes;
  workload.prepare(0, limit);

  const NullLog null_log;
  obs::Tracer tracer;
  std::vector<Sample> samples;
  std::vector<Slice> slices;
  std::uint64_t mismatches = 0;
  std::unique_ptr<Rig> rig;

  // One request through the traced server, its spans kept as a slice.
  auto serve_traced = [&](const std::string& req, double* us) {
    Slice served{Slice::Kind::kServed, tracer.event_count()};
    std::string reply;
    {
      const obs::TracerScope on(&tracer);
      const obs::Span span("bench", "served");
      const Clock::time_point t0 = Clock::now();
      reply = rig->traced.handle_line(req);
      *us = us_since(t0);
    }
    served.end = tracer.event_count();
    slices.push_back(served);
    return reply;
  };

  auto prime = [&] {
    rig = std::make_unique<Rig>();
    for (const std::string& line : workload.priming_lines()) {
      const std::string req = strip_newline(line);
      double us = 0;
      (void)rig->plain.handle_line(req);
      (void)serve_traced(req, &us);
      Slice replayed{Slice::Kind::kReplay, tracer.event_count()};
      std::uint64_t key = 0;
      bool hit = false;
      const std::optional<serve::Json> parsed = serve::parse_json(req);
      (void)replay_obtain(*parsed, rig->cache, tracer, &key, &hit);
      replayed.end = tracer.event_count();
      slices.push_back(replayed);
    }
  };

  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (i % shapes == 0 && i > 0 && us_since(start) > budget_s * 1e6) {
      break;
    }
    // The memory tier never evicts, so salted (all-miss) traffic gets
    // fresh servers every 64 requests.
    if (rig == nullptr || (workload.salted() && i % 64 == 0)) prime();

    const std::string req = strip_newline(workload.line(i));
    const Input& input = workload.input_of(i);
    Sample s;
    s.shape = i % shapes;

    // The two servers alternate which goes first, so neither gains from
    // the other having just touched the request's data.
    std::string plain_reply;
    std::string traced_reply;
    auto serve_plain = [&] {
      const Clock::time_point t0 = Clock::now();
      plain_reply = rig->plain.handle_line(req);
      s.handle_line_us = us_since(t0);
    };
    if (i % 2 == 1) traced_reply = serve_traced(req, &s.served_us);
    serve_plain();
    if (i % 2 == 0) traced_reply = serve_traced(req, &s.served_us);

    Slice replayed{Slice::Kind::kReplay, tracer.event_count()};
    std::string result;
    std::string replay_reply;
    {
      const obs::TracerScope on(&tracer);
      const obs::Span span("bench", "replay");
      const obs::TracerScope off(nullptr);
      replay_reply = replay_eval(req, rig->cache, tracer, &s, &result);
    }
    replayed.end = tracer.event_count();
    replayed.sample = samples.size();
    slices.push_back(replayed);

    const std::optional<serve::Json> plain = serve::parse_json(plain_reply);
    const bool ok = served_correctly(plain_reply, input) &&
                    served_correctly(traced_reply, input) &&
                    plain.has_value() &&
                    plain->get("result").as_string() == result &&
                    plain_reply.size() == replay_reply.size();
    if (!ok) {
      ++mismatches;
      report << "  replay mismatch on request " << i << " ("
             << workload.shape_of(i).label << ")\n";
    }
    samples.push_back(s);
  }
  rig.reset();

  // Fold the recorded spans into per-request layers and compile phases.
  const std::vector<obs::TraceEvent> events = tracer.events();
  std::vector<double> compile_us;
  std::vector<double> insert_us;
  std::map<std::string, double> phase_total;
  std::uint64_t compiles = 0;
  for (const Slice& slice : slices) {
    for (std::size_t e = slice.begin; e < slice.end; ++e) {
      const obs::TraceEvent& ev = events[e];
      if (ev.kind != obs::TraceEvent::Kind::kSpan) continue;
      const double us = static_cast<double>(ev.dur_ns) / 1000.0;
      const std::string cat = ev.cat;
      if (slice.kind == Slice::Kind::kServed && cat == "compile") {
        if (ev.name == "compile") ++compiles;
        for (const auto& [span_name, metric] : compile_phases()) {
          if (ev.name == span_name) phase_total[metric] += us;
        }
      }
      if (slice.kind != Slice::Kind::kReplay || cat != "bench") continue;
      const auto l = std::find_if(kLayers.begin(), kLayers.end(),
                                  [&](const char* n) { return ev.name == n; });
      if (l == kLayers.end()) continue;
      const auto idx = static_cast<std::size_t>(l - kLayers.begin());
      if (idx == kCompile) compile_us.push_back(us);
      if (idx == kInsert) insert_us.push_back(us);
      if (slice.sample != SIZE_MAX) samples[slice.sample].layer_us[idx] = us;
    }
  }

  TracedResult out;
  out.requests = samples.size();
  out.mismatches = mismatches;
  auto per_request = [&](auto&& value) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(value(s));
    return v;
  };
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    if (l == kCompile || l == kInsert) continue;
    out.metrics[std::string(kLayers[l]) + "_us"] =
        mean(per_request([&](const Sample& s) { return s.layer_us[l]; }));
  }
  out.metrics["xform.compile_us"] = mean(compile_us);
  out.metrics["serve.cache.insert_us"] = mean(insert_us);
  for (const auto& [span_name, metric] : compile_phases()) {
    out.metrics["xform.phase." + metric + "_us"] =
        compiles > 0 ? phase_total[metric] / static_cast<double>(compiles) : 0;
  }
  const std::vector<double> envelope = per_request(
      [](const Sample& s) { return s.handle_line_us - s.layers_total(); });
  out.metrics["serve.envelope_us"] = mean(envelope);
  double op_total = 0;
  for (std::size_t f = 0; f < kFamilyOps.size(); ++f) {
    const double v =
        mean(per_request([&](const Sample& s) { return s.op_us[f]; }));
    out.metrics["vm.op." + op_families()[f] + ".us"] = v;
    op_total += v;
  }
  out.metrics["vm.dispatch_us"] = out.metrics["vm.run_us"] - op_total;
  const std::vector<double> handle =
      per_request([](const Sample& s) { return s.handle_line_us; });
  const std::vector<double> served =
      per_request([](const Sample& s) { return s.served_us; });
  const double handle_mean = mean(handle);
  out.metrics["trace.overhead_ratio"] =
      handle_mean > 0 ? mean(served) / handle_mean : 0;
  out.handle_line_p50_us = median(handle);

  // Where the time should go, per workload (README.md, "Predictions").
  auto share = [&](std::initializer_list<std::size_t> layers) {
    double sum = 0;
    for (const std::size_t l : layers) {
      sum += mean(per_request([&](const Sample& s) { return s.layer_us[l]; }));
    }
    return handle_mean > 0 ? sum / handle_mean : 0;
  };
  auto predict = [&](std::string text, double value, bool held) {
    std::ostringstream os;
    os << text << " (measured " << std::fixed << std::setprecision(3) << value
       << ")";
    out.predictions.push_back({os.str(), held});
  };
  const std::string& name = workload.name();
  if (name == "warm-small") {
    const double v = share({kVmRun});
    predict("vm.run < 10% of handle_line", v, v < 0.10);
  } else if (name == "bulk-io") {
    const double v = share({kDecode, kToFlat, kToBoxed, kToText, kDump});
    predict("decode+to_flat+to_boxed+to_text+dump >= 75% of handle_line", v,
            v >= 0.75);
  } else if (name == "kernels") {
    const double v = share({kVmRun});
    predict("vm.run >= 80% of handle_line", v, v >= 0.80);
  } else if (name == "cold-compile") {
    const double v = share({kCompile});
    predict("xform.compile >= 60% of handle_line", v, v >= 0.60);
  }
  const double envelope_p50 = median(envelope);
  predict("serve.envelope median >= 0 us", envelope_p50, envelope_p50 >= 0);

  report << "traced run: " << name << " (" << samples.size()
         << " requests, self time per request)\n";
  std::vector<const Sample*> all;
  for (std::size_t k = 0; k < workload.shapes().size(); ++k) {
    std::vector<const Sample*> rows;
    for (const Sample& s : samples) {
      if (s.shape == k) rows.push_back(&s);
    }
    print_table(report, workload.shapes()[k].label, rows);
  }
  for (const Sample& s : samples) all.push_back(&s);
  print_table(report, "workload", all);
  for (const Prediction& p : out.predictions) {
    report << "  prediction " << (p.held ? "held" : "FAILED") << ": " << p.text
           << "\n";
  }

  std::ofstream chrome(chrome_path);
  tracer.write_chrome_trace(chrome);
  if (!chrome) throw std::runtime_error("cannot write " + chrome_path);
  return out;
}

}  // namespace proteus::bench_e2e
