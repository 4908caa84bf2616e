#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/proteus.hpp"
#include "obs/log.hpp"
#include "rt/fault.hpp"
#include "rt/trap.hpp"
#include "vm/module_io.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace proteus::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

Json error_value(const char* kind, std::string code, std::string message) {
  Json::Object e;
  e["kind"] = kind;
  if (!code.empty()) e["code"] = std::move(code);
  e["message"] = std::move(message);
  return Json(std::move(e));
}

/// Wraps an error object into a full reply.
Json error_reply(const Json& request, Json error) {
  Json::Object reply;
  if (request.has("id")) reply["id"] = request.get("id");
  reply["ok"] = false;
  reply["error"] = std::move(error);
  return Json(std::move(reply));
}

/// The request's effective budget: the server ceiling, tightened (never
/// widened) by the request's own "budget" object — a client cannot
/// out-budget the daemon it talks to. A budget that is not an object, or
/// that carries an unknown knob, sets *error instead of being silently
/// ignored: a typo ("max_depth") must not grant an unlimited run.
rt::ExecBudget effective_budget(const Json& req,
                                const rt::ExecBudget& ceiling,
                                std::string* error) {
  auto tighten = [](std::uint64_t requested, std::uint64_t max) {
    if (max == 0) return requested;
    if (requested == 0 || requested > max) return max;
    return requested;
  };
  const Json& b = req.get("budget");
  if (!b.is_null()) {
    if (!b.is_object()) {
      *error = "\"budget\" must be an object";
      return ceiling;
    }
    for (const auto& [knob, value] : b.as_object()) {
      if (knob != "bytes" && knob != "steps" && knob != "depth" &&
          knob != "deadline_ms") {
        *error = "unknown budget knob \"" + knob +
                 "\" (expected bytes, steps, depth, deadline_ms)";
        return ceiling;
      }
      if (!value.is_number()) {
        *error = "budget knob \"" + knob + "\" must be a number";
        return ceiling;
      }
    }
  }
  rt::ExecBudget out;
  out.max_resident_bytes = tighten(
      static_cast<std::uint64_t>(b.get("bytes").as_int(0)),
      ceiling.max_resident_bytes);
  out.max_steps = tighten(static_cast<std::uint64_t>(b.get("steps").as_int(0)),
                          ceiling.max_steps);
  out.max_depth = static_cast<int>(
      tighten(static_cast<std::uint64_t>(b.get("depth").as_int(0)),
              static_cast<std::uint64_t>(ceiling.max_depth)));
  out.deadline_ms =
      tighten(static_cast<std::uint64_t>(b.get("deadline_ms").as_int(0)),
              ceiling.deadline_ms);
  return out;
}

std::optional<std::uint64_t> parse_hex_key(const std::string& s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

/// Callable function names of an entry (for compile replies): the checked
/// program's functions when the source forms are present, otherwise every
/// module function that carries a serialized signature.
Json::Array callable_functions(const CacheEntry& entry) {
  Json::Array names;
  if (entry.compiled != nullptr) {
    for (const lang::FunDef& f : entry.compiled->checked.functions) {
      names.emplace_back(f.name);
    }
    return names;
  }
  for (std::uint32_t i = 0; i < entry.module->functions.size(); ++i) {
    if (entry.module->signature(i) != nullptr &&
        entry.module->functions[i].name != "__entry") {
      names.emplace_back(entry.module->functions[i].name);
    }
  }
  return names;
}

/// Flat JSON object of a registry: scalar counters/gauges plus the
/// histogram summaries under the same dotted-suffix scheme as
/// MetricsRegistry::write_json (docs/OBSERVABILITY.md).
Json metrics_object(const obs::MetricsRegistry& metrics) {
  Json::Object obj;
  for (const auto& [name, value] : metrics.all()) obj[name] = value;
  for (const auto& [name, h] : metrics.histograms()) {
    obj[name + ".count"] = h.count();
    obj[name + ".max"] = h.max();
    obj[name + ".min"] = h.min();
    obj[name + ".p50"] = h.p50();
    obj[name + ".p95"] = h.p95();
    obj[name + ".p99"] = h.p99();
    obj[name + ".sum"] = h.sum();
  }
  return Json(std::move(obj));
}

/// One recorded trace event as a Chrome trace-event object — the JSON
/// twin of Tracer::write_chrome_trace, producing serve::Json values the
/// reply can embed ("ts"/"dur" in microseconds as doubles).
Json chrome_event(const obs::TraceEvent& e) {
  Json::Object ev;
  ev["name"] = e.name;
  ev["cat"] = e.cat;
  const bool is_span = e.kind == obs::TraceEvent::Kind::kSpan;
  ev["ph"] = is_span ? "X" : "i";
  ev["pid"] = 1;
  ev["tid"] = static_cast<std::uint64_t>(e.tid);
  ev["ts"] = static_cast<double>(e.start_ns) / 1000.0;
  if (is_span) {
    ev["dur"] = static_cast<double>(e.dur_ns) / 1000.0;
  } else {
    ev["s"] = "t";
  }
  Json::Object args;
  for (const obs::Counter& c : e.counters) args[c.first] = c.second;
  if (!e.text.empty()) args["expr"] = e.text;
  ev["args"] = Json(std::move(args));
  return Json(std::move(ev));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir),
      started_(Clock::now()),
      rid_base_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())) {
  if (options_.telemetry) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    h_request_us_ = metrics_.histogram_handle("serve.request.duration_us");
    h_eval_us_ = metrics_.histogram_handle("serve.eval.duration_us");
    h_compile_us_ = metrics_.histogram_handle("serve.compile.duration_us");
    h_eval_hit_us_ = metrics_.histogram_handle("serve.eval.hit.duration_us");
    h_eval_miss_us_ = metrics_.histogram_handle("serve.eval.miss.duration_us");
  }
}

void Server::count(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.add(name, delta);
}

void Server::observe_metric(const std::string& name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.observe(name, value);
}

obs::MetricsRegistry Server::metrics() const {
  obs::MetricsRegistry snapshot;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    snapshot = metrics_;
  }
  // Gauges are stamped on the snapshot, outside the lock: point-in-time
  // values, not part of the accumulated registry.
  snapshot.set_gauge(
      "serve.uptime_seconds",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                           started_)
              .count()));
  snapshot.set_gauge("serve.requests_inflight",
                     inflight_.load(std::memory_order_relaxed));
  snapshot.set_gauge("serve.queue_depth",
                     queue_depth_.load(std::memory_order_relaxed));
  snapshot.set_gauge("serve.active_conns",
                     active_conns_.load(std::memory_order_relaxed));
  return snapshot;
}

bool Server::sampled(std::uint64_t seq) const {
  const double rate = options_.trace_sample_rate;
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Deterministic, exactly rate-proportional over any prefix: request
  // `seq` is sampled iff the integer part of seq*rate advanced.
  const double prev = std::floor(static_cast<double>(seq - 1) * rate);
  const double cur = std::floor(static_cast<double>(seq) * rate);
  return cur > prev;
}

std::string Server::handle_line(const std::string& line) {
  std::string parse_error;
  std::optional<Json> request = parse_json(line, &parse_error);
  if (!request.has_value()) {
    count("serve.requests");
    count("serve.errors.parse");
    Json reply = error_reply(Json(), error_value("parse", "", parse_error));
    if (options_.telemetry) {
      const std::uint64_t seq =
          seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::string request_id =
          vm::hash_hex(rid_base_ ^ (seq * 0x9E3779B97F4A7C15ULL));
      if (Json::Object* obj = reply.if_object()) {
        (*obj)["request_id"] = request_id;
      }
      if (obs::log_enabled(obs::LogLevel::kWarn)) {
        obs::log(obs::LogLevel::kWarn, "serve.request",
                 {{"request_id", request_id},
                  {"op", "(parse)"},
                  {"ok", std::uint64_t{0}},
                  {"error_kind", "parse"},
                  {"message", parse_error}});
      }
    }
    return reply.dump();
  }
  return handle_request(*request).dump();
}

Json Server::handle_request(const Json& request) {
  count("serve.requests");
  if (!options_.telemetry) return dispatch_op(request);

  // The telemetry envelope: a request id, the inflight gauge, the
  // duration histograms, one log line, and — for sampled requests — a
  // per-request tracer installed as this thread's sink so concurrent
  // workers never interleave spans.
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string request_id =
      vm::hash_hex(rid_base_ ^ (seq * 0x9E3779B97F4A7C15ULL));
  const std::string& op = request.get("op").as_string();

  struct InflightGuard {
    std::atomic<std::uint64_t>& gauge;
    explicit InflightGuard(std::atomic<std::uint64_t>& g) : gauge(g) {
      gauge.fetch_add(1, std::memory_order_relaxed);
    }
    ~InflightGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard(inflight_);

  const Clock::time_point start = Clock::now();
  if (sampled(seq)) {
    obs::Tracer request_tracer;
    const obs::ThreadTracerScope scope(&request_tracer);
    Json reply = dispatch_op(request);
    return finish_request(request, std::move(reply), request_id, op,
                          elapsed_ns(start) / 1000, &request_tracer);
  }
  Json reply = dispatch_op(request);
  return finish_request(request, std::move(reply), request_id, op,
                        elapsed_ns(start) / 1000, nullptr);
}

Json Server::finish_request(const Json& request, Json reply,
                            const std::string& request_id,
                            const std::string& op, std::uint64_t duration_us,
                            obs::Tracer* request_tracer) {
  if (Json::Object* obj = reply.if_object()) {
    (*obj)["request_id"] = request_id;
  }

  const bool ok = reply.get("ok").as_bool(false);
  const bool cached = reply.get("cached").as_bool(false);
  {
    // One lock acquisition for all of this request's observations,
    // through the handles pre-registered at construction — the
    // unsampled fast path pays a lock and a few array increments, not
    // name lookups or string temporaries.
    std::lock_guard<std::mutex> lock(metrics_mu_);
    h_request_us_->observe(duration_us);
    if (op == "eval") {
      h_eval_us_->observe(duration_us);
      if (ok) {
        (cached ? h_eval_hit_us_ : h_eval_miss_us_)->observe(duration_us);
      }
    } else if (op == "compile") {
      h_compile_us_->observe(duration_us);
    }
  }

  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    std::vector<obs::LogField> fields;
    fields.reserve(8);
    fields.emplace_back("request_id", request_id);
    fields.emplace_back("op", op);
    fields.emplace_back("ok", static_cast<std::uint64_t>(ok ? 1 : 0));
    fields.emplace_back("duration_us", duration_us);
    if (op == "eval" || op == "compile") {
      fields.emplace_back("cache", cached ? "hit" : "miss");
    }
    if (reply.has("engine")) {
      fields.emplace_back("engine", reply.get("engine").as_string());
    }
    if (!ok) {
      const Json& error = reply.get("error");
      fields.emplace_back("error_kind", error.get("kind").as_string());
      const std::string& code = error.get("code").as_string();
      if (!code.empty()) fields.emplace_back("error_code", code);
    }
    if (request_tracer != nullptr) fields.emplace_back("sampled", "true");
    obs::log(obs::LogLevel::kInfo, "serve.request", fields);
  }

  if (request_tracer != nullptr && options_.trace_ring_capacity > 0) {
    RequestTrace trace;
    trace.request_id = request_id;
    trace.op = op;
    trace.duration_us = duration_us;
    trace.events = request_tracer->events();
    std::uint64_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(trace_mu_);
      trace_ring_.push_back(std::move(trace));
      while (trace_ring_.size() > options_.trace_ring_capacity) {
        trace_ring_.pop_front();
        ++dropped;
      }
    }
    count("serve.trace.sampled");
    if (dropped > 0) count("serve.trace.dropped", dropped);
  }

  (void)request;
  return reply;
}

Json Server::dispatch_op(const Json& request) {
  const std::string& op = request.get("op").as_string();
  if (op == "ping") {
    Json::Object reply;
    if (request.has("id")) reply["id"] = request.get("id");
    reply["ok"] = true;
    reply["pong"] = true;
    return Json(std::move(reply));
  }
  if (op == "compile") return do_compile(request);
  if (op == "eval") return do_eval(request);
  if (op == "metrics") return do_metrics(request);
  if (op == "trace") return do_trace(request);
  if (op == "health") return do_health(request);
  if (op == "shutdown") {
    request_stop();
    Json::Object reply;
    if (request.has("id")) reply["id"] = request.get("id");
    reply["ok"] = true;
    reply["stopping"] = true;
    return Json(std::move(reply));
  }
  count("serve.errors.bad_request");
  return error_reply(request,
                     error_value("bad_request", "",
                                 "unknown op '" + op +
                                     "' (expected ping/compile/eval/"
                                     "metrics/trace/health/shutdown)"));
}

Json Server::do_health(const Json& req) {
  Json::Object reply;
  if (req.has("id")) reply["id"] = req.get("id");
  reply["ok"] = true;
  const char* status = "ok";
  if (stopping()) {
    status = "stopping";
  } else if (draining()) {
    status = "draining";
  }
  reply["status"] = status;
  reply["draining"] = draining();
  reply["uptime_seconds"] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(Clock::now() - started_)
          .count());
  reply["queue_depth"] = queue_depth_.load(std::memory_order_relaxed);
  reply["active_conns"] = active_conns_.load(std::memory_order_relaxed);
  reply["inflight"] = inflight_.load(std::memory_order_relaxed);
  reply["cache_entries"] = static_cast<std::uint64_t>(cache_.size());
  return Json(std::move(reply));
}

void Server::begin_drain() {
  int expected = static_cast<int>(Lifecycle::kRunning);
  if (!lifecycle_.compare_exchange_strong(
          expected, static_cast<int>(Lifecycle::kDraining),
          std::memory_order_acq_rel)) {
    return;  // already draining or stopping
  }
  const std::int64_t grace_ms =
      options_.drain_ms > 0 ? static_cast<std::int64_t>(options_.drain_ms) : 0;
  drain_deadline_ns_.store(now_ns() + grace_ms * 1'000'000,
                           std::memory_order_release);
  count("serve.drain.begun");
}

int Server::drain_remaining_ms() const {
  if (!draining()) return -1;
  const std::int64_t deadline =
      drain_deadline_ns_.load(std::memory_order_acquire);
  const std::int64_t left_ns = deadline - now_ns();
  if (left_ns <= 0) return 0;
  return static_cast<int>(
      std::min<std::int64_t>(left_ns / 1'000'000 + 1, INT_MAX));
}

void Server::poll_external_shutdown() {
  const volatile std::sig_atomic_t* flag = options_.shutdown_flag;
  if (flag != nullptr && *flag != 0) begin_drain();
}

std::optional<CacheEntry> Server::obtain(const Json& req, std::uint64_t* key,
                                         bool* cache_hit, Json* error) {
  *cache_hit = false;
  const bool has_source = req.get("source").is_string();
  const std::string& source = req.get("source").as_string();
  const std::string& entry_expr = req.get("entry").as_string();

  if (req.has("key")) {
    std::optional<std::uint64_t> parsed =
        parse_hex_key(req.get("key").as_string());
    if (!parsed.has_value()) {
      *error = error_value("bad_request", "",
                           "\"key\" must be 16 lowercase hex digits");
      return std::nullopt;
    }
    *key = *parsed;
  } else if (has_source) {
    // The entry expression compiles with the program, so it is part of
    // the identity of the compilation.
    *key = vm::module_key(source, entry_expr, options_.optimize,
                          options_.verify);
  } else {
    *error = error_value("bad_request", "",
                         "request needs \"source\" or \"key\"");
    return std::nullopt;
  }

  if (std::optional<CacheEntry> hit = cache_.lookup(*key, options_.verify)) {
    *cache_hit = true;
    count("serve.cache.hit");
    return hit;
  }
  count("serve.cache.miss");
  if (!has_source) {
    *error = error_value(
        "unknown_key", "",
        "key " + vm::hash_hex(*key) +
            " is not cached here; resend with \"source\"");
    return std::nullopt;
  }

  const Clock::time_point start = Clock::now();
  try {
    xform::PipelineOptions po;
    po.optimize_vcode = options_.optimize;
    po.verify_vcode = options_.verify;
    auto compiled = std::make_shared<const xform::Compiled>(
        xform::compile(source, entry_expr, po));
    count("serve.compile.count");
    count("serve.compile.wall_ns", elapsed_ns(start));
    return cache_.insert(*key, CacheEntry{compiled, compiled->module});
  } catch (const analysis::AnalysisError& e) {
    std::string code;
    for (const analysis::Diagnostic& d : e.report().diagnostics()) {
      if (d.severity == analysis::Severity::kError) {
        code = d.code;
        break;
      }
    }
    *error = error_value("compile", code, e.what());
  } catch (const rt::RuntimeTrap& trap) {
    // A compile-time trap (e.g. a deadline inherited from an enclosing
    // scope) that the -O0 fallback could not absorb.
    count(std::string("serve.trap.") + trap.code());
    *error = error_value("trap", trap.code(), trap.what());
  } catch (const Error& e) {
    *error = error_value("compile", "", e.what());
  }
  count("serve.errors.compile");
  return std::nullopt;
}

Json Server::do_compile(const Json& req) {
  std::uint64_t key = 0;
  bool cache_hit = false;
  Json error;
  std::optional<CacheEntry> entry = obtain(req, &key, &cache_hit, &error);
  if (!entry.has_value()) return error_reply(req, std::move(error));

  Json::Object reply;
  if (req.has("id")) reply["id"] = req.get("id");
  reply["ok"] = true;
  reply["key"] = vm::hash_hex(key);
  reply["cached"] = cache_hit;
  reply["functions"] = callable_functions(*entry);
  if (entry->compiled != nullptr && !entry->compiled->compile_fallbacks.empty()) {
    Json::Array fallbacks;
    for (const std::string& f : entry->compiled->compile_fallbacks) {
      fallbacks.emplace_back(f);
    }
    reply["compile_fallbacks"] = std::move(fallbacks);
  }
  return Json(std::move(reply));
}

Json Server::do_eval(const Json& req) {
  const Clock::time_point start = Clock::now();
  std::uint64_t key = 0;
  bool cache_hit = false;
  Json error;
  std::optional<CacheEntry> entry = obtain(req, &key, &cache_hit, &error);
  if (!entry.has_value()) return error_reply(req, std::move(error));

  const bool has_fun = req.get("fun").is_string();
  const std::string& fun = req.get("fun").as_string();
  if (!has_fun && !req.get("entry").is_string() &&
      entry->module->entry < 0) {
    count("serve.errors.bad_request");
    return error_reply(req, error_value("bad_request", "",
                                        "eval needs \"fun\" or \"entry\""));
  }

  // Argument literals decode inside the run (charged to the request's
  // budget, like the values the run computes) and under try: a bad
  // literal is the client's error, reported structurally.
  std::string budget_error;
  const rt::ExecBudget budget =
      effective_budget(req, options_.max_budget, &budget_error);
  if (!budget_error.empty()) {
    count("serve.errors.bad_request");
    return error_reply(req, error_value("bad_request", "", budget_error));
  }
  std::vector<std::string_view> args;
  for (const Json& a : req.get("args").as_array()) {
    if (!a.is_string()) {
      count("serve.errors.bad_request");
      return error_reply(
          req, error_value("bad_request", "",
                           "\"args\" must be P literals as strings"));
    }
    args.emplace_back(a.as_string());
  }
  try {
    // Both tiers run the entry's module, driven by its signatures; the
    // source forms of a memory-tier entry are never needed to evaluate.
    Session session(entry->module);
    session.set_budget(budget);
    std::string result = has_fun ? session.run_vm_text(fun, args)
                                 : session.run_entry_vm_text();
    const obs::MetricsRegistry& run_metrics = session.last_cost().metrics;

    count("serve.eval.count");
    if (cache_hit) count("serve.eval.warm");
    count("serve.decode.fallbacks", session.last_decode_fallbacks());
    count("serve.eval.wall_ns", elapsed_ns(start));
    // Accumulate the allocator counter across evals (OpenMetrics counter).
    count("vl.buffer_allocs", run_metrics.get("vl.buffer_allocs"));

    Json::Object reply;
    if (req.has("id")) reply["id"] = req.get("id");
    reply["ok"] = true;
    reply["key"] = vm::hash_hex(key);
    reply["cached"] = cache_hit;
    reply["engine"] = entry->compiled != nullptr ? "vm" : "vm-module";
    reply["result"] = std::move(result);
    reply["metrics"] = metrics_object(run_metrics);
    return Json(std::move(reply));
  } catch (const rt::RuntimeTrap& trap) {
    // The request exhausted ITS budget; the daemon is healthy and the
    // reply says exactly which trap fired (docs/ROBUSTNESS.md trap table).
    count(std::string("serve.trap.") + trap.code());
    count("serve.errors.trap");
    Json::Object e;
    e["kind"] = "trap";
    e["code"] = trap.code();
    e["message"] = trap.what();
    e["site"] = trap.site();
    e["bytes_at_trip"] = trap.bytes_at_trip();
    e["steps_at_trip"] = trap.steps_at_trip();
    return error_reply(req, Json(std::move(e)));
  } catch (const SignatureError& e) {
    count("serve.errors.bad_request");
    return error_reply(req, error_value("bad_request", "", e.what()));
  } catch (const SyntaxError& e) {
    count("serve.errors.bad_request");
    return error_reply(req, error_value("bad_request", "",
                                        std::string("bad argument literal: ") +
                                            e.what()));
  } catch (const TypeError& e) {
    count("serve.errors.bad_request");
    return error_reply(req, error_value("bad_request", "",
                                        std::string("bad argument literal: ") +
                                            e.what()));
  } catch (const Error& e) {
    count("serve.errors.runtime");
    return error_reply(req, error_value("runtime", "", e.what()));
  }
}

Json Server::do_metrics(const Json& req) {
  const Json& format = req.get("format");
  if (!format.is_null() && format.as_string() != "json" &&
      format.as_string() != "openmetrics") {
    count("serve.errors.bad_request");
    return error_reply(
        req, error_value("bad_request", "",
                         "unknown metrics format '" + format.as_string() +
                             "' (expected json or openmetrics)"));
  }

  // Snapshot under the lock (inside metrics()), render outside it: an
  // expensive exposition must not stall request workers.
  const obs::MetricsRegistry snapshot = metrics();
  Json::Object reply;
  if (req.has("id")) reply["id"] = req.get("id");
  reply["ok"] = true;
  if (format.as_string() == "openmetrics") {
    std::ostringstream body;
    snapshot.write_openmetrics(body);
    reply["content_type"] =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    reply["body"] = body.str();
  } else {
    reply["metrics"] = metrics_object(snapshot);
    reply["cache_entries"] = static_cast<std::uint64_t>(cache_.size());
  }
  return Json(std::move(reply));
}

Json Server::do_trace(const Json& req) {
  const std::string& want = req.get("request_id").as_string();
  const std::int64_t limit = req.get("limit").as_int(0);
  if (req.has("limit") && limit <= 0) {
    count("serve.errors.bad_request");
    return error_reply(
        req, error_value("bad_request", "", "\"limit\" must be positive"));
  }

  std::vector<RequestTrace> picked;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    for (const RequestTrace& t : trace_ring_) {
      if (want.empty() || t.request_id == want) picked.push_back(t);
    }
  }
  if (limit > 0 && picked.size() > static_cast<std::size_t>(limit)) {
    // Keep the most recent `limit` traces.
    picked.erase(picked.begin(),
                 picked.end() - static_cast<std::ptrdiff_t>(limit));
  }

  Json::Array traces;
  traces.reserve(picked.size());
  for (const RequestTrace& t : picked) {
    Json::Array events;
    events.reserve(t.events.size());
    for (const obs::TraceEvent& e : t.events) events.push_back(chrome_event(e));
    Json::Object doc;
    doc["traceEvents"] = Json(std::move(events));
    doc["displayTimeUnit"] = "ms";
    Json::Object entry;
    entry["request_id"] = t.request_id;
    entry["op"] = t.op;
    entry["duration_us"] = t.duration_us;
    entry["trace"] = Json(std::move(doc));
    traces.push_back(Json(std::move(entry)));
  }

  Json::Object reply;
  if (req.has("id")) reply["id"] = req.get("id");
  reply["ok"] = true;
  reply["traces"] = Json(std::move(traces));
  return Json(std::move(reply));
}

int Server::serve_stdio(std::istream& in, std::ostream& out) {
  // Drain on stdio is trivial: a request line already read is served to
  // completion (the signal handler only sets a flag, so handle_line is
  // never interrupted), then the loop stops reading and returns 0. A
  // SIGTERM that lands while getline is blocked fails the stream with
  // EINTR (proteusd installs its handlers without SA_RESTART), which the
  // flag check below turns into a clean drain instead of an error.
  std::string line;
  for (;;) {
    poll_external_shutdown();
    if (stopping() || draining()) break;
    if (!std::getline(in, line)) {
      poll_external_shutdown();
      break;
    }
    if (line.empty()) continue;
    out << handle_line(line) << "\n" << std::flush;
  }
  return 0;
}

#if !defined(_WIN32)

namespace {

/// Binds + listens on host:port and returns the fd (or -1). The bound
/// port (the ephemeral one for port 0) is stored in `published` and
/// announced as "proteusd <what> <port>".
int listen_on(const std::string& host, int port, std::atomic<int>& published,
              const char* what, std::ostream& announce) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return -1;
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd);
    return -1;
  }
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    ::close(listen_fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  const int bound_port = static_cast<int>(ntohs(bound.sin_port));
  published.store(bound_port, std::memory_order_release);
  announce << "proteusd " << what << ' ' << bound_port << "\n" << std::flush;
  return listen_fd;
}

}  // namespace

Server::IoStatus Server::conn_read(int fd, char* buf, std::size_t cap,
                                   int timeout_ms, std::size_t* got) {
  *got = 0;
  // Chaos sites (rt/fault.hpp). Both act as a peer that is gone: a
  // sock-read fires as a reset, a sock-stall as a client that will never
  // make progress again — reclaimed immediately rather than waiting out
  // the timeout it would otherwise hit. Neither leaves a reply behind,
  // exactly like the real failure it simulates; only the counter differs.
  if (rt::detail::fire_sock_read()) {
    count("serve.trap.S006");
    return IoStatus::kError;
  }
  if (rt::detail::fire_sock_stall()) {
    count("serve.trap.S008");
    return IoStatus::kError;
  }
  for (;;) {
    if (stopping()) return IoStatus::kStopped;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms < 0 ? -1 : timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (ready == 0) return IoStatus::kTimeout;
    const ssize_t n = ::read(fd, buf, cap);
    if (n > 0) {
      *got = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return IoStatus::kError;
  }
}

Server::IoStatus Server::conn_write(int fd, const std::string& data,
                                    int timeout_ms) {
  if (rt::detail::fire_sock_write()) {
    count("serve.trap.S007");
    return IoStatus::kError;
  }
  std::size_t off = 0;
  Clock::time_point last_progress = Clock::now();
  while (off < data.size()) {
    int slice = 200;
    if (timeout_ms > 0) {
      const int waited = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - last_progress)
              .count());
      if (waited >= timeout_ms) return IoStatus::kTimeout;
      slice = std::min(slice, timeout_ms - waited);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (ready == 0) continue;
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      last_progress = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

void Server::send_trap_frame(int fd, ServeTrap trap) {
  count(std::string("serve.trap.") + serve_trap_code(trap));
  Json::Object e;
  e["kind"] = serve_trap_kind(trap);
  e["code"] = serve_trap_code(trap);
  e["message"] = serve_trap_reason(trap);
  if (serve_trap_retryable(trap)) {
    e["retry_after_ms"] =
        static_cast<std::int64_t>(std::max(options_.retry_after_ms, 0));
  }
  Json::Object reply;
  reply["ok"] = false;
  reply["error"] = Json(std::move(e));
  // Best-effort with a short bound: a retired connection must never hold
  // its worker (or the accept loop) hostage just to hear why.
  (void)conn_write(fd, Json(std::move(reply)).dump() + "\n", 250);
}

void Server::serve_connection(int fd) {
  // During a drain an *idle* connection only gets this much more grace
  // before being retired with S005 — the worker has queued connections
  // to serve before the deadline. Mid-request connections may run up to
  // the full drain deadline.
  constexpr int kDrainIdleGraceMs = 100;

  std::string buffer;
  char chunk[4096];
  Clock::time_point wait_start = Clock::now();
  std::optional<Clock::time_point> drain_seen;
  for (;;) {
    if (stopping()) {
      send_trap_frame(fd, ServeTrap::kDraining);
      break;
    }
    const bool idle = buffer.empty();
    const int limit = idle ? options_.idle_timeout_ms : options_.io_timeout_ms;
    const int waited = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              wait_start)
            .count());
    if (limit > 0 && waited >= limit) {
      send_trap_frame(
          fd, idle ? ServeTrap::kIdleTimeout : ServeTrap::kIoTimeout);
      break;
    }
    // Wait in short slices so lifecycle changes (drain/stop) are observed
    // within ~200ms even under a 60s idle timeout.
    int slice = 200;
    if (limit > 0) slice = std::min(slice, limit - waited);
    const int drain_left = drain_remaining_ms();
    if (drain_left >= 0) {
      if (!drain_seen.has_value()) drain_seen = Clock::now();
      const int in_drain = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                *drain_seen)
              .count());
      if (drain_left == 0 || (idle && in_drain >= kDrainIdleGraceMs)) {
        send_trap_frame(fd, ServeTrap::kDraining);
        break;
      }
      slice = std::min(
          slice, idle ? std::max(kDrainIdleGraceMs - in_drain, 1) : drain_left);
    }

    std::size_t got = 0;
    const IoStatus st = conn_read(fd, chunk, sizeof chunk, slice, &got);
    if (st == IoStatus::kTimeout) continue;  // slice over; loop re-checks
    if (st == IoStatus::kStopped) {
      send_trap_frame(fd, ServeTrap::kDraining);
      break;
    }
    if (st != IoStatus::kOk) break;  // kClosed / kError: nothing to say

    buffer.append(chunk, got);
    bool done = false;
    std::size_t nl = 0;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      if (options_.max_line_bytes > 0 && nl > options_.max_line_bytes) {
        send_trap_frame(fd, ServeTrap::kLineTooLong);
        done = true;
        break;
      }
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      const IoStatus ws =
          conn_write(fd, handle_line(line) + "\n", options_.io_timeout_ms);
      if (ws != IoStatus::kOk) {
        // A peer that stops reading its replies is as stalled as one
        // that stops sending; no frame can reach it, so only count.
        if (ws == IoStatus::kTimeout) count("serve.trap.S003");
        done = true;
        break;
      }
    }
    if (done) break;
    // A newline-free client must not grow the buffer without bound: the
    // check above only sees *extracted* lines, this one the residue.
    if (options_.max_line_bytes > 0 && buffer.size() > options_.max_line_bytes) {
      send_trap_frame(fd, ServeTrap::kLineTooLong);
      break;
    }
    wait_start = Clock::now();
  }
  ::close(fd);
}

int Server::accept_connection(int listen_fd) {
  pollfd pfd{listen_fd, POLLIN, 0};
  if (::poll(&pfd, 1, 200) <= 0) return -1;  // re-check lifecycle 5x/second
  const int conn = ::accept(listen_fd, nullptr, nullptr);
  if (conn < 0) {
    count("serve.accept_errors");
    if (errno == EMFILE || errno == ENFILE) {
      // Out of descriptors: hot-looping poll+accept would spin at 100%
      // CPU while fixing nothing. Back off and let workers close fds.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return conn;
}

int Server::serve_tcp(const std::string& host, int port,
                      std::ostream& announce) {
  int listen_fd = listen_on(host, port, tcp_port_, "listening on", announce);
  if (listen_fd < 0) return 1;

  // Connection queue + worker pool. Workers own one connection at a time
  // and call handle_line per request line (handle_line is thread-safe).
  // Admission is bounded: the queue never exceeds max_queue, and beyond
  // it (or max_conns total) a connection is shed with an S001 frame.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> pending;
  auto worker = [this, &mu, &cv, &pending] {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || stopping(); });
        if (stopping()) return;  // leftovers are retired below with S005
        fd = pending.front();
        pending.pop_front();
      }
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      active_conns_.fetch_add(1, std::memory_order_relaxed);
      serve_connection(fd);
      active_conns_.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  const int n_workers = options_.workers > 0 ? options_.workers : 1;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) workers.emplace_back(worker);

  while (!stopping()) {
    poll_external_shutdown();
    if (draining()) break;
    const int conn = accept_connection(listen_fd);
    if (conn < 0) continue;
    const auto queued = queue_depth_.load(std::memory_order_relaxed);
    const auto active = active_conns_.load(std::memory_order_relaxed);
    const bool over_queue =
        options_.max_queue > 0 &&
        queued >= static_cast<std::uint64_t>(options_.max_queue);
    const bool over_conns =
        options_.max_conns > 0 &&
        queued + active >= static_cast<std::uint64_t>(options_.max_conns);
    if (over_queue || over_conns) {
      count("serve.shed_total");
      send_trap_frame(conn, ServeTrap::kOverload);
      ::close(conn);
      continue;
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(conn);
    }
    cv.notify_one();
  }

  if (draining() && !stopping()) {
    // Stop accepting NOW (close the listener so new connections are
    // refused, not parked in the kernel backlog), serve what is queued
    // and in flight until the drain deadline or until everything is
    // done, then stop.
    ::close(listen_fd);
    listen_fd = -1;
    for (;;) {
      const int left = drain_remaining_ms();
      bool empty = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        empty = pending.empty();
      }
      if (left == 0 || stopping() ||
          (empty && active_conns_.load(std::memory_order_relaxed) == 0)) {
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(left, 20)));
    }
    request_stop();
  }

  cv.notify_all();
  for (std::thread& t : workers) t.join();
  {
    // Connections still queued at stop are retired with an S005 frame —
    // a deliberate refusal the client can retry elsewhere, not silence.
    std::lock_guard<std::mutex> lock(mu);
    for (int fd : pending) {
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      send_trap_frame(fd, ServeTrap::kDraining);
      ::close(fd);
    }
    pending.clear();
  }
  if (listen_fd >= 0) ::close(listen_fd);
  return 0;
}

int Server::serve_metrics_http(const std::string& host, int port,
                               std::ostream& announce) {
  const int listen_fd =
      listen_on(host, port, metrics_port_, "metrics on", announce);
  if (listen_fd < 0) return 1;

  // Scrapes are rare (Prometheus default: every 15s), so one thread
  // serving one connection at a time is plenty. The exposition stays up
  // through a drain (probes want to watch the drain happen) and winds
  // down at the drain deadline even when this is the only transport.
  while (!stopping()) {
    poll_external_shutdown();
    if (drain_remaining_ms() == 0) request_stop();
    if (stopping()) break;
    const int conn = accept_connection(listen_fd);
    if (conn < 0) continue;

    // Read the request head, bounded in bytes and in time by ONE
    // io_timeout_ms deadline (0 = none): a client dripping bytes cannot
    // hold the only scrape thread, and a stop request cuts the read short.
    std::string head;
    char chunk[4096];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options_.io_timeout_ms);
    while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
      int slice = 200;
      if (options_.io_timeout_ms > 0) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        if (left <= 0) break;
        slice = static_cast<int>(std::min<std::int64_t>(slice, left));
      }
      std::size_t got = 0;
      const IoStatus st = conn_read(conn, chunk, sizeof chunk, slice, &got);
      if (st == IoStatus::kTimeout) continue;
      if (st != IoStatus::kOk) break;
      head.append(chunk, got);
    }
    if (stopping()) {
      ::close(conn);
      break;
    }

    const bool is_metrics = head.rfind("GET /metrics ", 0) == 0 ||
                            head.rfind("GET /metrics\r", 0) == 0 ||
                            head.rfind("GET /metrics HTTP", 0) == 0;
    std::string response;
    if (is_metrics) {
      std::ostringstream body;
      metrics().write_openmetrics(body);
      const std::string text = body.str();
      response =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: application/openmetrics-text; version=1.0.0; "
          "charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(text.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          text;
    } else {
      response =
          "HTTP/1.0 404 Not Found\r\n"
          "Content-Type: text/plain\r\n"
          "Content-Length: 10\r\n"
          "Connection: close\r\n\r\nnot found\n";
    }
    (void)conn_write(conn, response, options_.io_timeout_ms);
    ::close(conn);
  }

  ::close(listen_fd);
  return 0;
}

#else  // _WIN32

int Server::serve_tcp(const std::string&, int, std::ostream&) {
  return 1;  // TCP transport is POSIX-only; use --stdio.
}

int Server::serve_metrics_http(const std::string&, int, std::ostream&) {
  return 1;  // POSIX-only, like serve_tcp.
}

#endif

}  // namespace proteus::serve
