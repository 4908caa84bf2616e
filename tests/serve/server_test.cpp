// server_test.cpp — proteusd's request engine (serve/server.hpp):
// protocol ops, the compile-once / evaluate-many cache, per-request
// budget isolation, the disk tier, and handle_line under concurrency
// (this suite runs under the TSan CI job, so the locking is proved, not
// assumed).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "rt/fault.hpp"

namespace proteus::serve {
namespace {

constexpr const char* kSource =
    "fun sq(n: int): int = n * n\n"
    "fun down(n: int): int = if n == 0 then 0 else down(n - 1)\n";

Json request(std::initializer_list<std::pair<const std::string, Json>> kv) {
  return Json(Json::Object(kv));
}

Json args_of(std::initializer_list<const char*> literals) {
  Json::Array a;
  for (const char* s : literals) a.emplace_back(s);
  return Json(std::move(a));
}

TEST(ServeServer, PingEchoesIdAndUnknownOpIsBadRequest) {
  Server server;
  Json reply = server.handle_request(request({{"op", "ping"}, {"id", 7}}));
  EXPECT_TRUE(reply.get("ok").as_bool());
  EXPECT_TRUE(reply.get("pong").as_bool());
  EXPECT_EQ(reply.get("id").as_int(), 7);

  reply = server.handle_request(request({{"op", "frobnicate"}}));
  EXPECT_FALSE(reply.get("ok").as_bool(true));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");
}

TEST(ServeServer, MalformedLineIsAParseErrorReply) {
  Server server;
  const std::string reply = server.handle_line("{\"op\":");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"kind\":\"parse\""), std::string::npos) << reply;
}

TEST(ServeServer, CompileThenEvalByKeyAndWarmReuse) {
  Server server;
  Json compiled = server.handle_request(
      request({{"op", "compile"}, {"source", kSource}}));
  ASSERT_TRUE(compiled.get("ok").as_bool()) << compiled.dump();
  EXPECT_FALSE(compiled.get("cached").as_bool(true));
  const std::string key = compiled.get("key").as_string();
  ASSERT_EQ(key.size(), 16u);
  ASSERT_EQ(compiled.get("functions").as_array().size(), 2u);

  // Same source again: served from cache, same key.
  Json again = server.handle_request(
      request({{"op", "compile"}, {"source", kSource}}));
  EXPECT_TRUE(again.get("cached").as_bool());
  EXPECT_EQ(again.get("key").as_string(), key);

  // Eval by key alone — no source resent.
  Json eval = server.handle_request(request(
      {{"op", "eval"}, {"key", key}, {"fun", "sq"}, {"args", args_of({"9"})}}));
  ASSERT_TRUE(eval.get("ok").as_bool()) << eval.dump();
  EXPECT_EQ(eval.get("result").as_string(), "81");
  EXPECT_TRUE(eval.get("cached").as_bool());
  EXPECT_EQ(eval.get("engine").as_string(), "vm");

  // An unknown key is a structured miss telling the client to resend
  // source, and a bad key is rejected before the cache is consulted.
  Json miss = server.handle_request(request(
      {{"op", "eval"}, {"key", "00000000deadbeef"}, {"fun", "sq"}}));
  EXPECT_EQ(miss.get("error").get("kind").as_string(), "unknown_key");
  Json bad = server.handle_request(
      request({{"op", "eval"}, {"key", "not-hex"}, {"fun", "sq"}}));
  EXPECT_EQ(bad.get("error").get("kind").as_string(), "bad_request");
}

TEST(ServeServer, EntryExpressionIsPartOfTheCacheKey) {
  Server server;
  Json a = server.handle_request(request(
      {{"op", "eval"}, {"source", kSource}, {"entry", "sq(3)"}}));
  Json b = server.handle_request(request(
      {{"op", "eval"}, {"source", kSource}, {"entry", "sq(4)"}}));
  ASSERT_TRUE(a.get("ok").as_bool()) << a.dump();
  ASSERT_TRUE(b.get("ok").as_bool()) << b.dump();
  EXPECT_EQ(a.get("result").as_string(), "9");
  EXPECT_EQ(b.get("result").as_string(), "16");
  EXPECT_NE(a.get("key").as_string(), b.get("key").as_string());
}

TEST(ServeServer, CompileErrorsAndBadArgumentsAreStructured) {
  Server server;
  Json reply = server.handle_request(request(
      {{"op", "eval"}, {"source", "fun f(: int = 1"}, {"fun", "f"}}));
  EXPECT_FALSE(reply.get("ok").as_bool(true));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "compile");

  reply = server.handle_request(request({{"op", "eval"},
                                         {"source", kSource},
                                         {"fun", "sq"},
                                         {"args", args_of({"]["})}}));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");

  reply = server.handle_request(
      request({{"op", "eval"}, {"source", kSource}}));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");

  reply = server.handle_request(request({{"op", "eval"}}));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");

  // Calls that do not fit the signature are the client's error too, and
  // the message names the function, the argument and the expected type.
  const std::uint64_t bad_before =
      server.metrics().get("serve.errors.bad_request");
  const std::string typed = "fun half(x: real, n: int): real = x / real(n)";
  auto message = [](const Json& r) {
    EXPECT_EQ(r.get("error").get("kind").as_string(), "bad_request")
        << r.dump();
    return r.get("error").get("message").as_string();
  };
  std::string msg = message(server.handle_request(request(
      {{"op", "eval"}, {"source", typed}, {"fun", "half"},
       {"args", args_of({"2", "4"})}})));
  EXPECT_NE(msg.find("argument 1 of 'half'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("real"), std::string::npos) << msg;
  msg = message(server.handle_request(request(
      {{"op", "eval"}, {"source", typed}, {"fun", "half"},
       {"args", args_of({"2.0", "[4]"})}})));
  EXPECT_NE(msg.find("argument 2 of 'half' must have type int"),
            std::string::npos)
      << msg;
  msg = message(server.handle_request(request(
      {{"op", "eval"}, {"source", typed}, {"fun", "half"},
       {"args", args_of({"2.0"})}})));
  EXPECT_NE(msg.find("'half' called with wrong argument count"),
            std::string::npos)
      << msg;
  msg = message(server.handle_request(request(
      {{"op", "eval"}, {"source", typed}, {"fun", "twice"},
       {"args", args_of({"2.0"})}})));
  EXPECT_NE(msg.find("'twice'"), std::string::npos) << msg;

  const obs::MetricsRegistry metrics = server.metrics();
  EXPECT_EQ(metrics.get("serve.errors.bad_request"), bad_before + 4);
  EXPECT_EQ(metrics.get("serve.errors.runtime"), 0U);
}

TEST(ServeServer, BudgetTrapIsPerRequestAndTheServerKeepsServing) {
  Server server;
  Json::Object budget;
  budget["depth"] = 10;
  Json trapped = server.handle_request(request({{"op", "eval"},
                                                {"source", kSource},
                                                {"fun", "down"},
                                                {"args", args_of({"500"})},
                                                {"budget", Json(budget)}}));
  ASSERT_FALSE(trapped.get("ok").as_bool(true)) << trapped.dump();
  EXPECT_EQ(trapped.get("error").get("kind").as_string(), "trap");
  EXPECT_EQ(trapped.get("error").get("code").as_string(), "T003");
  EXPECT_TRUE(trapped.get("error").has("site"));

  // The trap was request-local: the very same call without the tight
  // budget succeeds on the cached program.
  Json fine = server.handle_request(request({{"op", "eval"},
                                             {"source", kSource},
                                             {"fun", "down"},
                                             {"args", args_of({"500"})}}));
  ASSERT_TRUE(fine.get("ok").as_bool()) << fine.dump();
  EXPECT_EQ(fine.get("result").as_string(), "0");
  EXPECT_TRUE(fine.get("cached").as_bool());

  Json metrics = server.handle_request(request({{"op", "metrics"}}));
  EXPECT_GE(metrics.get("metrics").get("serve.trap.T003").as_int(), 1);
}

TEST(ServeServer, InjectedKernelFaultIsATrapReplyAndTheNextEvalIsClean) {
  Server server;
  Json compiled = server.handle_request(request(
      {{"op", "compile"},
       {"source", "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]"}}));
  ASSERT_TRUE(compiled.get("ok").as_bool()) << compiled.dump();
  const Json eval = request({{"op", "eval"},
                             {"key", compiled.get("key")},
                             {"fun", "sqs"},
                             {"args", args_of({"5"})}});

  // A one-shot fault is contained, not absorbed: the eval that hits it
  // gets a structured trap reply...
  rt::arm_faults(rt::parse_fault_plan("kernel:1"));
  Json trapped = server.handle_request(eval);
  EXPECT_FALSE(rt::faults_armed());
  rt::disarm_faults();
  ASSERT_FALSE(trapped.get("ok").as_bool(true)) << trapped.dump();
  EXPECT_EQ(trapped.get("error").get("kind").as_string(), "trap");
  EXPECT_EQ(trapped.get("error").get("code").as_string(), "T007");

  // ...and the next eval of the same cached program runs clean.
  Json fine = server.handle_request(eval);
  ASSERT_TRUE(fine.get("ok").as_bool()) << fine.dump();
  EXPECT_EQ(fine.get("result").as_string(), "[1,4,9,16,25]");

  Json metrics = server.handle_request(request({{"op", "metrics"}}));
  EXPECT_EQ(metrics.get("metrics").get("serve.trap.T007").as_int(), 1);
}

TEST(ServeServer, ClientBudgetCannotExceedTheServerCeiling) {
  ServerOptions options;
  options.max_budget.max_depth = 10;
  Server server(options);
  // The client asks for far more depth than the daemon allows; the
  // ceiling wins and the request traps.
  Json::Object budget;
  budget["depth"] = 1000000;
  Json reply = server.handle_request(request({{"op", "eval"},
                                              {"source", kSource},
                                              {"fun", "down"},
                                              {"args", args_of({"500"})},
                                              {"budget", Json(budget)}}));
  ASSERT_FALSE(reply.get("ok").as_bool(true)) << reply.dump();
  EXPECT_EQ(reply.get("error").get("code").as_string(), "T003");
}

TEST(ServeServer, MistypedBudgetIsRejectedNotIgnored) {
  Server server;
  // A typo'd knob must not silently grant an unbounded run.
  Json::Object budget;
  budget["max_depth"] = 5;
  Json reply = server.handle_request(request({{"op", "eval"},
                                              {"source", kSource},
                                              {"fun", "down"},
                                              {"args", args_of({"500"})},
                                              {"budget", Json(budget)}}));
  ASSERT_FALSE(reply.get("ok").as_bool(true)) << reply.dump();
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");
  EXPECT_NE(reply.get("error").get("message").as_string().find("max_depth"),
            std::string::npos)
      << reply.dump();

  // Non-object budgets and non-numeric knob values are equally rejected.
  Json bad = server.handle_request(request({{"op", "eval"},
                                            {"source", kSource},
                                            {"fun", "down"},
                                            {"args", args_of({"1"})},
                                            {"budget", Json("tight")}}));
  EXPECT_EQ(bad.get("error").get("kind").as_string(), "bad_request");
  Json::Object text_knob;
  text_knob["depth"] = Json("ten");
  Json bad2 = server.handle_request(request({{"op", "eval"},
                                             {"source", kSource},
                                             {"fun", "down"},
                                             {"args", args_of({"1"})},
                                             {"budget", Json(text_knob)}}));
  EXPECT_EQ(bad2.get("error").get("kind").as_string(), "bad_request");
}

TEST(ServeServer, WarmEvalCompilesNothing) {
  obs::Tracer tracer;
  obs::TracerScope scope(&tracer);
  Server server;

  auto eval = request({{"op", "eval"},
                       {"source", kSource},
                       {"fun", "sq"},
                       {"args", args_of({"6"})}});
  Json cold = server.handle_request(eval);
  ASSERT_TRUE(cold.get("ok").as_bool()) << cold.dump();
  EXPECT_FALSE(cold.get("cached").as_bool(true));

  auto compile_spans_since = [&tracer](std::size_t from) {
    std::size_t n = 0;
    const std::vector<obs::TraceEvent> events = tracer.events();
    for (std::size_t i = from; i < events.size(); ++i) {
      if (std::string_view(events[i].cat) == "compile") ++n;
    }
    return n;
  };
  // The cold request ran the pipeline: parse/check/…/vm-assemble spans.
  ASSERT_GT(compile_spans_since(0), 0u);

  // The warm request must add ZERO compile-category spans — the cache
  // hit skips parse, typecheck, transformation, and compilation
  // entirely; only run-category work remains.
  const std::size_t mark = tracer.event_count();
  Json warm = server.handle_request(eval);
  ASSERT_TRUE(warm.get("ok").as_bool()) << warm.dump();
  EXPECT_TRUE(warm.get("cached").as_bool());
  EXPECT_EQ(warm.get("result").as_string(), "36");
  EXPECT_EQ(compile_spans_since(mark), 0u);
}

TEST(ServeServer, DiskTierServesAFreshProcessByKeyAlone) {
  const std::string dir =
      ::testing::TempDir() + "/proteus_serve_disk_tier_test";
  std::filesystem::remove_all(dir);

  std::string key;
  {
    ServerOptions options;
    options.cache_dir = dir;
    Server first(options);
    Json compiled = first.handle_request(
        request({{"op", "compile"}, {"source", kSource}}));
    ASSERT_TRUE(compiled.get("ok").as_bool()) << compiled.dump();
    key = compiled.get("key").as_string();
  }

  // A brand-new server over the same directory — as after a daemon
  // restart — serves the key without ever seeing the source. The module
  // image carries its own calling convention, so the run works with no
  // AST in the process (engine "vm-module").
  ServerOptions options;
  options.cache_dir = dir;
  Server second(options);
  Json eval = second.handle_request(request(
      {{"op", "eval"}, {"key", key}, {"fun", "sq"}, {"args", args_of({"5"})}}));
  ASSERT_TRUE(eval.get("ok").as_bool()) << eval.dump();
  EXPECT_EQ(eval.get("result").as_string(), "25");
  EXPECT_EQ(eval.get("engine").as_string(), "vm-module");
  EXPECT_TRUE(eval.get("cached").as_bool());
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, HandleLineIsThreadSafeUnderConcurrentMixedLoad) {
  Server server;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> ok_count{0};
  std::atomic<int> trap_count{0};

  // Prime both programs serially: cache insertion is first-writer-wins,
  // so two threads racing the FIRST compile of the same source may
  // legitimately both compile (one insert is discarded). Priming pins
  // the compile count at exactly one per distinct program and makes
  // every threaded request below a cache hit.
  (void)server.handle_line(
      "{\"op\":\"compile\","
      "\"source\":\"fun sq(n: int): int = n * n\"}");
  (void)server.handle_line(
      "{\"op\":\"compile\",\"source\":\"fun down(n: int): int = "
      "if n == 0 then 0 else down(n - 1)\"}");

  // Every thread hammers the same server with a mix of cache-hitting
  // evals, budget traps, and metrics requests. Run
  // under TSan (the CI job builds this suite with it) this proves the
  // cache and metrics locking; functionally, every reply must be a
  // well-formed verdict — ok, or the trap we asked for.
  auto worker = [&](int tid) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string reply = server.handle_line(
          "{\"op\":\"eval\",\"source\":\"fun sq(n: int): int = n * n\","
          "\"fun\":\"sq\",\"args\":[\"" +
          std::to_string(tid * 100 + i) + "\"]}");
      if (reply.find("\"ok\":true") != std::string::npos) ++ok_count;

      const std::string trap = server.handle_line(
          "{\"op\":\"eval\",\"source\":\"fun down(n: int): int = if n == 0 "
          "then 0 else down(n - 1)\",\"fun\":\"down\",\"args\":[\"99\"],"
          "\"budget\":{\"depth\":5}}");
      if (trap.find("\"code\":\"T003\"") != std::string::npos) ++trap_count;

      (void)server.handle_line("{\"op\":\"metrics\"}");
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(trap_count.load(), kThreads * kPerThread);

  // One compile per distinct program (the serial priming), many serves:
  // every threaded eval must have hit the cache.
  obs::MetricsRegistry metrics = server.metrics();
  EXPECT_EQ(metrics.get("serve.compile.count"), 2u);
  EXPECT_GE(metrics.get("serve.cache.hit"),
            static_cast<std::uint64_t>(kThreads * kPerThread * 2));
}

TEST(ServeServer, StdioLoopServesUntilShutdown) {
  Server server;
  std::istringstream in(
      "{\"op\":\"ping\",\"id\":1}\n"
      "\n"
      "{\"op\":\"eval\",\"source\":\"fun sq(n: int): int = n * n\","
      "\"fun\":\"sq\",\"args\":[\"3\"]}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\",\"id\":2}\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve_stdio(in, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"pong\":true"), std::string::npos) << text;
  EXPECT_NE(text.find("\"result\":\"9\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"stopping\":true"), std::string::npos) << text;
  // The ping after shutdown was never served.
  EXPECT_EQ(text.find("\"id\":2"), std::string::npos) << text;
}

// --- ISSUE 7 telemetry: request ids, latency histograms, the metrics
// --- exposition ops, and the trace flight recorder.

Json eval_sq(int n) {
  return request({{"op", "eval"},
                  {"source", kSource},
                  {"fun", "sq"},
                  {"args", args_of({std::to_string(n).c_str()})}});
}

TEST(ServeTelemetry, RequestIdsAreAssignedAndUnique) {
  Server server;
  const Json a = server.handle_request(request({{"op", "ping"}}));
  const Json b = server.handle_request(request({{"op", "ping"}}));
  const std::string id_a = a.get("request_id").as_string();
  const std::string id_b = b.get("request_id").as_string();
  EXPECT_EQ(id_a.size(), 16u) << a.dump();  // same hex shape as cache keys
  EXPECT_EQ(id_b.size(), 16u);
  EXPECT_NE(id_a, id_b);
}

TEST(ServeTelemetry, ErrorAndParseRepliesCarryRequestIds) {
  Server server;
  const Json bad = server.handle_request(request({{"op", "frobnicate"}}));
  EXPECT_FALSE(bad.get("ok").as_bool(true));
  EXPECT_EQ(bad.get("request_id").as_string().size(), 16u) << bad.dump();

  // Even a line that never parsed gets an id the client can quote back.
  const std::string reply = server.handle_line("{\"op\":");
  EXPECT_NE(reply.find("\"request_id\":\""), std::string::npos) << reply;
}

TEST(ServeTelemetry, NoTelemetryMeansNoRequestIdsAndNoHistograms) {
  ServerOptions options;
  options.telemetry = false;
  Server server(options);
  const Json reply = server.handle_request(eval_sq(4));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
  EXPECT_FALSE(reply.has("request_id"));
  const obs::MetricsRegistry metrics = server.metrics();
  EXPECT_EQ(metrics.histogram("serve.request.duration_us"), nullptr);
  EXPECT_EQ(metrics.get("serve.requests"), 1u);  // counters still work
}

TEST(ServeTelemetry, LatencyHistogramsSplitEvalHitsFromMisses) {
  Server server;
  ASSERT_TRUE(server.handle_request(eval_sq(4)).get("ok").as_bool());
  const Json hit = server.handle_request(eval_sq(4));
  ASSERT_TRUE(hit.get("cached").as_bool()) << hit.dump();

  const obs::MetricsRegistry metrics = server.metrics();
  const obs::Histogram* requests =
      metrics.histogram("serve.request.duration_us");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->count(), 2u);
  EXPECT_EQ(metrics.histogram("serve.eval.duration_us")->count(), 2u);
  EXPECT_EQ(metrics.histogram("serve.eval.miss.duration_us")->count(), 1u);
  EXPECT_EQ(metrics.histogram("serve.eval.hit.duration_us")->count(), 1u);

  // Point-in-time gauges are stamped on every snapshot; nothing is in
  // flight from the caller's thread once handle_request returned.
  EXPECT_TRUE(metrics.is_gauge("serve.uptime_seconds"));
  EXPECT_TRUE(metrics.is_gauge("serve.requests_inflight"));
  EXPECT_EQ(metrics.get("serve.requests_inflight"), 0u);
}

TEST(ServeTelemetry, MetricsOpFlattensHistogramsIntoJson) {
  Server server;
  ASSERT_TRUE(server.handle_request(eval_sq(3)).get("ok").as_bool());
  const Json reply = server.handle_request(request({{"op", "metrics"}}));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
  const Json& metrics = reply.get("metrics");
  EXPECT_GE(metrics.get("serve.requests").as_int(), 1);
  EXPECT_EQ(metrics.get("serve.eval.duration_us.count").as_int(), 1);
  EXPECT_TRUE(metrics.has("serve.eval.duration_us.p50"));
  EXPECT_TRUE(metrics.has("serve.eval.duration_us.p99"));
  EXPECT_TRUE(metrics.has("serve.uptime_seconds"));
}

TEST(ServeTelemetry, OpenMetricsBodyMatchesRegistryExposition) {
  Server server;
  ASSERT_TRUE(server.handle_request(eval_sq(5)).get("ok").as_bool());
  const Json reply = server.handle_request(
      request({{"op", "metrics"}, {"format", "openmetrics"}}));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.get("content_type").as_string(),
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  const std::string body = reply.get("body").as_string();
  EXPECT_NE(body.find("# TYPE serve_eval_duration_us histogram"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("serve_eval_duration_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos)
      << body;
  ASSERT_GE(body.size(), 6u);
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");

  // The op's body and MetricsRegistry::write_openmetrics agree line for
  // line on the stable series (the eval histogram); volatile series —
  // request counters, uptime, inflight — move between the two snapshots.
  const auto eval_lines = [](const std::string& text) {
    std::string picked;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      if (line.find("serve_eval_duration_us") != std::string::npos) {
        picked += line + "\n";
      }
    }
    return picked;
  };
  std::ostringstream direct;
  server.metrics().write_openmetrics(direct);
  EXPECT_EQ(eval_lines(body), eval_lines(direct.str()));
  EXPECT_FALSE(eval_lines(body).empty());
}

TEST(ServeTelemetry, UnknownMetricsFormatIsABadRequest) {
  Server server;
  const Json reply = server.handle_request(
      request({{"op", "metrics"}, {"format", "xml"}}));
  EXPECT_FALSE(reply.get("ok").as_bool(true));
  EXPECT_EQ(reply.get("error").get("kind").as_string(), "bad_request");
}

TEST(ServeTelemetry, SampledRequestsAreRetrievableAsChromeTraces) {
  ServerOptions options;
  options.trace_sample_rate = 1.0;
  Server server(options);
  const Json eval = server.handle_request(eval_sq(6));
  ASSERT_TRUE(eval.get("ok").as_bool()) << eval.dump();
  const std::string rid = eval.get("request_id").as_string();

  const Json reply = server.handle_request(
      request({{"op", "trace"}, {"request_id", rid}}));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
  const Json::Array& traces = reply.get("traces").as_array();
  ASSERT_EQ(traces.size(), 1u);
  const Json& entry = traces[0];
  EXPECT_EQ(entry.get("request_id").as_string(), rid);
  EXPECT_EQ(entry.get("op").as_string(), "eval");
  EXPECT_GE(entry.get("duration_us").as_int(), 0);

  // The embedded document is Chrome-trace shaped: Perfetto loads it.
  const Json& doc = entry.get("trace");
  EXPECT_EQ(doc.get("displayTimeUnit").as_string(), "ms");
  const Json::Array& events = doc.get("traceEvents").as_array();
  ASSERT_FALSE(events.empty());  // a cold eval compiles: spans exist
  for (const Json& e : events) {
    const std::string& ph = e.get("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i") << e.dump();
    EXPECT_FALSE(e.get("name").as_string().empty());
    EXPECT_TRUE(e.has("ts"));
    if (ph == "X") {
      EXPECT_TRUE(e.has("dur"));
    }
  }
}

TEST(ServeTelemetry, TraceRingIsBoundedAndLimitTakesTheMostRecent) {
  ServerOptions options;
  options.trace_sample_rate = 1.0;
  options.trace_ring_capacity = 2;
  Server server(options);
  std::vector<std::string> rids;
  for (int i = 1; i <= 4; ++i) {
    const Json reply = server.handle_request(eval_sq(i));
    ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
    rids.push_back(reply.get("request_id").as_string());
  }

  // Only the newest `capacity` traces survive. (Trace requests are
  // themselves sampled at rate 1, so query the ring oldest-first.)
  const Json all = server.handle_request(request({{"op", "trace"}}));
  const Json::Array& traces = all.get("traces").as_array();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].get("request_id").as_string(), rids[2]);
  EXPECT_EQ(traces[1].get("request_id").as_string(), rids[3]);
  EXPECT_GE(server.metrics().get("serve.trace.dropped"), 2u);

  const Json evicted = server.handle_request(
      request({{"op", "trace"}, {"request_id", rids[0]}}));
  EXPECT_TRUE(evicted.get("traces").as_array().empty());

  const Json limited = server.handle_request(
      request({{"op", "trace"}, {"limit", 1}}));
  EXPECT_EQ(limited.get("traces").as_array().size(), 1u);

  const Json bad = server.handle_request(
      request({{"op", "trace"}, {"limit", 0}}));
  EXPECT_FALSE(bad.get("ok").as_bool(true));
  EXPECT_EQ(bad.get("error").get("kind").as_string(), "bad_request");
}

TEST(ServeTelemetry, SamplingIsDeterministicInTheSequenceNumber) {
  ServerOptions options;
  options.trace_sample_rate = 0.5;
  Server server(options);
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(server.handle_request(eval_sq(i)).get("ok").as_bool());
  }
  // floor(seq * 0.5) advances on every even seq: exactly half sampled.
  const Json reply = server.handle_request(request({{"op", "trace"}}));
  EXPECT_EQ(reply.get("traces").as_array().size(), 4u);
  EXPECT_EQ(server.metrics().get("serve.trace.sampled"), 4u);
}

TEST(ServeTelemetry, UnsampledServersLeaveTheTraceRingEmpty) {
  Server server;  // trace_sample_rate defaults to 0
  ASSERT_TRUE(server.handle_request(eval_sq(2)).get("ok").as_bool());
  const Json reply = server.handle_request(request({{"op", "trace"}}));
  ASSERT_TRUE(reply.get("ok").as_bool());
  EXPECT_TRUE(reply.get("traces").as_array().empty());
  EXPECT_EQ(server.metrics().get("serve.trace.sampled"), 0u);
}

TEST(ServeTelemetry, RequestLogLinesAreStructured) {
  std::ostringstream sink;
  obs::logger().configure(obs::LogLevel::kInfo, true, &sink);
  {
    Server server;
    ASSERT_TRUE(server.handle_request(eval_sq(7)).get("ok").as_bool());
  }
  obs::logger().configure(obs::LogLevel::kOff, false, nullptr);

  const std::string out = sink.str();
  EXPECT_NE(out.find("\"event\":\"serve.request\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"op\":\"eval\""), std::string::npos);
  EXPECT_NE(out.find("\"ok\":1"), std::string::npos);
  EXPECT_NE(out.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(out.find("\"request_id\":\""), std::string::npos);
  EXPECT_NE(out.find("\"duration_us\":"), std::string::npos);
}

}  // namespace
}  // namespace proteus::serve
