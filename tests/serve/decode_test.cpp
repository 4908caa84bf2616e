// decode_test.cpp — the daemon's argument and result path: literals decode
// straight into the flat representation by the callee's signature and
// results render straight from it (kernels/codec.hpp). The replies must be
// the ones the boxed path (parse_value -> from_boxed -> VM -> to_boxed ->
// to_text) produced, with no literal of the benchmark's shapes leaving the
// fast path; signature mismatches are the client's error (bad_request);
// and no literal or source can take the daemon down.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/proteus.hpp"

namespace proteus::serve {
namespace {

std::string read_file(const std::string& relative) {
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/" + relative);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Json eval_request(const std::string& source, const std::string& fun,
                  const std::vector<std::string>& args) {
  Json::Object req;
  req["op"] = "eval";
  req["source"] = source;
  req["fun"] = fun;
  Json::Array a;
  for (const std::string& s : args) a.emplace_back(s);
  req["args"] = Json(std::move(a));
  return Json(std::move(req));
}

/// Literal generators shaped like bench/e2e's workloads, at smaller sizes.
class Shapes {
 public:
  explicit Shapes(std::uint64_t seed) : rng_(seed) {}

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }

  /// "-1.250": three decimals, always a '.'.
  std::string real_lit() {
    const std::int64_t milli = uniform(-100000, 100000);
    const std::int64_t m = milli < 0 ? -milli : milli;
    std::string s = milli < 0 ? "-" : "";
    s += std::to_string(m / 1000);
    s += '.';
    s += std::to_string(m % 1000 + 1000).substr(1);
    return s;
  }

  std::string real_seq(int n) {
    std::string s = "[";
    for (int i = 0; i < n; ++i) {
      if (i > 0) s += ',';
      s += real_lit();
    }
    return s + "]";
  }

  std::string int_seq(int n, std::int64_t lo, std::int64_t hi) {
    std::string s = "[";
    for (int i = 0; i < n; ++i) {
      if (i > 0) s += ',';
      s += std::to_string(uniform(lo, hi));
    }
    return s + "]";
  }

  std::string bodies(int n) {
    std::string s = "[";
    for (int i = 0; i < n; ++i) {
      s += i > 0 ? ",((" : "((";
      for (const char* sep : {",", "),(", ",", "),"}) {
        s += real_lit();
        s += sep;
      }
      s += std::to_string(uniform(1, 100));
      s += ".5)";
    }
    return s + "]";
  }

  std::string sparse_rows(int rows, int cols) {
    std::string s = "[";
    for (int i = 0; i < rows; ++i) {
      s += i > 0 ? ",[" : "[";
      const std::int64_t nnz = uniform(1, 64);
      for (std::int64_t k = 0; k < nnz; ++k) {
        s += k > 0 ? ",(" : "(";
        s += std::to_string(uniform(1, cols));
        s += ',';
        s += real_lit();
        s += ')';
      }
      s += ']';
    }
    return s + "]";
  }

  std::string adjacency(int n, int degree) {
    std::string s = "[";
    for (int v = 1; v <= n; ++v) {
      s += v > 1 ? ",[" : "[";
      for (int k = 0; k < degree; ++k) {
        if (k > 0) s += ',';
        s += std::to_string(uniform(1, n));
      }
      s += ']';
    }
    return s + "]";
  }

 private:
  std::mt19937_64 rng_;
};

/// One NDJSON line through the request engine, the reply parsed back.
Json serve_line(Server& server, const std::string& line) {
  std::optional<Json> reply = parse_json(server.handle_line(line));
  EXPECT_TRUE(reply.has_value()) << line;
  return reply.value_or(Json());
}

struct Call {
  std::string program;
  std::string fun;
  std::vector<std::string> args;
};

/// One call of every shape of every bench/e2e workload.
std::vector<Call> workload_calls(Shapes& g) {
  const std::string sort = read_file("examples/programs/sort.p");
  const std::string stats = read_file("examples/programs/stats.p");
  const std::string nbody = read_file("examples/programs/nbody.p");
  const std::string mandel = read_file("examples/programs/mandel.p");
  const std::string graph = read_file("examples/programs/graph.p");
  const std::string spmv = read_file("bench/e2e/programs/spmv.p");
  // cold-compile salts each program with a unique function.
  const std::string salt = "\nfun bench_salt(): int = 424242\n";
  return {
      // warm-small
      {sort, "sqs", {std::to_string(g.uniform(1, 16))}},
      {stats, "mean", {g.real_seq(16)}},
      {nbody, "kinetic", {g.bodies(2)}},
      // bulk-io
      {sort, "sqs", {std::to_string(g.uniform(4500, 5000))}},
      {stats, "centered", {g.real_seq(1250)}},
      {spmv, "spmv", {g.sparse_rows(45, 128), g.real_seq(128)}},
      // kernels
      {mandel,
       "mass",
       {std::to_string(g.uniform(6, 8)), "4", std::to_string(g.uniform(8, 12))}},
      {sort, "quicksort", {g.int_seq(500, 0, 1000000)}},
      {graph, "count_reachable", {g.adjacency(40, 4), "7"}},
      // cold-compile
      {sort + salt, "sqs", {"9"}},
      {stats + salt, "mean", {g.real_seq(16)}},
      {graph + salt, "member", {"3", g.int_seq(8, 0, 9)}},
      {nbody + salt, "kinetic", {g.bodies(2)}},
  };
}

TEST(ServeDecode, WorkloadShapedLiteralsMatchTheBoxedPathWithNoFallback) {
  Shapes g(18);
  Server server;
  for (const Call& c : workload_calls(g)) {
    // The boxed path the daemon used to take, through the public API.
    Session oracle(c.program);
    interp::ValueList boxed;
    for (const std::string& a : c.args) boxed.push_back(parse_value(a));
    const std::string expected = interp::to_text(oracle.run_vm(c.fun, boxed));
    const obs::MetricsRegistry& counts = oracle.last_cost().metrics;

    for (int pass = 0; pass < 2; ++pass) {  // miss, then warm hit
      const Json reply =
          server.handle_request(eval_request(c.program, c.fun, c.args));
      ASSERT_TRUE(reply.get("ok").as_bool()) << c.fun << ": " << reply.dump();
      EXPECT_EQ(reply.get("result").as_string(), expected) << c.fun;
      EXPECT_EQ(reply.get("engine").as_string(), "vm");
      const Json& m = reply.get("metrics");
      for (const char* name :
           {"vm.instructions", "vm.calls", "vl.element_work",
            "vl.primitive_calls", "vl.buffer_allocs"}) {
        EXPECT_EQ(static_cast<std::uint64_t>(m.get(name).as_int()),
                  counts.get(name))
            << c.fun << " " << name;
      }
    }
  }
  const obs::MetricsRegistry metrics = server.metrics();
  EXPECT_EQ(metrics.get("serve.decode.fallbacks"), 0U);
  EXPECT_EQ(metrics.get("serve.eval.count"), 26U);
}

TEST(ServeDecode, ExpressionsStillEvaluateThroughTheGeneralEvaluator) {
  const std::string source =
      "fun total(v: seq(int)): int = sum(v)\n"
      "fun scale(x: real): real = x * 2.0\n";
  Server server;
  Json r = server.handle_request(
      eval_request(source, "total", {"[1..4] ++ [10 * 2]"}));
  ASSERT_TRUE(r.get("ok").as_bool()) << r.dump();
  EXPECT_EQ(r.get("result").as_string(), "30");
  r = server.handle_request(eval_request(source, "scale", {"(1.5)"}));
  ASSERT_TRUE(r.get("ok").as_bool()) << r.dump();
  EXPECT_EQ(r.get("result").as_string(), "3");
  EXPECT_EQ(server.metrics().get("serve.decode.fallbacks"), 2U);

  // The one widening: an empty literal takes its type from the signature.
  r = server.handle_request(eval_request(source, "total", {"[]"}));
  ASSERT_TRUE(r.get("ok").as_bool()) << r.dump();
  EXPECT_EQ(r.get("result").as_string(), "0");
  EXPECT_EQ(server.metrics().get("serve.decode.fallbacks"), 2U);
}

TEST(ServeDecode, DiskModulesRunTheSameTextPath) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "proteus_decode_disk").string();
  std::filesystem::remove_all(dir);
  const std::string source = read_file("bench/e2e/programs/spmv.p");
  Shapes g(5);
  const std::vector<std::string> args = {g.sparse_rows(20, 64),
                                         g.real_seq(64)};
  std::string key;
  std::string expected;
  {
    ServerOptions options;
    options.cache_dir = dir;
    Server first(options);
    const Json reply = first.handle_request(eval_request(source, "spmv", args));
    ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
    key = reply.get("key").as_string();
    expected = reply.get("result").as_string();
  }
  ServerOptions options;
  options.cache_dir = dir;
  Server second(options);
  Json::Object req;
  req["op"] = "eval";
  req["key"] = key;
  req["fun"] = "spmv";
  Json::Array a;
  for (const std::string& s : args) a.emplace_back(s);
  req["args"] = Json(std::move(a));
  const Json reply = second.handle_request(Json(std::move(req)));
  ASSERT_TRUE(reply.get("ok").as_bool()) << reply.dump();
  EXPECT_EQ(reply.get("engine").as_string(), "vm-module");
  EXPECT_EQ(reply.get("result").as_string(), expected);
  EXPECT_EQ(second.metrics().get("serve.decode.fallbacks"), 0U);
  std::filesystem::remove_all(dir);
}

TEST(ServeDecode, OutOfRangeLiteralsAreStructuredErrorsAndServingContinues) {
  // Each line once escaped as std::out_of_range and terminated proteusd.
  const char* const lines[] = {
      R"({"op":"eval","source":"fun f(x: real): real = x","fun":"f","args":["1e999"]})",
      R"({"op":"eval","source":"fun f(x: real): real = x","fun":"f","args":["-1e999"]})",
      R"({"op":"eval","source":"fun f(x: real): real = x * 1e999","fun":"f","args":["1.0"]})",
      R"({"op":"compile","source":"fun g(x: ((int,int),int)): int = x.99999999999999.1"})",
      R"({"op":"compile","source":"fun g(x: (int,int)): int = x.4294967297"})",
  };
  Server server;
  for (const char* line : lines) {
    const Json reply = serve_line(server, line);
    EXPECT_FALSE(reply.get("ok").as_bool(true)) << line;
    const std::string kind = reply.get("error").get("kind").as_string();
    EXPECT_TRUE(kind == "bad_request" || kind == "compile")
        << line << " -> " << reply.dump();
    const Json pong = serve_line(server, R"({"op":"ping"})");
    EXPECT_TRUE(pong.get("pong").as_bool()) << line;
  }
  // A subnormal is a real like any other.
  const Json sub = serve_line(
      server,
      R"({"op":"eval","source":"fun f(x: real): real = x","fun":"f","args":["1e-310"]})");
  ASSERT_TRUE(sub.get("ok").as_bool()) << sub.dump();
  EXPECT_EQ(sub.get("result").as_string(), "1e-310");
  EXPECT_TRUE(serve_line(server, R"({"op":"ping"})").get("pong").as_bool());
}

}  // namespace
}  // namespace proteus::serve
