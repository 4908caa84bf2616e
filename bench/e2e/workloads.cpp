#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/proteus.hpp"
#include "serve/json.hpp"
#include "vm/module_io.hpp"

namespace proteus::bench_e2e {

namespace {

/// splitmix64: inputs depend on the seed alone, on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    s_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }

  /// Uniform in the j-th of kPool equal strata of [lo, hi].
  std::int64_t stratum(std::int64_t lo, std::int64_t hi, int j) {
    const std::int64_t span = hi - lo + 1;
    const std::int64_t a = lo + span * j / kPool;
    const std::int64_t b = lo + span * (j + 1) / kPool - 1;
    return uniform(a, std::max(a, b));
  }

 private:
  std::uint64_t s_;
};

/// A real literal with three decimals ("-1.250"): always carries a '.'
/// so the literal types as real.
std::string real_lit(std::int64_t milli) {
  std::string s = milli < 0 ? "-" : "";
  const std::uint64_t m = milli < 0 ? static_cast<std::uint64_t>(-milli)
                                    : static_cast<std::uint64_t>(milli);
  s += std::to_string(m / 1000);
  s += '.';
  s += std::to_string(m % 1000 + 1000).substr(1);
  return s;
}

std::string real_seq(Rng& r, int n) {
  std::string s = "[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ',';
    s += real_lit(r.uniform(-100000, 100000));
  }
  return s + "]";
}

std::string int_seq(Rng& r, int n, std::int64_t lo, std::int64_t hi) {
  std::string s = "[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ',';
    s += std::to_string(r.uniform(lo, hi));
  }
  return s + "]";
}

/// nbody.p bodies: ((x, y), (vx, vy), mass).
std::string bodies(Rng& r, int n) {
  std::string s = "[";
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ',';
    s += "((";
    s += real_lit(r.uniform(-10000, 10000));
    s += ',';
    s += real_lit(r.uniform(-10000, 10000));
    s += "),(";
    s += real_lit(r.uniform(-3000, 3000));
    s += ',';
    s += real_lit(r.uniform(-3000, 3000));
    s += "),";
    s += real_lit(r.uniform(100, 10000));
    s += ')';
  }
  return s + "]";
}

/// spmv.p rows: `rows` sparse rows of (column, value) pairs over `cols`
/// columns. Row lengths are a shuffle of 1, 2, ..., 64, 1, 2, ..., so
/// every input holds the same number of nonzeros.
std::string sparse_rows(Rng& r, int rows, int cols) {
  std::vector<std::int64_t> nnz(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < nnz.size(); ++i) {
    nnz[i] = static_cast<std::int64_t>(i % 64) + 1;
  }
  for (std::size_t i = nnz.size(); i > 1; --i) {
    std::swap(nnz[i - 1], nnz[static_cast<std::size_t>(
                              r.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::string s = "[";
  for (std::size_t i = 0; i < nnz.size(); ++i) {
    if (i > 0) s += ',';
    s += '[';
    for (std::int64_t k = 0; k < nnz[i]; ++k) {
      if (k > 0) s += ',';
      s += '(';
      s += std::to_string(r.uniform(1, cols));
      s += ',';
      s += real_lit(r.uniform(-10000, 10000));
      s += ')';
    }
    s += ']';
  }
  return s + "]";
}

/// graph.p adjacency lists: `n` vertices, each with `degree` distinct
/// out-neighbours other than itself.
std::string adjacency(Rng& r, int n, int degree) {
  std::string s = "[";
  for (int v = 1; v <= n; ++v) {
    if (v > 1) s += ',';
    std::vector<std::int64_t> out;
    while (static_cast<int>(out.size()) < degree) {
      const std::int64_t w = r.uniform(1, n);
      if (w != v && std::find(out.begin(), out.end(), w) == out.end()) {
        out.push_back(w);
      }
    }
    s += '[';
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (k > 0) s += ',';
      s += std::to_string(out[k]);
    }
    s += ']';
  }
  return s + "]";
}

using ArgGen = std::function<std::vector<std::string>(Rng&, int j)>;

struct ShapeSpec {
  const char* label;
  const char* path;
  const char* fun;
  ArgGen args;
};

struct WorkloadSpec {
  const char* name;
  bool salted;
  std::uint64_t round_cap;
  std::uint64_t window_cycles;
  std::vector<ShapeSpec> shapes;
};

const char* const kSort = "examples/programs/sort.p";
const char* const kStats = "examples/programs/stats.p";
const char* const kNbody = "examples/programs/nbody.p";
const char* const kMandel = "examples/programs/mandel.p";
const char* const kGraph = "examples/programs/graph.p";
const char* const kSpmv = "bench/e2e/programs/spmv.p";

// The cheap calls shared by warm-small and cold-compile.
ShapeSpec small_sqs() {
  return {"sqs", kSort, "sqs", [](Rng& r, int j) {
            return std::vector<std::string>{
                std::to_string(r.stratum(1, 16, j))};
          }};
}
ShapeSpec small_mean() {
  return {"mean", kStats, "mean", [](Rng& r, int) {
            return std::vector<std::string>{real_seq(r, 16)};
          }};
}
ShapeSpec small_kinetic() {
  return {"kinetic", kNbody, "kinetic",
          [](Rng& r, int) { return std::vector<std::string>{bodies(r, 2)}; }};
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      // Per-request serving overhead: tiny arguments, sub-microsecond VM
      // work, so JSON, cache lookup, Session setup, metrics and the
      // telemetry envelope dominate. Fusion should change nothing here.
      {"warm-small",
       false,
       0,
       500,
       {small_sqs(), small_mean(), small_kinetic()}},
      // Codec-bound in both directions: large literals in (centered,
      // spmv) or out (sqs) with O(n) VM work. Per-shape costs are spaced
      // >= 2x apart so the median falls inside one shape's mode.
      {"bulk-io",
       false,
       0,
       2,
       {{"sqs", kSort, "sqs",
         [](Rng& r, int j) {
           return std::vector<std::string>{
               std::to_string(r.stratum(45000, 50000, j))};
         }},
        {"centered", kStats, "centered",
         [](Rng& r, int) {
           return std::vector<std::string>{real_seq(r, 12500)};
         }},
        {"spmv", kSpmv, "spmv",
         [](Rng& r, int) {
           return std::vector<std::string>{sparse_rows(r, 448, 1024),
                                           real_seq(r, 1024)};
         }}}},
      // VM-bound, one shape per irregular R2 pattern: masked iteration
      // (mandel, R2d), recursive divide-and-conquer (quicksort), and
      // frontier gather (graph reachability). The codec is a small share.
      {"kernels",
       false,
       0,
       2,
       {{"mandel", kMandel, "mass",
         [](Rng& r, int j) {
           return std::vector<std::string>{
               std::to_string(r.stratum(60, 68, j)), "32",
               std::to_string(r.stratum(56, 72, j))};
         }},
        {"quicksort", kSort, "quicksort",
         [](Rng& r, int) {
           return std::vector<std::string>{int_seq(r, 5000, 0, 1000000)};
         }},
        {"reach", kGraph, "count_reachable",
         [](Rng& r, int) {
           return std::vector<std::string>{adjacency(r, 400, 4),
                                           std::to_string(r.uniform(1, 400))};
         }}}},
      // Every request is a compile miss: each program carries a unique
      // salt function, so no correct cache can serve it. The daemon's
      // memory tier has no bound, so a fresh daemon serves each round of
      // round_cap requests to keep the run's memory use bounded.
      {"cold-compile",
       true,
       1024,
       16,
       {small_sqs(), small_mean(),
        {"member", kGraph, "member",
         [](Rng& r, int) {
           return std::vector<std::string>{std::to_string(r.uniform(0, 9)),
                                           int_seq(r, 8, 0, 9)};
         }},
        small_kinetic()}},
  };
  return kSpecs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

serve::Json string_array(const std::vector<std::string>& items) {
  serve::Json::Array a;
  a.reserve(items.size());
  for (const std::string& s : items) a.emplace_back(s);
  return serve::Json(std::move(a));
}

/// Draws shape `spec`'s pool and computes each expected result on the
/// reference interpreter.
ShapeData generate_shape(const ShapeSpec& spec, const std::string& workload,
                         std::uint64_t seed, std::size_t index,
                         const std::string& root, const std::string& tag) {
  ShapeData shape;
  shape.label = spec.label;
  shape.path = spec.path;
  shape.source = read_file(root + "/" + spec.path);
  shape.fun = spec.fun;
  // The daemon's key for a "source" request without "entry".
  shape.key = vm::source_hash(shape.source + '\x1E', tag);

  Rng rng(fnv1a(workload + '/' + spec.label,
                seed * 0x9E3779B97F4A7C15ULL + index));
  Session oracle(shape.source);
  for (int j = 0; j < kPool; ++j) {
    Input input;
    input.args = spec.args(rng, j);
    interp::ValueList values;
    for (const std::string& a : input.args) values.push_back(parse_value(a));
    input.expected = interp::to_text(oracle.run_reference(shape.fun, values));
    input.result_field = "\"result\":" + serve::Json(input.expected).dump();

    serve::Json::Object req;
    req["op"] = "eval";
    req["key"] = vm::hash_hex(shape.key);
    req["fun"] = shape.fun;
    req["args"] = string_array(input.args);
    shape.lines.push_back(serve::Json(std::move(req)).dump() + '\n');
    shape.pool.push_back(std::move(input));
  }
  return shape;
}

}  // namespace

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const WorkloadSpec& s : specs()) names.emplace_back(s.name);
    return names;
  }();
  return kNames;
}

Workload::Workload(const std::string& name, std::uint64_t seed,
                   const std::string& root)
    : name_(name), seed_(seed) {
  const auto spec = std::find_if(specs().begin(), specs().end(),
                                 [&](const WorkloadSpec& s) {
                                   return name == s.name;
                                 });
  if (spec == specs().end()) {
    throw std::runtime_error("unknown workload " + name);
  }
  salted_ = spec->salted;
  round_cap_ = spec->round_cap;

  const std::string tag = vm::options_tag(/*optimize=*/true, /*verify=*/true);
  shapes_.resize(spec->shapes.size());
  window_ = spec->window_cycles * cycle();
  // One thread per shape: the reference interpreter is the slow part of
  // generation, and separate Sessions share no state.
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(shapes_.size());
  for (std::size_t s = 0; s < shapes_.size(); ++s) {
    threads.emplace_back([&, s] {
      try {
        shapes_[s] = generate_shape(spec->shapes[s], name, seed, s, root, tag);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::uint64_t fp = fnv1a(name + '\n' + std::to_string(seed));
  for (const ShapeData& shape : shapes_) {
    fp = fnv1a(shape.path + '\n' + shape.source + '\n' + shape.fun, fp);
    for (const Input& input : shape.pool) {
      for (const std::string& a : input.args) fp = fnv1a(a, fp);
      fp = fnv1a(input.expected, fp);
    }
  }
  if (salted_) fp = fnv1a(salted_line(0), fp);
  fingerprint_ = vm::hash_hex(fp);
}

std::string Workload::salted_line(std::uint64_t i) const {
  const ShapeData& shape = shape_of(i);
  // Unique per request index, derived from the seed.
  const std::uint64_t salt =
      (fnv1a("salt", seed_) % 1000000007ULL) * 100000000ULL + i;
  serve::Json::Object req;
  req["op"] = "eval";
  req["source"] = shape.source + "\nfun bench_salt(): int = " +
                  std::to_string(salt) + "\n";
  req["fun"] = shape.fun;
  req["args"] = string_array(input_of(i).args);
  return serve::Json(std::move(req)).dump() + '\n';
}

void Workload::prepare(std::uint64_t first, std::uint64_t count) {
  if (!salted_) return;
  prepared_first_ = first;
  prepared_.clear();
  prepared_.reserve(count);
  for (std::uint64_t i = first; i < first + count; ++i) {
    prepared_.push_back(salted_line(i));
  }
}

const std::string& Workload::line(std::uint64_t i) const {
  if (!salted_) return shape_of(i).lines[(i / shapes_.size()) % kPool];
  return prepared_.at(i - prepared_first_);
}

std::vector<std::string> Workload::priming_lines() const {
  std::vector<std::string> lines;
  for (const ShapeData& shape : shapes_) {
    serve::Json::Object req;
    req["op"] = "compile";
    req["source"] = shape.source;
    lines.push_back(serve::Json(std::move(req)).dump() + '\n');
  }
  return lines;
}

}  // namespace proteus::bench_e2e
