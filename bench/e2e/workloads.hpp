// workloads.hpp — the four traffic shapes of the proteus-e2e benchmark.
//
// A workload is a round-robin mix of request shapes (a program, the
// function called, and an argument generator). Everything a run sends is
// derived from --seed before any timing: each shape draws a pool of
// kPool inputs, and request i is shape i mod S, input (i / S) mod kPool.
// Every pool entry's expected reply text is computed by the reference
// interpreter (never the VM), so a served answer is checked against the
// oracle, not against itself.
//
// Why each workload is in the set is recorded in README.md and next to
// its definition in workloads.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace proteus::bench_e2e {

/// Inputs drawn per shape. Sizes inside a pool are stratified (entry j
/// falls in the j-th eighth of the size range), so the pool's total work
/// varies little from seed to seed.
inline constexpr int kPool = 8;

/// One generated pool entry of a shape.
struct Input {
  std::vector<std::string> args;  ///< P literals, as sent in "args"
  std::string expected;           ///< reference-interpreter result text
  /// `"result":"<expected>"` exactly as a correct reply carries it.
  std::string result_field;
};

/// One request shape with its generated pool.
struct ShapeData {
  std::string label;   ///< e.g. "sqs", "spmv"
  std::string path;    ///< repo-relative path of the program
  std::string source;  ///< program text (unsalted)
  std::string fun;
  std::uint64_t key = 0;      ///< daemon cache key of `source`
  std::vector<Input> pool;
  /// Key-mode request lines, one per pool entry, each ending in '\n'.
  std::vector<std::string> lines;
};

class Workload {
 public:
  /// Generates workload `name` for `seed` from the programs under
  /// `root` and computes every expected result with the reference
  /// interpreter. Throws std::runtime_error on an unknown name or a
  /// missing program.
  Workload(const std::string& name, std::uint64_t seed,
           const std::string& root);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::vector<ShapeData>& shapes() const {
    return shapes_;
  }
  /// True when every request carries a uniquely salted "source" (the
  /// cold-compile workload); false when requests address a primed "key".
  [[nodiscard]] bool salted() const { return salted_; }
  /// Requests per daemon before a fresh one is launched; 0 = no limit.
  /// Bounds the cold-compile daemon's unbounded memory-tier growth.
  [[nodiscard]] std::uint64_t round_cap() const { return round_cap_; }
  /// One full pass over every shape's pool.
  [[nodiscard]] std::uint64_t cycle() const {
    return static_cast<std::uint64_t>(shapes_.size()) * kPool;
  }
  /// Replies per measurement window: whole cycles, so every window holds
  /// the same work; about 0.4 s of traffic on the baseline machine.
  /// round_cap() is a multiple of it.
  [[nodiscard]] std::uint64_t window() const { return window_; }

  [[nodiscard]] const ShapeData& shape_of(std::uint64_t i) const {
    return shapes_[i % shapes_.size()];
  }
  [[nodiscard]] const Input& input_of(std::uint64_t i) const {
    return shape_of(i).pool[(i / shapes_.size()) % kPool];
  }

  /// Generates the request lines [first, first + count) before they are
  /// timed. Only salted workloads build new text; key-mode lines are
  /// the pool's.
  void prepare(std::uint64_t first, std::uint64_t count);
  /// Request line i ('\n'-terminated); i must lie in the prepared range
  /// for salted workloads.
  [[nodiscard]] const std::string& line(std::uint64_t i) const;

  /// The "compile" lines that prime a daemon, one per shape.
  [[nodiscard]] std::vector<std::string> priming_lines() const;

  /// 16-hex hash of every generated request stream, expected result and
  /// program text: an edited program or generator changes it.
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

 private:
  [[nodiscard]] std::string salted_line(std::uint64_t i) const;

  std::string name_;
  std::uint64_t seed_;
  bool salted_ = false;
  std::uint64_t round_cap_ = 0;
  std::uint64_t window_ = 0;
  std::vector<ShapeData> shapes_;
  std::uint64_t prepared_first_ = 0;
  std::vector<std::string> prepared_;
  std::string fingerprint_;
};

/// True when reply line `reply` is a successful eval whose result text
/// equals the oracle's for `input`.
[[nodiscard]] inline bool served_correctly(std::string_view reply,
                                           const Input& input) {
  return reply.find("\"ok\":true") != std::string_view::npos &&
         reply.find(input.result_field) != std::string_view::npos;
}

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// FNV-1a 64-bit, the fingerprint hash.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// The median of `v` (the mean of the two middle values when the size is
/// even); 0 when `v` is empty.
[[nodiscard]] double median(std::vector<double> v);

}  // namespace proteus::bench_e2e
