// program_gen.hpp — a seeded generator of well-typed P function bodies,
// shared by the randomized differential tests (integration/fuzz_test.cpp)
// and the dataflow property tests (vm/cfg_test.cpp).
//
// The generator sticks to total operations plus guarded conditionals, so
// almost every program runs to completion; sizes are kept small enough
// that arithmetic cannot overflow.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace proteus::testing {

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  /// A function body of the requested result type, over parameters
  /// s: seq(int), m: seq(seq(int)), k: int.
  std::string body(const std::string& type) {
    if (type == "int") return int_expr(4);
    if (type == "bool") return bool_expr(4);
    if (type == "seq(int)") return seq_expr(4);
    return seqseq_expr(4);
  }

 private:
  int pick(int n) { return static_cast<int>(rng_() % std::uint64_t(n)); }

  std::string small_int() { return std::to_string(pick(5)); }

  std::string int_expr(int fuel) {
    if (fuel <= 0) {
      switch (pick(3)) {
        case 0:
          return small_int();
        case 1:
          return "k";
        default:
          return int_vars_.empty()
                     ? "k"
                     : int_vars_[std::size_t(pick(
                           static_cast<int>(int_vars_.size())))];
      }
    }
    switch (pick(10)) {
      case 0:
        return "(" + int_expr(fuel - 1) + " + " + int_expr(fuel - 1) + ")";
      case 1:
        return "(" + int_expr(fuel - 1) + " - " + int_expr(fuel - 1) + ")";
      case 2:
        return "min(" + int_expr(fuel - 1) + ", " + int_expr(fuel - 1) + ")";
      case 3:
        return "max(" + int_expr(fuel - 1) + ", " + int_expr(fuel - 1) + ")";
      case 4:
        return "#" + seq_expr(fuel - 2);
      case 5:
        return "sum(" + seq_expr(fuel - 1) + ")";
      case 6:
        return "(if " + bool_expr(fuel - 1) + " then " + int_expr(fuel - 1) +
               " else " + int_expr(fuel - 1) + ")";
      case 7: {
        std::string init = int_expr(fuel - 1);
        std::string v = fresh();
        int_vars_.push_back(v);
        std::string rest = int_expr(fuel - 1);
        int_vars_.pop_back();
        return "(let " + v + " = " + init + " in " + rest + ")";
      }
      case 8:
        return "(" + int_expr(fuel - 1) + " * " + small_int() + ")";
      default:
        return "-" + int_expr(fuel - 1);
    }
  }

  std::string bool_expr(int fuel) {
    if (fuel <= 0) return pick(2) ? "true" : "false";
    switch (pick(6)) {
      case 0:
        return "(" + int_expr(fuel - 1) + " < " + int_expr(fuel - 1) + ")";
      case 1:
        return "(" + int_expr(fuel - 1) + " == " + int_expr(fuel - 1) + ")";
      case 2:
        return "(" + bool_expr(fuel - 1) + " and " + bool_expr(fuel - 1) +
               ")";
      case 3:
        return "(" + bool_expr(fuel - 1) + " or " + bool_expr(fuel - 1) + ")";
      case 4:
        return "not " + bool_expr(fuel - 1);
      default:
        return "(" + int_expr(fuel - 1) + " >= " + int_expr(fuel - 1) + ")";
    }
  }

  std::string seq_expr(int fuel) {
    if (fuel <= 0) {
      switch (pick(3)) {
        case 0:
          return "s";
        case 1:
          return "[" + small_int() + ", " + small_int() + "]";
        default:
          return "range1(" + small_int() + ")";
      }
    }
    switch (pick(10)) {
      case 8:
        return "reverse(" + seq_expr(fuel - 1) + ")";
      case 9: {
        std::string a = seq_expr(fuel - 1);
        return "[zp <- zip(" + a + ", reverse(" + a + ")) : zp.1 + zp.2]";
      }
      case 0: {  // iterator with optional filter
        std::string dom = seq_expr(fuel - 1);
        std::string v = fresh();
        int_vars_.push_back(v);
        std::string filter = pick(2) ? " | " + bool_expr(fuel - 2) : "";
        std::string body = int_expr(fuel - 1);
        int_vars_.pop_back();
        return "[" + v + " <- " + dom + filter + " : " + body + "]";
      }
      case 1:
        return "(" + seq_expr(fuel - 1) + " ++ " + seq_expr(fuel - 1) + ")";
      case 2:
        return "flatten(" + seqseq_expr(fuel - 1) + ")";
      case 3:
        return "dist(" + int_expr(fuel - 1) + ", " + small_int() + ")";
      case 4:
        return "[" + int_expr(fuel - 1) + " .. " + int_expr(fuel - 1) + "]";
      case 5:
        return "(if " + bool_expr(fuel - 1) + " then " + seq_expr(fuel - 1) +
               " else " + seq_expr(fuel - 1) + ")";
      case 6:
        return "range1(min(" + int_expr(fuel - 1) + ", 6))";
      default:
        return "s";
    }
  }

  std::string seqseq_expr(int fuel) {
    if (fuel <= 0) return "m";
    switch (pick(4)) {
      case 0: {
        std::string dom = seq_expr(fuel - 1);
        std::string v = fresh();
        int_vars_.push_back(v);
        std::string body = seq_expr(fuel - 1);
        int_vars_.pop_back();
        return "[" + v + " <- " + dom + " : " + body + "]";
      }
      case 1:
        return "dist(" + seq_expr(fuel - 1) + ", " + small_int() + ")";
      case 2:
        return "(" + seqseq_expr(fuel - 1) + " ++ " + seqseq_expr(fuel - 1) +
               ")";
      default:
        return "m";
    }
  }

  std::string fresh() {
    // += in two steps: `"g" + to_string(...)` trips GCC 12's
    // -Werror=restrict false positive (PR105651) at -O2+.
    std::string name = "g";
    name += std::to_string(++counter_);
    return name;
  }

  std::mt19937_64 rng_;
  std::vector<std::string> int_vars_;
  int counter_ = 0;
};

/// The randomized differential family's program for (seed, variant):
/// one function fz(s, m, k) whose body has the variant's result type
/// (int, bool, seq(int), seq(seq(int))).
inline std::string fuzz_program(std::uint64_t seed, int variant) {
  const char* kTypes[] = {"int", "bool", "seq(int)", "seq(seq(int))"};
  ProgramGen gen(seed * 41 + static_cast<std::uint64_t>(variant));
  std::string result_type = kTypes[variant % 4];
  return "fun fz(s: seq(int), m: seq(seq(int)), k: int): " + result_type +
         " = " + gen.body(result_type);
}

/// The helper family's program for `seed`: a random body fed through
/// fixed helper functions — covers extension synthesis, broadcast
/// function values, and flattened recursion inside randomly generated
/// iterators.
inline std::string helper_program(std::uint64_t seed) {
  ProgramGen gen(seed * 97 + 5);
  std::string program = R"(
    fun clampid(x: int): int = if x < 0 then -x else x
    fun tri(n: int): seq(int) = [i <- [1 .. min(n, 6)] : i]
    fun rsum(v: seq(int)): int =
      if #v == 0 then 0 else v[1] + rsum([i <- [1 .. #v - 1] : v[i + 1]])
    fun apply2(f: (int) -> int, x: int): int = f(f(x))
    fun blend(x: int, y: int, v: seq(int)): int = x * y + #v - y
  )";
  // A random seq body wrapped so every helper is exercised at depth 1
  // (blend^1 reads three conformable frames).
  program += "fun fz(s: seq(int), m: seq(seq(int)), k: int): seq(int) = "
             "[g0 <- " + gen.body("seq(int)") +
             " : clampid(g0) + rsum(tri(g0)) + apply2(clampid, g0)"
             " + blend(g0, k, s)]";
  return program;
}

}  // namespace proteus::testing
