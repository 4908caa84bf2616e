// Randomized differential testing: generate well-typed P programs from a
// seeded grammar, compile them through the full pipeline, and require the
// reference interpreter and the bytecode VM (at -O1, -O0, and on the
// plan-backed arena) to agree on random inputs (a thrown EvalError from
// every engine also counts as agreement).
//
// The generator sticks to total operations plus guarded conditionals, so
// almost every program runs to completion; sizes are kept small enough
// that arithmetic cannot overflow.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "testing.hpp"
#include "vm/verify.hpp"
#include "xform/verify.hpp"

namespace proteus {
namespace {

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

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

  std::string fresh() { return "g" + std::to_string(++counter_); }

  std::mt19937_64 rng_;
  std::vector<std::string> int_vars_;
  int counter_ = 0;
};

struct Outcome {
  bool threw = false;
  interp::Value value;
};

enum class Engine { kRef, kVm };

Outcome run(Session& s, const std::string& fn, const interp::ValueList& args,
            Engine engine) {
  Outcome o;
  try {
    switch (engine) {
      case Engine::kRef:
        o.value = s.run_reference(fn, args);
        break;
      case Engine::kVm:
        o.value = s.run_vm(fn, args);
        break;
    }
  } catch (const EvalError&) {
    o.threw = true;
  } catch (const rt::RuntimeTrap&) {
    // Budget/depth traps from the governor count as "threw" for engine
    // agreement, same as EvalError (all engines share the limits).
    o.threw = true;
  }
  return o;
}

/// Runs `fn` on both engines (plus, when given, the VM of a session
/// compiled without the VCODE optimizer) and asserts pairwise agreement.
void expect_engines_agree(Session& s, const std::string& fn,
                          const interp::ValueList& args,
                          std::uint64_t input,
                          Session* unfused = nullptr) {
  Outcome ref = run(s, fn, args, Engine::kRef);
  Outcome bc = run(s, fn, args, Engine::kVm);
  // The plan-backed arena VM must agree bit-for-bit with the heap VM,
  // including on which programs throw.
  s.set_arena(true);
  Outcome arena = run(s, fn, args, Engine::kVm);
  s.set_arena(false);
  EXPECT_EQ(ref.threw, bc.threw) << "input " << input << " (vm)";
  EXPECT_EQ(bc.threw, arena.threw) << "input " << input << " (vm arena)";
  if (!bc.threw && !arena.threw) {
    EXPECT_EQ(bc.value, arena.value)
        << "input " << input << ": vm heap " << interp::to_text(bc.value)
        << " vs vm arena " << interp::to_text(arena.value);
  }
  if (!ref.threw && !bc.threw) {
    EXPECT_EQ(ref.value, bc.value)
        << "input " << input << ": ref " << interp::to_text(ref.value)
        << " vs vm " << interp::to_text(bc.value);
  }
  if (unfused != nullptr) {
    Outcome plain = run(*unfused, fn, args, Engine::kVm);
    EXPECT_EQ(bc.threw, plain.threw) << "input " << input << " (vm -O0)";
    if (!bc.threw && !plain.threw) {
      EXPECT_EQ(bc.value, plain.value)
          << "input " << input << ": vm -O1 " << interp::to_text(bc.value)
          << " vs vm -O0 " << interp::to_text(plain.value);
    }
  }
}

xform::PipelineOptions unfused_options() {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return options;
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, EnginesAgreeOnRandomPrograms) {
  const std::uint64_t seed = GetParam();
  const char* kTypes[] = {"int", "bool", "seq(int)", "seq(seq(int))"};

  for (int variant = 0; variant < 4; ++variant) {
    Gen gen(seed * 41 + static_cast<std::uint64_t>(variant));
    std::string result_type = kTypes[variant % 4];
    std::string program =
        "fun fz(s: seq(int), m: seq(seq(int)), k: int): " + result_type +
        " = " + gen.body(result_type);

    SCOPED_TRACE(program);
    Session session(program);
    Session unfused(program, {}, unfused_options());
    // every random program's transformed output must be structurally valid
    xform::verify_vector_program(session.compiled().vec);
    // ...and pass the shape/depth analyzer and bytecode verifier clean
    EXPECT_TRUE(session.compiled().analysis.ok())
        << session.compiled().analysis.to_text();
    EXPECT_TRUE(vm::verify_module(*session.compiled().module).ok())
        << vm::verify_module(*session.compiled().module).to_text();

    for (std::uint64_t input = 0; input < 3; ++input) {
      interp::ValueList args;
      seq::Array sa =
          seq::random_nested_ints(seed + input, 0, 4, 0);
      seq::Array ma = seq::random_nested_ints(seed + input + 50, 1, 3, 3);
      args.push_back(interp::from_array(
          seq::Array::ints(seq::random_ints(seed + input, 4, -5, 5)),
          lang::Type::seq(lang::Type::int_())));
      args.push_back(interp::from_array(
          seq::Array::nested(
              ma.lengths(),
              seq::Array::ints(seq::random_ints(seed + input + 9,
                                                ma.inner().length(), -5, 5))),
          lang::Type::seq(lang::Type::seq(lang::Type::int_()))));
      args.push_back(interp::Value::ints(static_cast<vl::Int>(input) + 1));

      expect_engines_agree(session, "fz", args, input, &unfused);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

/// Second family: random bodies fed through fixed helper functions —
/// covers extension synthesis, broadcast function values, and flattened
/// recursion inside randomly generated iterators.
class FuzzHelpers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzHelpers, EnginesAgreeWithUserFunctionCalls) {
  const std::uint64_t seed = GetParam();
  Gen gen(seed * 97 + 5);
  std::string program = R"(
    fun clampid(x: int): int = if x < 0 then -x else x
    fun tri(n: int): seq(int) = [i <- [1 .. min(n, 6)] : i]
    fun rsum(v: seq(int)): int =
      if #v == 0 then 0 else v[1] + rsum([i <- [1 .. #v - 1] : v[i + 1]])
    fun apply2(f: (int) -> int, x: int): int = f(f(x))
  )";
  // A random seq body wrapped so every helper is exercised at depth 1.
  program += "fun fz(s: seq(int), m: seq(seq(int)), k: int): seq(int) = "
             "[g0 <- " + gen.body("seq(int)") +
             " : clampid(g0) + rsum(tri(g0)) + apply2(clampid, g0)]";

  SCOPED_TRACE(program);
  Session session(program);
  Session unfused(program, {}, unfused_options());
  xform::verify_vector_program(session.compiled().vec);
  EXPECT_TRUE(session.compiled().analysis.ok())
      << session.compiled().analysis.to_text();
  EXPECT_TRUE(vm::verify_module(*session.compiled().module).ok())
      << vm::verify_module(*session.compiled().module).to_text();

  for (std::uint64_t input = 0; input < 3; ++input) {
    interp::ValueList args;
    args.push_back(interp::from_array(
        seq::Array::ints(seq::random_ints(seed + input, 5, -6, 6)),
        lang::Type::seq(lang::Type::int_())));
    seq::Array ma = seq::random_nested_ints(seed + input + 70, 1, 3, 3);
    args.push_back(interp::from_array(
        seq::Array::nested(
            ma.lengths(),
            seq::Array::ints(seq::random_ints(seed + input + 9,
                                              ma.inner().length(), -6, 6))),
        lang::Type::seq(lang::Type::seq(lang::Type::int_()))));
    args.push_back(interp::Value::ints(static_cast<vl::Int>(input) + 2));

    expect_engines_agree(session, "fz", args, input, &unfused);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHelpers,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace proteus
