// Randomized differential testing: generate well-typed P programs from a
// seeded grammar, compile them through the full pipeline, and require the
// reference interpreter and the bytecode VM (at -O1 and -O0, both
// clearing dead registers on the memory plan) to agree on random inputs
// (a thrown EvalError from every engine also counts as agreement).
//
// The generator sticks to total operations plus guarded conditionals, so
// almost every program runs to completion; sizes are kept small enough
// that arithmetic cannot overflow.
#include <gtest/gtest.h>

#include <sstream>

#include "program_gen.hpp"
#include "testing.hpp"
#include "vm/verify.hpp"
#include "xform/verify.hpp"

namespace proteus {
namespace {

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
  EXPECT_EQ(ref.threw, bc.threw) << "input " << input << " (vm)";
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
  for (int variant = 0; variant < 4; ++variant) {
    const std::string program = testing::fuzz_program(seed, variant);

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
  const std::string program = testing::helper_program(seed);

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
