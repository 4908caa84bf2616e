// End-to-end tests of the execution governor and deterministic fault
// injection (docs/ROBUSTNESS.md):
//
//   * every trap code T001-T008 is triggered through the public API,
//   * an injected runtime fault is contained: it surfaces as a structured
//     T006/T007 trap, alike from a compiled Session and from a Session
//     over the bare module, leaks nothing, leaves live arrays intact, and
//     the next run is clean and matches the reference interpreter,
//   * an injected optimizer fault falls back to the -O0 module at
//     compile time, and
//   * exception-safety sweeps fail every allocation / kernel charge of a
//     run in turn (the CI sanitizer job runs them under ASan).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "lang/parser.hpp"
#include "seq/nested.hpp"
#include "testing.hpp"
#include "vm/module_io.hpp"

namespace proteus {
namespace {

using testing::val;

constexpr const char* kSquares =
    "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]";

/// Recursion-bounded but work-heavy: each level issues ~2n element work,
/// so deadlines and step budgets trip long before the call-depth limit.
constexpr const char* kHeavy = R"(
  fun level(n: int): int = sum([i <- [1 .. n] : i]) - sum([i <- [1 .. n] : i])
  fun heavy(n: int, k: int): int =
    if k <= 0 then n else heavy(level(n) + n, k - 1)
)";

constexpr const char* kQuicksort = R"(
  fun qs(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else let p = v[1 + #v / 2] in
         qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
           ++ qs([x <- v | x > p : x])
)";
constexpr const char* kQsInput = "[5,3,8,1,9,2,7,4,6,0,5,3,8,1,9,2,7,4,6,0]";

/// Arms `spec` and runs qs on `s` until every armed site has fired. Each
/// run that traps must count its code once in rt.trap.* and release every
/// byte it charged, and `live`, an array alive across every unwind, must
/// keep its descriptor invariants. Returns the outcome of each run ("ok"
/// or the trap code), in order.
std::vector<std::string> run_until_drained(Session& s, const std::string& spec,
                                           const kernels::VValue& live) {
  rt::arm_faults(rt::parse_fault_plan(spec));
  std::vector<std::string> outcomes;
  for (int run = 0; run < 4 && rt::faults_armed(); ++run) {
    const std::uint64_t resident = rt::resident_bytes();
    try {
      (void)s.run_vm("qs", {val(kQsInput)});
      outcomes.emplace_back("ok");
    } catch (const rt::RuntimeTrap& e) {
      outcomes.emplace_back(e.code());
      EXPECT_EQ(s.last_cost().metrics.get(std::string("rt.trap.") + e.code()),
                1u)
          << spec;
    }
    EXPECT_EQ(rt::resident_bytes(), resident) << spec;
    live.as_seq().validate();
  }
  EXPECT_FALSE(rt::faults_armed()) << spec << " never fired";
  return outcomes;
}

/// The trap codes among `outcomes`.
std::multiset<std::string> trap_codes(const std::vector<std::string>& outcomes) {
  std::multiset<std::string> codes;
  for (const std::string& outcome : outcomes) {
    if (outcome != "ok") codes.insert(outcome);
  }
  return codes;
}

/// The containment contract for one fault spec: a compiled Session (at
/// -O1 and at -O0) and a Session over the bare -O1 module each trap once
/// per armed site with the expected codes — the compiled and the module
/// Session in the same order, since they run the same module — and the
/// next run of each equals the reference interpreter's result.
void expect_contained(const std::string& spec,
                      const std::multiset<std::string>& codes) {
  Session compiled(kQuicksort);
  xform::PipelineOptions o0;
  o0.optimize_vcode = false;
  Session unoptimized(kQuicksort, {}, o0);
  vm::ModuleLoadResult loaded =
      vm::load_module(vm::module_bytes(*compiled.compiled().module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
  Session image(loaded.module);
  const interp::Value reference = compiled.run_reference("qs", {val(kQsInput)});

  const kernels::VValue live = kernels::from_boxed(
      val("[[1,2],[3],[4,5,6]]"), lang::parse_type("seq(seq(int))"));
  const std::vector<std::string> from_compiled =
      run_until_drained(compiled, spec, live);
  EXPECT_EQ(run_until_drained(image, spec, live), from_compiled) << spec;
  EXPECT_EQ(trap_codes(from_compiled), codes) << spec;
  EXPECT_EQ(trap_codes(run_until_drained(unoptimized, spec, live)), codes)
      << spec << " at -O0";

  for (Session* s : {&compiled, &unoptimized, &image}) {
    EXPECT_TRUE(s->run_vm("qs", {val(kQsInput)}) == reference) << spec;
    EXPECT_EQ(s->last_cost().metrics.get("rt.trap.T006") +
                  s->last_cost().metrics.get("rt.trap.T007"),
              0u)
        << spec;
  }
  // The reference interpreter needs source forms a bare module lacks.
  EXPECT_THROW((void)image.run_reference("qs", {val(kQsInput)}), EvalError);
}

/// Clears any leaked governor/fault state even when an assertion fails.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override {
    rt::clear_cancel();
    rt::disarm_faults();
  }
};

TEST_F(RobustnessTest, MemoryBudgetTrapsT001) {
  Session s(kSquares);
  rt::ExecBudget b;
  b.max_resident_bytes = rt::resident_bytes() + 4096;
  s.set_budget(b);
  try {
    (void)s.run_vm("sqs", {val("100000")});
    FAIL() << "expected T001";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kMemory);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T001"), 1u);
  // Lifting the budget makes the same call succeed.
  s.set_budget(rt::ExecBudget{});
  EXPECT_TRUE(s.run_vm("sqs", {val("10")}) == val("[1,4,9,16,25,36,49,64,81,100]"));
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T001"), 0u);
}

TEST_F(RobustnessTest, StepBudgetTrapsT002) {
  Session s(kSquares);
  rt::ExecBudget b;
  b.max_steps = 50;
  s.set_budget(b);
  try {
    (void)s.run_vm("sqs", {val("100000")});
    FAIL() << "expected T002";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kSteps);
    EXPECT_GT(e.steps_at_trip(), 50u);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T002"), 1u);
}

TEST_F(RobustnessTest, DepthBudgetTrapsT003OnEveryEngine) {
  Session s("fun spin(n: int): int = spin(n + 1)");
  rt::ExecBudget b;
  b.max_depth = 64;
  s.set_budget(b);
  for (const std::string engine : {"ref", "vm"}) {
    try {
      if (engine == "ref") {
        (void)s.run_reference("spin", {val("0")});
      } else {
        (void)s.run_vm("spin", {val("0")});
      }
      FAIL() << "expected T003 from " << engine;
    } catch (const rt::RuntimeTrap& e) {
      EXPECT_EQ(e.trap(), rt::Trap::kDepth) << engine;
      EXPECT_NE(std::string(e.what()).find("call depth limit exceeded"),
                std::string::npos)
          << engine;
    }
  }
}

TEST_F(RobustnessTest, DeadlineTrapsT004) {
  Session s(kHeavy);
  rt::ExecBudget b;
  b.deadline_ms = 10;
  s.set_budget(b);
  try {
    // ~200 levels x ~200k element work each: seconds of work if the
    // deadline never fired, caught within milliseconds when it does.
    (void)s.run_vm("heavy", {val("100000"), val("200")});
    FAIL() << "expected T004";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kDeadline);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T004"), 1u);
}

TEST_F(RobustnessTest, CancellationTrapsT005) {
  Session s(kSquares);
  rt::request_cancel();
  try {
    (void)s.run_vm("sqs", {val("100")});
    FAIL() << "expected T005";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kCancelled);
  }
  rt::clear_cancel();
  EXPECT_TRUE(s.run_vm("sqs", {val("3")}) == val("[1,4,9]"));
}

TEST_F(RobustnessTest, InjectedAllocFaultPropagatesWithFallbackOff) {
  // No Session retries a run any more: every one behaves as the old
  // fallback-off Session did, so the fault surfaces to the caller.
  Session s(kSquares);
  rt::FaultPlan plan;
  plan.alloc = 1;
  rt::arm_faults(plan);
  try {
    (void)s.run_vm("sqs", {val("100")});
    FAIL() << "expected T006";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kInjectAlloc);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T006"), 1u);
  EXPECT_FALSE(rt::faults_armed());  // one-shot: drained even on the trap
}

TEST_F(RobustnessTest, LadderVmO1ToVmO0OnInjectedKernelFault) {
  // The -O1 -> -O0 rung is gone: a kernel fault in an -O1 run is not
  // retried on the unoptimized module but traps T007 once, and the next
  // run of the same Session is healthy again.
  Session s(kSquares);
  EXPECT_TRUE(s.compiled().compile_fallbacks.empty());  // -O1 module kept
  const interp::Value healthy = s.run_vm("sqs", {val("100")});

  rt::FaultPlan plan;
  plan.kernel = 1;
  rt::arm_faults(plan);
  try {
    (void)s.run_vm("sqs", {val("100")});
    FAIL() << "expected T007";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kInjectKernel);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 1u);
  EXPECT_FALSE(rt::faults_armed());
  EXPECT_TRUE(s.run_vm("sqs", {val("100")}) == healthy);
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 0u);
}

TEST_F(RobustnessTest, LadderVmToInterpWhenNoOptimizedModule) {
  // The vm -> interp rung is gone: a kernel fault in an -O0 run traps
  // T007 instead of finishing on the reference interpreter. The
  // interpreter stays callable on its own and agrees with the next run.
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  Session s(kSquares, {}, options);
  EXPECT_EQ(s.compiled().fusion.fused_chains, 0u);
  const interp::Value healthy = s.run_vm("sqs", {val("100")});

  rt::FaultPlan plan;
  plan.kernel = 1;
  rt::arm_faults(plan);
  try {
    (void)s.run_vm("sqs", {val("100")});
    FAIL() << "expected T007";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kInjectKernel);
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 1u);
  EXPECT_FALSE(rt::faults_armed());
  EXPECT_TRUE(s.run_vm("sqs", {val("100")}) == healthy);
  EXPECT_TRUE(s.run_reference("sqs", {val("100")}) == healthy);
}

TEST_F(RobustnessTest, ModuleSessionHasNoFallbackBelowTheVm) {
  Session compiled(kSquares);
  vm::ModuleLoadResult loaded =
      vm::load_module(vm::module_bytes(*compiled.compiled().module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
  Session s(loaded.module);
  const interp::Value healthy = compiled.run_vm("sqs", {val("100")});
  EXPECT_TRUE(s.run_vm("sqs", {val("100")}) == healthy);

  // The same fault traps alike in the module Session and the compiled
  // one: neither has a rung below the VM.
  for (Session* session : {&s, &compiled}) {
    rt::FaultPlan plan;
    plan.kernel = 1;
    rt::arm_faults(plan);
    try {
      (void)session->run_vm("sqs", {val("100")});
      ADD_FAILURE() << "expected T007";
    } catch (const rt::RuntimeTrap& e) {
      EXPECT_EQ(e.trap(), rt::Trap::kInjectKernel);
    }
    EXPECT_EQ(session->last_cost().metrics.get("rt.trap.T007"), 1u);
    EXPECT_TRUE(session->run_vm("sqs", {val("100")}) == healthy);
  }
  // The reference interpreter needs source forms a bare module lacks.
  EXPECT_THROW((void)s.run_reference("sqs", {val("3")}), EvalError);
}

TEST_F(RobustnessTest, InjectedAllocFaultIsContained) {
  expect_contained("alloc:3", {"T006"});
}

TEST_F(RobustnessTest, InjectedKernelFaultIsContained) {
  expect_contained("kernel:5", {"T007"});
}

TEST_F(RobustnessTest, InjectedAllocAndKernelFaultsAreContained) {
  expect_contained("alloc:2,kernel:7", {"T006", "T007"});
}

TEST_F(RobustnessTest, CompileTimeO1ToO0OnInjectedOptimizerFault) {
  rt::FaultPlan plan;
  plan.opt = 1;
  rt::arm_faults(plan);
  Session degraded(kSquares);  // T008 fires inside optimize-vcode
  rt::disarm_faults();
  ASSERT_EQ(degraded.compiled().compile_fallbacks.size(), 1u);
  EXPECT_NE(degraded.compiled().compile_fallbacks[0].find("T008"),
            std::string::npos)
      << degraded.compiled().compile_fallbacks[0];
  EXPECT_EQ(degraded.compiled().fusion.fused_chains, 0u);
  // The module kept is exactly the -O0 compile's, memory plan included.
  xform::PipelineOptions o0;
  o0.optimize_vcode = false;
  Session unoptimized(kSquares, {}, o0);
  EXPECT_EQ(vm::module_bytes(*degraded.compiled().module),
            vm::module_bytes(*unoptimized.compiled().module));

  // The degraded (-O0) module still computes the right answers.
  Session healthy(kSquares);
  EXPECT_TRUE(healthy.compiled().compile_fallbacks.empty());
  EXPECT_TRUE(degraded.run_vm("sqs", {val("50")}) ==
              healthy.run_vm("sqs", {val("50")}));
}

TEST_F(RobustnessTest, ExceptionSafetySweepUnderAllocInjection) {
  // Fail the 1st, 2nd, ... Nth allocation of a run: each must surface as
  // one T006 trap, pre-existing arrays must keep their descriptor
  // invariants, nothing may leak (the CI sanitizer job runs this suite
  // under ASan), and the next run must match the healthy one.
  Session s(kQuicksort);
  const interp::Value input = val(kQsInput);
  const interp::Value healthy = s.run_vm("qs", {input});

  // An array alive across every injected unwind; validated after each.
  const kernels::VValue pristine =
      kernels::from_boxed(val("[[1,2],[3],[4,5,6]]"),
                       lang::parse_type("seq(seq(int))"));
  for (std::uint64_t nth = 1; nth <= 12; ++nth) {
    rt::FaultPlan plan;
    plan.alloc = nth;
    rt::arm_faults(plan);
    try {
      (void)s.run_vm("qs", {input});
      ADD_FAILURE() << "expected T006 from alloc:" << nth;
    } catch (const rt::RuntimeTrap& e) {
      EXPECT_EQ(e.trap(), rt::Trap::kInjectAlloc) << "alloc:" << nth;
    }
    EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T006"), 1u) << "alloc:" << nth;
    EXPECT_FALSE(rt::faults_armed()) << "alloc:" << nth;
    pristine.as_seq().validate();
    // Uninjected rerun right after the fault: identical again.
    const interp::Value rerun = s.run_vm("qs", {input});
    EXPECT_TRUE(rerun == healthy) << "alloc:" << nth;
    kernels::from_boxed(rerun, lang::parse_type("seq(int)")).as_seq().validate();
  }
}

TEST_F(RobustnessTest, KernelInjectionSweepIsContained) {
  Session s(kHeavy);
  const interp::Value healthy = s.run_vm("heavy", {val("64"), val("3")});
  for (std::uint64_t nth = 1; nth <= 8; ++nth) {
    rt::FaultPlan plan;
    plan.kernel = nth;
    rt::arm_faults(plan);
    try {
      (void)s.run_vm("heavy", {val("64"), val("3")});
      ADD_FAILURE() << "expected T007 from kernel:" << nth;
    } catch (const rt::RuntimeTrap& e) {
      EXPECT_EQ(e.trap(), rt::Trap::kInjectKernel) << "kernel:" << nth;
    }
    EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 1u)
        << "kernel:" << nth;
    EXPECT_FALSE(rt::faults_armed()) << "kernel:" << nth;
    EXPECT_TRUE(s.run_vm("heavy", {val("64"), val("3")}) == healthy)
        << "kernel:" << nth;
  }
}

TEST_F(RobustnessTest, GovernedRunLeavesNoResidentBytesBehind) {
  const std::uint64_t before = rt::resident_bytes();
  {
    Session s(kSquares);
    rt::ExecBudget b;
    b.max_steps = 1'000'000'000;
    s.set_budget(b);
    (void)s.run_vm("sqs", {val("1000")});
  }
  EXPECT_EQ(rt::resident_bytes(), before);
}

}  // namespace
}  // namespace proteus
