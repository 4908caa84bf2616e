// End-to-end tests of the execution governor, deterministic fault
// injection, and the graceful-degradation ladder (docs/ROBUSTNESS.md):
//
//   * every trap code T001-T008 is triggered through the public API,
//   * every ladder rung fires at least once (vm -O1 -> vm -O0 ->
//     reference interpreter; compile-time -O1 -> -O0), and a Session over
//     a bare module has no rung below the VM,
//   * fallback results match the healthy engine byte for byte, and
//   * an exception-safety sweep checks that injected faults leak nothing
//     and leave descriptor invariants intact.
#include <gtest/gtest.h>

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
  EXPECT_EQ(s.last_degradations().size(), 1u);
  // A budget trap is deterministic: the ladder must NOT have burned the
  // budget retrying simpler engines.
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T001"), 1u);
  // Lifting the budget makes the same call succeed.
  s.set_budget(rt::ExecBudget{});
  EXPECT_TRUE(s.run_vm("sqs", {val("10")}) == val("[1,4,9,16,25,36,49,64,81,100]"));
  EXPECT_TRUE(s.last_degradations().empty());
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
  Session s(kSquares);
  s.set_fallback(false);
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
  Session s(kSquares);
  const interp::Value healthy = s.run_vm("sqs", {val("100")});
  ASSERT_NE(s.compiled().module_o0, nullptr);
  ASSERT_NE(s.compiled().module, s.compiled().module_o0)
      << "expected a distinct optimized module for the -O1 -> -O0 rung";

  rt::FaultPlan plan;
  plan.kernel = 1;
  rt::arm_faults(plan);
  const interp::Value recovered = s.run_vm("sqs", {val("100")});
  EXPECT_TRUE(recovered == healthy);
  ASSERT_EQ(s.last_degradations().size(), 1u);
  EXPECT_NE(s.last_degradations()[0].find("vm -> vm-o0"), std::string::npos)
      << s.last_degradations()[0];
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 1u);
  EXPECT_EQ(s.last_cost().metrics.get("rt.fallback.vm"), 1u);
}

TEST_F(RobustnessTest, LadderVmToInterpWhenNoOptimizedModule) {
  xform::PipelineOptions options;
  options.optimize_vcode = false;  // -O0: no separate module to retry on
  Session s(kSquares, {}, options);
  EXPECT_EQ(s.compiled().module, s.compiled().module_o0);
  const interp::Value healthy = s.run_vm("sqs", {val("100")});

  rt::FaultPlan plan;
  plan.kernel = 1;
  rt::arm_faults(plan);
  const interp::Value recovered = s.run_vm("sqs", {val("100")});
  EXPECT_TRUE(recovered == healthy);
  ASSERT_EQ(s.last_degradations().size(), 1u);
  EXPECT_NE(s.last_degradations()[0].find("vm -> interp"), std::string::npos)
      << s.last_degradations()[0];
  EXPECT_EQ(s.last_cost().metrics.get("rt.fallback.vm"), 1u);
}

TEST_F(RobustnessTest, LadderVmO0ToInterpOnInjectedAllocFault) {
  Session s(kSquares);
  ASSERT_NE(s.compiled().module, s.compiled().module_o0);
  const interp::Value healthy = s.run_vm("sqs", {val("100")});

  // Two one-shot faults: whichever site the -O1 attempt reaches first
  // fires there, the other fires in the -O0 retry. The interpreter never
  // touches vl, so it is immune and finishes the run.
  rt::FaultPlan plan;
  plan.alloc = 1;
  plan.kernel = 1;
  rt::arm_faults(plan);
  const interp::Value recovered = s.run_vm("sqs", {val("100")});
  EXPECT_TRUE(recovered == healthy);
  ASSERT_EQ(s.last_degradations().size(), 2u);
  EXPECT_NE(s.last_degradations()[0].find("vm -> vm-o0"), std::string::npos)
      << s.last_degradations()[0];
  EXPECT_NE(s.last_degradations()[1].find("vm-o0 -> interp"),
            std::string::npos)
      << s.last_degradations()[1];
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T006"), 1u);
  EXPECT_EQ(s.last_cost().metrics.get("rt.trap.T007"), 1u);
  EXPECT_EQ(s.last_cost().metrics.get("rt.fallback.vm"), 1u);
  EXPECT_EQ(s.last_cost().metrics.get("rt.fallback.vm-o0"), 1u);
}

TEST_F(RobustnessTest, ModuleSessionHasNoFallbackBelowTheVm) {
  Session compiled(kSquares);
  vm::ModuleLoadResult loaded =
      vm::load_module(vm::module_bytes(*compiled.compiled().module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
  Session s(loaded.module);
  EXPECT_TRUE(s.run_vm("sqs", {val("100")}) ==
              compiled.run_vm("sqs", {val("100")}));

  // A retryable fault a compiled Session would absorb propagates here:
  // the rungs below the VM need source forms a bare module lacks.
  rt::FaultPlan plan;
  plan.kernel = 1;
  rt::arm_faults(plan);
  try {
    (void)s.run_vm("sqs", {val("100")});
    FAIL() << "expected T007";
  } catch (const rt::RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), rt::Trap::kInjectKernel);
    EXPECT_TRUE(rt::retryable(e.trap()));
  }
  EXPECT_EQ(s.last_cost().metrics.get("rt.fallback.vm"), 0u);
  EXPECT_THROW((void)s.run_reference("sqs", {val("3")}), EvalError);
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
  EXPECT_EQ(degraded.compiled().module, degraded.compiled().module_o0);
  EXPECT_EQ(degraded.compiled().fusion.fused_chains, 0u);

  // The degraded (-O0) module still computes the right answers.
  Session healthy(kSquares);
  EXPECT_TRUE(healthy.compiled().compile_fallbacks.empty());
  EXPECT_TRUE(degraded.run_vm("sqs", {val("50")}) ==
              healthy.run_vm("sqs", {val("50")}));
}

TEST_F(RobustnessTest, ExceptionSafetySweepUnderAllocInjection) {
  // Fail the 1st, 2nd, ... Nth allocation of a run with fallback on: the
  // result must always match the healthy run, pre-existing arrays must
  // keep their descriptor invariants, and nothing may leak (the CI matrix
  // re-runs this suite under ASan).
  Session s(R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else let p = v[1 + #v / 2] in
           qs([x <- v | x < p : x]) ++ [x <- v | x == p : x]
             ++ qs([x <- v | x > p : x])
  )");
  const interp::Value input =
      val("[5,3,8,1,9,2,7,4,6,0,5,3,8,1,9,2,7,4,6,0]");
  const interp::Value healthy = s.run_vm("qs", {input});

  // An array alive across every injected unwind; validated after each.
  const kernels::VValue pristine =
      kernels::from_boxed(val("[[1,2],[3],[4,5,6]]"),
                       lang::parse_type("seq(seq(int))"));
  for (std::uint64_t nth = 1; nth <= 12; ++nth) {
    rt::FaultPlan plan;
    plan.alloc = nth;
    rt::arm_faults(plan);
    const interp::Value recovered = s.run_vm("qs", {input});
    EXPECT_TRUE(recovered == healthy) << "alloc:" << nth;
    pristine.as_seq().validate();
    // Results that came through a fallback engine still convert to
    // well-formed flat arrays.
    kernels::from_boxed(recovered, lang::parse_type("seq(int)"))
        .as_seq()
        .validate();
    rt::disarm_faults();
    // Uninjected rerun right after the fault: identical again.
    EXPECT_TRUE(s.run_vm("qs", {input}) == healthy) << "alloc:" << nth;
    EXPECT_TRUE(s.last_degradations().empty());
  }
}

TEST_F(RobustnessTest, KernelInjectionSweepAcrossTheLadder) {
  Session s(kHeavy);
  const interp::Value healthy = s.run_vm("heavy", {val("64"), val("3")});
  for (std::uint64_t nth = 1; nth <= 8; ++nth) {
    rt::FaultPlan plan;
    plan.kernel = nth;
    rt::arm_faults(plan);
    const interp::Value recovered = s.run_vm("heavy", {val("64"), val("3")});
    EXPECT_TRUE(recovered == healthy) << "kernel:" << nth;
    EXPECT_GE(s.last_degradations().size(), 1u) << "kernel:" << nth;
    rt::disarm_faults();
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
