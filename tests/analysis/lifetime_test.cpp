// The buffer-lifetime / memory-plan analyzer (analysis/lifetime.hpp):
// the SymBound domain, liveness-driven death tables,
// peak-resident bounds, the M3xx wasteful-pattern advisories, and the
// plan the module loader derives for every image it decodes.
#include "analysis/lifetime.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/proteus.hpp"
#include "kernels/vvalue.hpp"
#include "seq/build.hpp"
#include "testing.hpp"
#include "vm/module_io.hpp"
#include "vm/verify.hpp"

namespace proteus::analysis {
namespace {

using lang::Prim;
using vm::Function;
using vm::Instr;
using vm::Module;
using vm::Op;

constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();

TEST(SymBound, ArithmeticAndSaturation) {
  const SymBound a = SymBound::linear(64, 8);
  const SymBound b = SymBound::linear(100, 2);
  EXPECT_EQ(a.plus(b), SymBound::linear(164, 10));
  EXPECT_EQ(a.max(b), SymBound::linear(100, 8));
  EXPECT_EQ(a.times(3), SymBound::linear(192, 24));
  EXPECT_EQ(a.eval(10), 144u);

  EXPECT_TRUE(SymBound::top().is_top());
  EXPECT_TRUE(a.plus(SymBound::top()).is_top());
  EXPECT_TRUE(a.max(SymBound::top()).is_top());
  EXPECT_EQ(SymBound::top().eval(5), kSat);

  // Saturating, never wrapping.
  const SymBound huge = SymBound::konst(kSat - 1);
  EXPECT_EQ(huge.plus(SymBound::konst(100)).c0, kSat);
  EXPECT_EQ(huge.times(2).c0, kSat);
}

TEST(SymBound, ComposeSubstitutesTheInnerScale) {
  // (16 + 2*N) with N := (3 + 5*M)  =  22 + 10*M.
  const SymBound outer = SymBound::linear(16, 2);
  const SymBound inner = SymBound::linear(3, 5);
  EXPECT_EQ(outer.compose(inner), SymBound::linear(22, 10));
  EXPECT_TRUE(outer.compose(SymBound::top()).is_top());
}

TEST(SymBound, TextForms) {
  EXPECT_EQ(SymBound::konst(512).to_text(), "512");
  EXPECT_EQ(SymBound::linear(64, 8).to_text(), "64 + 8*N");
  EXPECT_EQ(SymBound::linear(0, 1).to_text(), "1*N");
  EXPECT_EQ(SymBound::top().to_text(), "unbounded");
}

std::shared_ptr<const Module> module_of(std::string_view program,
                                        std::string_view entry = {}) {
  Session s(program, entry);
  return s.compiled().module;
}

const FunctionPlan& plan_for(const Module& m, const MemoryPlan& plan,
                             const std::string& name) {
  const auto it = m.fn_index.find(name);
  EXPECT_NE(it, m.fn_index.end()) << name;
  return plan.functions[it->second];
}

TEST(MemoryPlan, PipelineAttachesAPlanToEveryFunction) {
  auto m = module_of("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  ASSERT_NE(m->plan, nullptr);
  EXPECT_EQ(m->plan->functions.size(), m->functions.size());
  for (std::size_t i = 0; i < m->functions.size(); ++i) {
    // The death table is a CSR over the code: code.size()+1 offsets.
    EXPECT_EQ(m->plan->functions[i].death_off.size(),
              m->functions[i].code.size() + 1);
  }
}

TEST(MemoryPlan, StraightLineMapHasALinearBound) {
  auto m = module_of("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  const FunctionPlan& fp = plan_for(*m, *m->plan, "double");
  // One pass over the input: peak is affine in N, never unbounded.
  ASSERT_FALSE(fp.peak_bytes.is_top()) << fp.peak_bytes.to_text();
  EXPECT_GT(fp.peak_bytes.c1, 0u);
  EXPECT_GT(fp.static_allocs, 0u);
}

TEST(MemoryPlan, RecursionIsUnbounded) {
  auto m = module_of(R"(
    fun quicksort(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let pivot = v[1 + (#v / 2)] in
        let parts = [p <- [[x <- v | x < pivot : x],
                           [x <- v | x > pivot : x]] : quicksort(p)] in
        parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
  )");
  const FunctionPlan& fp = plan_for(*m, *m->plan, "quicksort");
  // The call chain's depth depends on the data: the static peak must
  // honestly say so instead of inventing a bound.
  EXPECT_TRUE(fp.peak_bytes.is_top());
}

TEST(MemoryPlan, PlanIsDeterministic) {
  auto m = module_of(
      "fun f(xs: seq(int)): int = sum([x <- xs : x * x])", "f([1,2,3])");
  PlanResult a = plan_module(*m);
  PlanResult b = plan_module(*m);
  EXPECT_TRUE(a.plan == b.plan);
  ASSERT_NE(m->plan, nullptr);
  EXPECT_TRUE(a.plan == *m->plan);
}

TEST(MemoryPlan, InputScaleCountsLeaves) {
  EXPECT_EQ(input_scale({}), 0u);
  EXPECT_EQ(input_scale({kernels::VValue::ints(7)}), 0u);

  // input_scale operates on kernel values: the scale of a call is the
  // total leaf count across its sequence arguments.
  auto flat = kernels::VValue::seq(seq::from_ints({1, 2, 3, 4}));
  EXPECT_EQ(input_scale({flat}), 4u);
  EXPECT_EQ(input_scale({flat, flat}), 8u);
}

/// fun f(a) with one dead range1 buffer: M301 must fire.
Module dead_store_module() {
  Module m;
  Function f;
  f.name = "f";
  f.n_params = 1;
  f.n_regs = 2;
  f.arg_pool = {0, 0};
  f.code = {
      Instr{.op = Op::kBuild,
            .prim = Prim::kRange1,
            .dst = 1,
            .args_count = 1,
            .args_off = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 1},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

TEST(MemoryPlan, M301_DeadStore) {
  Module m = dead_store_module();
  ASSERT_TRUE(vm::verify_module(m).ok());
  PlanResult pr = plan_module(m);
  EXPECT_TRUE(pr.report.has("M301")) << pr.report.to_text();
  // Advisory only: the report carries no errors.
  EXPECT_TRUE(pr.report.ok());
}

/// fun f(a) = a (via a register copy whose source dies): M303 must fire.
Module redundant_copy_module() {
  Module m;
  Function f;
  f.name = "f";
  f.n_params = 1;
  f.n_regs = 2;
  f.arg_pool = {0, 1};
  f.code = {
      Instr{.op = Op::kMove, .dst = 1, .args_count = 1, .args_off = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 1},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

TEST(MemoryPlan, M303_RedundantCopy) {
  Module m = redundant_copy_module();
  ASSERT_TRUE(vm::verify_module(m).ok());
  PlanResult pr = plan_module(m);
  EXPECT_TRUE(pr.report.has("M303")) << pr.report.to_text();
}

/// fun f(a) = sum([1..a] + [1..a]): the elementwise sum is materialized
/// only to feed the reduction — M302 must fire.
Module materialize_to_reduce_module() {
  Module m;
  Function f;
  f.name = "f";
  f.n_params = 1;
  f.n_regs = 4;
  f.arg_pool = {0, 1, 1, 2, 3};
  f.code = {
      Instr{.op = Op::kBuild,
            .prim = Prim::kRange1,
            .dst = 1,
            .args_count = 1,
            .args_off = 0},
      Instr{.op = Op::kElementwise,
            .prim = Prim::kAdd,
            .depth = 1,
            .dst = 2,
            .args_count = 2,
            .args_off = 1},
      Instr{.op = Op::kReduce,
            .prim = Prim::kSum,
            .dst = 3,
            .args_count = 1,
            .args_off = 3},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 4},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

TEST(MemoryPlan, M302_MaterializedOnlyToReduce) {
  Module m = materialize_to_reduce_module();
  ASSERT_TRUE(vm::verify_module(m).ok()) << vm::verify_module(m).to_text();
  PlanResult pr = plan_module(m);
  EXPECT_TRUE(pr.report.has("M302")) << pr.report.to_text();
}

TEST(MemoryPlan, DeathTablesNeverKillLiveRegisters) {
  // On a real program, a register listed as dying at pc must not appear
  // as an operand (or destination) of any later reachable instruction
  // before being redefined — spot-check the straight-line case.
  auto m = module_of(
      "fun f(xs: seq(int)): int = sum([x <- xs : x * x + 1])");
  const FunctionPlan& fp = plan_for(*m, *m->plan, "f");
  const Function& fn = *m->find("f");
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    for (std::uint32_t i = fp.death_off[pc]; i < fp.death_off[pc + 1]; ++i) {
      const std::uint16_t dead = fp.death_regs[i];
      for (std::size_t q = pc + 1; q < fn.code.size(); ++q) {
        const Instr& later = fn.code[q];
        bool redefined = false;
        for (std::size_t j = 0; j < later.args_count; ++j) {
          EXPECT_NE(fn.arg_pool[later.args_off + j], dead)
              << "r" << dead << " dies at pc " << pc << " but is read at pc "
              << q;
        }
        if (later.op != Op::kRet && later.dst == dead) redefined = true;
        if (redefined) break;
      }
    }
  }
}

TEST(MemoryPlan, SerializedPlanRoundtrips) {
  // Images carry no plan: the loader derives it from the decoded bytecode,
  // with or without the verifier, and derives exactly the compiled one.
  auto m = module_of(
      "fun f(xs: seq(int)): seq(int) = [x <- xs : x + 1]", "f([1,2,3])");
  ASSERT_NE(m->plan, nullptr);
  for (const bool verify : {true, false}) {
    vm::ModuleLoadResult loaded =
        vm::load_module(vm::module_bytes(*m), verify);
    ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
    ASSERT_NE(loaded.module->plan, nullptr);
    EXPECT_TRUE(*loaded.module->plan == *m->plan) << "verify=" << verify;
  }
}

TEST(MemoryPlan, PlanTextNamesTheBound) {
  auto m = module_of("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  const FunctionPlan& fp = plan_for(*m, *m->plan, "double");
  const std::string text = plan_to_text(fp);
  EXPECT_NE(text.find("memory plan"), std::string::npos) << text;
  EXPECT_NE(text.find("static allocs"), std::string::npos) << text;
  EXPECT_NE(text.find("N"), std::string::npos) << text;
}

}  // namespace
}  // namespace proteus::analysis
