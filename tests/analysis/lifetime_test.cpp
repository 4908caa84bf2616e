// The buffer-lifetime / memory-plan analyzer (analysis/lifetime.hpp):
// liveness-driven death tables (checked against a brute-force reference
// over the example and generated corpus), static allocation counts, the
// M3xx wasteful-pattern advisories, and the plan the module loader
// derives for every image it decodes.
#include "analysis/lifetime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/proteus.hpp"
#include "program_gen.hpp"
#include "testing.hpp"
#include "vcode_reference.hpp"
#include "vm/module_io.hpp"
#include "vm/verify.hpp"
#include "xform/pipeline.hpp"

namespace proteus::analysis {
namespace {

using lang::Prim;
using vm::Function;
using vm::Instr;
using vm::Module;
using vm::Op;

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

TEST(MemoryPlan, PlanIsDeterministic) {
  auto m = module_of(
      "fun f(xs: seq(int)): int = sum([x <- xs : x * x])", "f([1,2,3])");
  PlanResult a = plan_module(*m);
  PlanResult b = plan_module(*m);
  EXPECT_TRUE(a.plan == b.plan);
  ASSERT_NE(m->plan, nullptr);
  EXPECT_TRUE(a.plan == *m->plan);
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

TEST(MemoryPlan, M303_FindsCopiesInTheExamples) {
  // The advisories earn their keep on real programs: at -O1 the
  // optimizer leaves copies whose source dies at the copy in sort.p's
  // quicksort and graph.p's reach_from.
  for (const auto& [file, fn] :
       {std::pair{"sort.p", "quicksort"}, std::pair{"graph.p", "reach_from"}}) {
    std::ifstream in(std::filesystem::path(PROTEUS_SOURCE_DIR) / "examples" /
                     "programs" / file);
    std::ostringstream buf;
    buf << in.rdbuf();
    const xform::Compiled compiled = xform::compile(buf.str(), "");
    bool found = false;
    for (const Diagnostic& d : compiled.memory_report.diagnostics()) {
      found = found || (d.code == "M303" && d.function == fn);
    }
    EXPECT_TRUE(found) << file << "\n" << compiled.memory_report.to_text();
  }
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

/// Checks every function of `m` against its plan and the brute-force
/// reference: at a reachable pc, each listed register is an operand that
/// no path reads before redefining it, and each such operand (other than
/// the destination) is listed; an unreachable pc lists nothing.
void expect_deaths_match_reference(const Module& m, const MemoryPlan& plan) {
  for (std::size_t f = 0; f < m.functions.size(); ++f) {
    const Function& fn = m.functions[f];
    const FunctionPlan& fp = plan.functions[f];
    SCOPED_TRACE(fn.name);
    const std::vector<char> reached = testing::reference_reachable(fn);
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      const std::vector<std::uint16_t> listed(
          fp.death_regs.begin() + fp.death_off[pc],
          fp.death_regs.begin() + fp.death_off[pc + 1]);
      if (reached[pc] == 0) {
        EXPECT_TRUE(listed.empty()) << "unreachable pc " << pc;
        continue;
      }
      for (const std::uint16_t r : listed) {
        EXPECT_TRUE(testing::reads(fn, pc, r))
            << "r" << r << " dies at pc " << pc << " but is not read there";
        EXPECT_FALSE(testing::reference_live_out(fn, pc, r))
            << "r" << r << " dies at pc " << pc << " but is read later";
      }
      const Instr& in = fn.code[pc];
      for (std::size_t i = 0; i < in.args_count; ++i) {
        const std::uint16_t r = fn.arg_pool[in.args_off + i];
        if (testing::writes(fn, pc, r) ||
            testing::reference_live_out(fn, pc, r)) {
          continue;
        }
        EXPECT_NE(std::find(listed.begin(), listed.end(), r), listed.end())
            << "r" << r << " is dead after pc " << pc << " but not listed";
      }
    }
  }
}

/// fun f(a) = a, followed by a copy of a that no path reaches: without
/// the reachability check, r0 would be listed as dying at the copy.
Module unreachable_copy_module() {
  Module m;
  Function f;
  f.name = "f";
  f.n_params = 1;
  f.n_regs = 2;
  f.arg_pool = {0, 1};
  f.code = {
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 0},
      Instr{.op = Op::kMove, .dst = 1, .args_count = 1, .args_off = 0},
      Instr{.op = Op::kRet, .args_count = 1, .args_off = 1},
  };
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

TEST(MemoryPlan, DeathTablesNeverKillLiveRegisters) {
  const auto check = [](const std::string& source) {
    for (const bool optimize : {false, true}) {
      SCOPED_TRACE(optimize ? "-O1" : "-O0");
      xform::PipelineOptions options;
      options.optimize_vcode = optimize;
      const xform::Compiled compiled = xform::compile(source, "", options);
      ASSERT_NE(compiled.module->plan, nullptr);
      expect_deaths_match_reference(*compiled.module, *compiled.module->plan);
    }
  };
  std::size_t programs = 0;
  const std::filesystem::path dir =
      std::filesystem::path(PROTEUS_SOURCE_DIR) / "examples" / "programs";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".p") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    check(buf.str());
    ++programs;
  }
  EXPECT_GE(programs, 6u);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    std::vector<std::string> sources{testing::helper_program(seed)};
    for (int variant = 0; variant < 4; ++variant) {
      sources.push_back(testing::fuzz_program(seed, variant));
    }
    for (const std::string& source : sources) {
      SCOPED_TRACE(source);
      check(source);
    }
  }

  // The corpus need not contain dead code, so an unreachable pc is built.
  const Module m = unreachable_copy_module();
  ASSERT_EQ(testing::reference_reachable(m.functions[0])[1], 0);
  expect_deaths_match_reference(m, plan_module(m).plan);
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

TEST(MemoryPlan, PlanTextNamesStaticAllocs) {
  auto m = module_of("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  const FunctionPlan& fp = plan_for(*m, *m->plan, "double");
  EXPECT_GT(fp.static_allocs, 0u);
  const std::string text = plan_to_text(fp);
  EXPECT_NE(text.find("memory plan"), std::string::npos) << text;
  const std::string allocs =
      std::to_string(fp.static_allocs) + " static allocs";
  EXPECT_NE(text.find(allocs), std::string::npos) << text;
}

}  // namespace
}  // namespace proteus::analysis
