// cfg_test.cpp — the shared VCODE dataflow core (vm/cfg.hpp) against the
// brute-force reference of vcode_reference.hpp. The optimizer's chain
// fusion, dead-move elimination and last-use marking and the memory
// planner's death tables all read vm::Liveness, so it is checked here in
// both directions: every register it calls live is live, and every live
// register is called live.
#include "vm/cfg.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "program_gen.hpp"
#include "vcode_reference.hpp"
#include "xform/pipeline.hpp"

namespace proteus::vm {
namespace {

using testing::reference_live_out;
using testing::reference_successors;

/// Compares Liveness with the reference on every (pc, register) pair of
/// every function of the module `source` compiles to.
void expect_liveness_matches_reference(const std::string& source,
                                       bool optimize) {
  xform::PipelineOptions options;
  options.optimize_vcode = optimize;
  const xform::Compiled compiled = xform::compile(source, "", options);
  for (const Function& fn : compiled.module->functions) {
    SCOPED_TRACE(fn.name);
    const Liveness live(fn);
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      for (std::size_t r = 0; r < fn.n_regs; ++r) {
        ASSERT_EQ(live.live_out(pc, r), reference_live_out(fn, pc, r))
            << "pc " << pc << ", r" << r;
      }
    }
  }
}

TEST(VmCfg, SuccessorsFollowTheOpcodeTable) {
  Function fn;
  fn.code = {Instr{.op = Op::kJumpIfFalse, .aux = 3},
             Instr{.op = Op::kBranchEmpty, .aux = 0},
             Instr{.op = Op::kJump, .aux = 1}, Instr{.op = Op::kMove},
             Instr{.op = Op::kRet}};
  const std::size_t n = fn.code.size();
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Successors s = successors(fn.code[pc], pc, n);
    EXPECT_EQ(std::vector<std::size_t>(s.begin(), s.end()),
              reference_successors(fn, pc))
        << "pc " << pc;
  }
  // A conditional branch in the last slot has no fall-through.
  const Successors last = successors(fn.code[0], n - 1, n);
  EXPECT_EQ(std::vector<std::size_t>(last.begin(), last.end()),
            std::vector<std::size_t>{3});
}

TEST(VmCfg, LivenessMatchesReferenceOnTheExampleCorpus) {
  const std::filesystem::path dir =
      std::filesystem::path(PROTEUS_SOURCE_DIR) / "examples" / "programs";
  std::size_t programs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".p") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    for (const bool optimize : {false, true}) {
      SCOPED_TRACE(optimize ? "-O1" : "-O0");
      expect_liveness_matches_reference(buf.str(), optimize);
    }
    ++programs;
  }
  EXPECT_GE(programs, 6u);
}

TEST(VmCfg, LivenessMatchesReferenceOnGeneratedPrograms) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    std::vector<std::string> sources{testing::helper_program(seed)};
    for (int variant = 0; variant < 4; ++variant) {
      sources.push_back(testing::fuzz_program(seed, variant));
    }
    for (const std::string& source : sources) {
      SCOPED_TRACE(source);
      for (const bool optimize : {false, true}) {
        expect_liveness_matches_reference(source, optimize);
      }
    }
  }
}

}  // namespace
}  // namespace proteus::vm
