// cfg_test.cpp — the shared VCODE dataflow core (vm/cfg.hpp) against a
// brute-force reference. The optimizer's chain fusion, dead-move
// elimination and last-use marking and the memory planner's death tables
// all read vm::Liveness, so it is checked here in both directions: every
// register it calls live is live, and every live register is called live.
#include "vm/cfg.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "program_gen.hpp"
#include "xform/pipeline.hpp"

namespace proteus::vm {
namespace {

/// CFG successors, restated from the opcode table so the reference shares
/// no code with what it checks.
std::vector<std::size_t> reference_successors(const Function& fn,
                                              std::size_t pc) {
  const Instr& in = fn.code[pc];
  const auto target = static_cast<std::size_t>(in.aux);
  const bool falls = pc + 1 < fn.code.size();
  switch (in.op) {
    case Op::kRet:
      return {};
    case Op::kJump:
      return {target};
    case Op::kJumpIfFalse:
    case Op::kBranchEmpty:
      return falls ? std::vector<std::size_t>{target, pc + 1}
                   : std::vector<std::size_t>{target};
    default:
      return falls ? std::vector<std::size_t>{pc + 1}
                   : std::vector<std::size_t>{};
  }
}

bool reads(const Function& fn, std::size_t pc, std::size_t r) {
  const Instr& in = fn.code[pc];
  for (std::size_t i = 0; i < in.args_count; ++i) {
    if (fn.arg_pool[in.args_off + i] == r) return true;
  }
  return false;
}

bool writes(const Function& fn, std::size_t pc, std::size_t r) {
  const Op op = fn.code[pc].op;
  return op != Op::kRet && op != Op::kJump && op != Op::kJumpIfFalse &&
         op != Op::kBranchEmpty && fn.code[pc].dst == r;
}

/// Along some path from pc's successors, is r read before it is written?
/// A depth-first search over instructions; an instruction that reads r
/// answers yes (operands are read before the destination is written), one
/// that only writes r ends its path.
bool reference_live_out(const Function& fn, std::size_t pc, std::size_t r) {
  std::vector<char> seen(fn.code.size(), 0);
  std::vector<std::size_t> stack = reference_successors(fn, pc);
  while (!stack.empty()) {
    const std::size_t q = stack.back();
    stack.pop_back();
    if (seen[q] != 0) continue;
    seen[q] = 1;
    if (reads(fn, q, r)) return true;
    if (writes(fn, q, r)) continue;
    for (const std::size_t s : reference_successors(fn, q)) stack.push_back(s);
  }
  return false;
}

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
