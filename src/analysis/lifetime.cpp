// lifetime.cpp — see lifetime.hpp. Each function is planned on its own,
// in one pass per step:
//
//   1. reachability: a successor walk from pc 0 over the instruction CFG
//      (vm/cfg.hpp);
//   2. backward may-liveness over the same CFG (the shared vm::Liveness);
//      deaths = operands of a reachable pc that are not live out of it and
//      are not its destination;
//   3. static_allocs = reachable instructions that allocate a fresh buffer;
//   4. M3xx wasteful-pattern warnings.
#include "analysis/lifetime.hpp"

#include <algorithm>
#include <utility>

#include "vm/cfg.hpp"

namespace proteus::analysis {

namespace {

using vm::Function;
using vm::Instr;
using vm::Op;
using vm::successors;
using vm::writes_dst;

/// True when the instruction allocates at least one fresh buffer.
bool allocates(const Instr& in) {
  switch (in.op) {
    case Op::kElementwise:
    case Op::kFusedMap:
    case Op::kBuild:
    case Op::kGather:
    case Op::kPack:
    case Op::kSegment:
    case Op::kEmptyFrame:
    case Op::kSeqCons:
    case Op::kExtract:
    case Op::kInsert:
      return true;
    case Op::kReduce:
    case Op::kTuple:
    case Op::kTupleGet:
      return in.depth == 1;
    default:
      return false;
  }
}

/// Marks every pc reachable from pc 0 along the CFG's successor edges.
std::vector<std::uint8_t> reachable(const Function& fn) {
  const std::size_t n = fn.code.size();
  std::vector<std::uint8_t> reached(n, 0);
  if (n == 0) return reached;
  std::vector<std::size_t> work{0};
  reached[0] = 1;
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    for (const std::size_t succ : successors(fn.code[pc], pc, n)) {
      if (succ >= n || reached[succ] != 0) continue;
      reached[succ] = 1;
      work.push_back(succ);
    }
  }
  return reached;
}

/// True when `r` is listed in pc's death table.
bool dies_at(const FunctionPlan& plan, std::size_t pc, std::uint16_t r) {
  const auto first = plan.death_regs.begin() + plan.death_off[pc];
  const auto last = plan.death_regs.begin() + plan.death_off[pc + 1];
  return std::binary_search(first, last, r);
}

/// "r<reg>" (built piecewise: see warn() below).
std::string reg_name(std::uint16_t r) {
  std::string s = "r";
  s += std::to_string(r);
  return s;
}

/// Plans one function and appends its M3xx warnings to `report`.
FunctionPlan plan_function(const Function& fn, Report* report) {
  FunctionPlan plan;
  const std::size_t n = fn.code.size();
  plan.death_off.assign(n + 1, 0);
  if (n == 0) return plan;

  // --- 1. reachability -------------------------------------------------------
  const std::vector<std::uint8_t> reached = reachable(fn);

  // --- 2. deaths (CSR) over backward may-liveness (vm/cfg.hpp) ---------------
  const vm::Liveness live(fn);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (reached[pc] != 0) {
      const auto begin = static_cast<std::ptrdiff_t>(plan.death_regs.size());
      const Instr& in = fn.code[pc];
      const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
      for (std::size_t i = 0; i < in.args_count; ++i) {
        const std::uint16_t r = a[i];
        if (writes_dst(in.op) && r == in.dst) continue;
        if (live.live_out(pc, r)) continue;
        plan.death_regs.push_back(r);
      }
      const auto first = plan.death_regs.begin() + begin;
      std::sort(first, plan.death_regs.end());
      plan.death_regs.erase(std::unique(first, plan.death_regs.end()),
                            plan.death_regs.end());
      // --- 3. static allocations ---------------------------------------------
      if (allocates(in)) plan.static_allocs += 1;
    }
    plan.death_off[pc + 1] = static_cast<std::uint32_t>(plan.death_regs.size());
  }

  // --- 4. M3xx wasteful-pattern warnings ------------------------------------
  // Messages are appended piece by piece: GCC 12's -Wrestrict misfires on
  // chained `const char* + std::string` temporaries (PR105651).
  const auto warn = [&](const char* code, const std::string& msg,
                        std::size_t pc) {
    std::string text = "pc ";
    text += std::to_string(pc);
    text += ": ";
    text += msg;
    report->warning(code, std::move(text), fn.name, {}, "VCODE");
  };
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (reached[pc] == 0) continue;
    const Instr& in = fn.code[pc];
    // M301: a computed value nothing ever reads.
    if (writes_dst(in.op) && in.op != Op::kCall &&
        in.op != Op::kCallIndirect && !live.live_out(pc, in.dst)) {
      std::string msg = "dead store: ";
      msg += reg_name(in.dst);
      msg += " is written but never read";
      warn("M301", msg, pc);
    }
    // M303: a copy whose source dies at the copy.
    if (in.op == Op::kMove) {
      const std::uint16_t src = fn.arg_pool[in.args_off];
      if (dies_at(plan, pc, src)) {
        std::string msg = "redundant copy: ";
        msg += reg_name(src);
        msg += " dies here; the move could be elided";
        warn("M303", msg, pc);
      }
    }
    // M302: a buffer materialized only to feed one scalar reduction.
    if (in.op == Op::kElementwise || in.op == Op::kFusedMap) {
      std::size_t uses = 0;
      std::size_t use_pc = 0;
      for (std::size_t q = pc + 1; q < n && uses < 2; ++q) {
        if (reached[q] == 0) continue;
        const Instr& user = fn.code[q];
        const std::uint16_t* ua = fn.arg_pool.data() + user.args_off;
        for (std::size_t i = 0; i < user.args_count; ++i) {
          if (ua[i] == in.dst) {
            ++uses;
            use_pc = q;
            break;
          }
        }
        if (writes_dst(user.op) && user.dst == in.dst) break;
      }
      if (uses == 1) {
        const Instr& user = fn.code[use_pc];
        if (user.op == Op::kReduce && user.depth == 0 &&
            dies_at(plan, use_pc, in.dst)) {
          std::string msg = reg_name(in.dst);
          msg += " is materialized only to feed the reduction at pc ";
          msg += std::to_string(use_pc);
          msg += " (the fuser missed a fold)";
          warn("M302", msg, pc);
        }
      }
    }
  }
  return plan;
}

}  // namespace

PlanResult plan_module(const vm::Module& m) {
  PlanResult out;
  out.plan.functions.reserve(m.functions.size());
  for (const Function& fn : m.functions) {
    out.plan.functions.push_back(plan_function(fn, &out.report));
  }
  return out;
}

std::string plan_to_text(const FunctionPlan& plan) {
  std::string s = "// memory plan: ";
  s += std::to_string(plan.static_allocs);
  s += " static allocs\n";
  return s;
}

}  // namespace proteus::analysis
