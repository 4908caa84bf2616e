// Death clearing (VMOptions::clear_dead) against a VM that keeps every
// register until its frame returns: results, traps and every vm.*/vl.*
// count must be identical, and clearing must lower the resident peak.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/proteus.hpp"
#include "rt/rt.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

constexpr const char* kQuicksort = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [p <- [[x <- v | x < pivot : x],
                         [x <- v | x > pivot : x]] : quicksort(p)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]
)";

std::string pseudo_random_seq(int n, int modulus) {
  std::string lit = "[";
  for (int i = 1; i <= n; ++i) {
    if (i > 1) lit += ',';
    lit += std::to_string((i * 37) % modulus);
  }
  return lit + "]";
}

/// Five non-recursive programs over `f`, one input each.
struct Workload {
  const char* program;
  const char* arg;
};
constexpr Workload kRegularWorkloads[] = {
    {"fun f(xs: seq(int)): seq(int) = [x <- xs : x * 2 + 1]",
     "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]"},
    {"fun f(xs: seq(int)): int = sum([x <- xs : x * x])",
     "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]"},
    {"fun f(xs: seq(int)): seq(int) = [x <- xs | x > 10 : x]",
     "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]"},
    {"fun f(xs: seq(real)): real = sum([x <- xs : sqrt(x * x + 1.0)])",
     "[1.5,2.25,3.75,0.5,4.125]"},
    {"fun f(xs: seq(seq(int))): seq(int) = [row <- xs : sum(row)]",
     "[[1,2,3],[4,5],[6],[7,8,9,10]]"},
};

/// One VM call and what it cost.
struct Call {
  interp::Value result;
  vm::VMStats vm;
  vl::VectorStats vl;
  /// Resident-byte watermark of the call above the bytes resident before
  /// its arguments were built.
  std::uint64_t peak_bytes = 0;
};

/// Calls `fn(arg)` on a fresh VM over `session`'s module under `budget`.
Call run_vm(const Session& session, const std::string& fn,
           const interp::Value& arg, bool clear_dead,
           const rt::ExecBudget& budget = {}) {
  const std::shared_ptr<const vm::Module>& module = session.compiled().module;
  const vm::Signature* sig = module->signature(module->fn_index.at(fn));
  vm::VMOptions options;
  options.clear_dead = clear_dead;
  vm::VM machine(module, options);
  Call run;
  const std::uint64_t base = rt::resident_bytes();
  std::vector<kernels::VValue> args{kernels::from_boxed(arg, sig->params[0])};
  // The budget governs the call alone; the governor also observes the
  // resident watermark, on its own thread only.
  const rt::GovernorScope governor(budget);
  vl::reset_stats();
  rt::reset_peak_resident_bytes();
  const kernels::VValue out = machine.call_function(fn, std::move(args));
  run.peak_bytes = rt::peak_resident_bytes() - base;
  run.vm = machine.stats();
  run.vl = vl::stats();
  run.result = kernels::to_boxed(out, sig->result);
  return run;
}

/// Runs `fn(arg)` with clearing off and on; asserts identical results and
/// identical counts, and returns both runs (off, on).
std::pair<Call, Call> differential(const Session& session,
                                 const std::string& fn,
                                 const interp::Value& arg) {
  Call kept = run_vm(session, fn, arg, /*clear_dead=*/false);
  Call cleared = run_vm(session, fn, arg, /*clear_dead=*/true);
  EXPECT_EQ(kept.result, cleared.result) << fn;
  EXPECT_EQ(kept.vm.instructions, cleared.vm.instructions);
  EXPECT_EQ(kept.vm.prim_applications, cleared.vm.prim_applications);
  EXPECT_EQ(kept.vm.calls, cleared.vm.calls);
  EXPECT_EQ(kept.vm.per_prim, cleared.vm.per_prim);
  for (std::size_t op = 0; op < vm::kNumOps; ++op) {
    EXPECT_EQ(kept.vm.per_op[op].count, cleared.vm.per_op[op].count) << op;
    EXPECT_EQ(kept.vm.per_op[op].element_work,
              cleared.vm.per_op[op].element_work)
        << op;
  }
  EXPECT_EQ(kept.vl.primitive_calls, cleared.vl.primitive_calls);
  EXPECT_EQ(kept.vl.element_work, cleared.vl.element_work);
  EXPECT_EQ(kept.vl.segment_work, cleared.vl.segment_work);
  EXPECT_EQ(kept.vl.buffer_allocs, cleared.vl.buffer_allocs);
  return {std::move(kept), std::move(cleared)};
}

TEST(MemPlan, QuicksortClearsWithIdenticalCountsAndALowerPeak) {
  const Session session(kQuicksort);
  const auto [kept, cleared] = differential(
      session, "quicksort", testing::val(pseudo_random_seq(3000, 997)));
  // Divide and conquer holds every level's partitions until the frame
  // returns unless they are cleared at their last use.
  EXPECT_LT(cleared.peak_bytes, kept.peak_bytes)
      << "kept " << kept.peak_bytes << " vs cleared " << cleared.peak_bytes;
}

TEST(MemPlan, RegularWorkloadsAreBitIdentical) {
  for (const Workload& w : kRegularWorkloads) {
    const Session session(w.program);
    (void)differential(session, "f", testing::val(w.arg));
  }
}

TEST(MemPlan, TrapsAreIdenticalWithAndWithoutClearing) {
  // A budget small enough that quicksort trips T001 mid-run: both runs
  // must surface the same trap code.
  const Session session(kQuicksort);
  const interp::Value arg = testing::val(pseudo_random_seq(2000, 997));
  rt::ExecBudget budget;
  budget.max_resident_bytes = 4096;
  for (const bool clear_dead : {false, true}) {
    try {
      (void)run_vm(session, "quicksort", arg, clear_dead, budget);
      FAIL() << "expected T001 with clear_dead=" << clear_dead;
    } catch (const rt::RuntimeTrap& trap) {
      EXPECT_STREQ(trap.code(), "T001") << "clear_dead=" << clear_dead;
    }
  }
}

}  // namespace
}  // namespace proteus
