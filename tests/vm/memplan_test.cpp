// Death clearing (VMOptions::clear_dead) against a VM that keeps every
// register until its frame returns: results, traps and every vm.*/vl.*
// count must be identical, clearing must lower the resident peak, the
// plan's static bound must cover the observed peak, and plan-based
// admission control (VMOptions::admission) must trap oversized calls
// before any work runs.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analysis/lifetime.hpp"
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

/// The sequence literal `lit` with its elements repeated `times` times:
/// repeated("[1,2]", 2) == "[1,2,1,2]".
std::string repeated(std::string_view lit, int times) {
  const std::string_view elems = lit.substr(1, lit.size() - 2);
  std::string out = "[";
  for (int i = 0; i < times; ++i) {
    if (i > 0) out += ',';
    out += elems;
  }
  return out + "]";
}

/// Five bounded (non-recursive) programs over `f`, one input each.
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
  std::uint64_t input_scale = 0;
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
  run.input_scale = analysis::input_scale(args);
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

TEST(MemPlan, AdmissionRejectsOversizedCallsUpFront) {
  // A bounded one-pass map: the plan knows its peak, so admission can
  // reject before any element work happens.
  Session s("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  s.set_admission(true);
  rt::ExecBudget budget;
  budget.max_resident_bytes = 256;  // below the plan's static bound
  s.set_budget(budget);
  try {
    (void)s.run_vm("double", {testing::val("[1,2,3,4,5,6,7,8]")});
    FAIL() << "expected admission trap";
  } catch (const rt::RuntimeTrap& trap) {
    EXPECT_STREQ(trap.code(), "T001");
    EXPECT_EQ(trap.site(), "vm.admit");
  }
  // No element work ran: admission fired before the first instruction.
  EXPECT_EQ(s.last_cost().vector_work.element_work, 0u);
}

TEST(MemPlan, AdmissionPassesHealthyCalls) {
  Session s("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  s.set_admission(true);
  rt::ExecBudget budget;
  budget.max_resident_bytes = 1u << 20;
  s.set_budget(budget);
  EXPECT_EQ(s.run_vm("double", {testing::val("[1,2,3]")}),
            testing::val("[2,4,6]"));
}

TEST(MemPlan, AdmissionIsInertForUnboundedPlans) {
  // Recursive programs have no static bound: admission must not reject
  // them up front (the runtime governor still guards the actual run).
  Session s(kQuicksort);
  s.set_admission(true);
  rt::ExecBudget budget;
  budget.max_resident_bytes = 1u << 20;
  s.set_budget(budget);
  EXPECT_EQ(s.run_vm("quicksort", {testing::val("[3,1,2]")}),
            testing::val("[1,2,3]"));
}

TEST(MemPlan, StaticBoundCoversObservedPeak) {
  // The soundness claim behind admission control: evaluate each finite
  // plan bound at the call's input scale and compare against the
  // governor's resident-byte watermark for the run, at an input large
  // enough that the bound's fixed slack does not cover it alone. The
  // nested program's segmented sum has no finite bound (the size domain
  // does not track descriptor surgery), so it admits like recursion.
  std::size_t bounded = 0;
  for (const Workload& w : kRegularWorkloads) {
    const Session session(w.program);
    const vm::Module& module = *session.compiled().module;
    ASSERT_NE(module.plan, nullptr) << w.program;
    const analysis::SymBound bound =
        module.plan->functions[module.fn_index.at("f")].peak_bytes;
    if (bound.is_top()) continue;
    bounded += 1;

    const Call run = run_vm(session, "f", testing::val(repeated(w.arg, 64)),
                            /*clear_dead=*/true);
    EXPECT_GE(bound.eval(run.input_scale), run.peak_bytes)
        << w.program << ": bound " << bound.to_text() << " at N="
        << run.input_scale;
  }
  EXPECT_EQ(bounded, 4u);
}

}  // namespace
}  // namespace proteus
