// Plan-backed arena execution (VMOptions::arena) against the default
// heap allocator: results and traps must be bit-identical, the arena
// must actually recycle buffers, and plan-based admission control
// (VMOptions::admission) must trap oversized calls before any work runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lifetime.hpp"
#include "core/proteus.hpp"
#include "rt/rt.hpp"
#include "testing.hpp"
#include "vm/module_io.hpp"

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

/// Runs `fn(args)` with the arena off and on; asserts identical results
/// and identical machine-independent cost counters, and returns the
/// buffer_allocs pair (heap, arena).
std::pair<std::uint64_t, std::uint64_t> differential(
    std::string_view program, const std::string& fn,
    const interp::ValueList& args) {
  Session heap(program);
  const interp::Value expected = heap.run_vm(fn, args);
  const vl::VectorStats heap_work = heap.last_cost().vector_work;

  Session arena(program);
  arena.set_arena(true);
  const interp::Value got = arena.run_vm(fn, args);
  const vl::VectorStats arena_work = arena.last_cost().vector_work;

  EXPECT_EQ(expected, got) << fn;
  // Same program, same work: only the allocator changed.
  EXPECT_EQ(heap_work.primitive_calls, arena_work.primitive_calls);
  EXPECT_EQ(heap_work.element_work, arena_work.element_work);
  EXPECT_EQ(heap_work.segment_work, arena_work.segment_work);
  // Recycled buffers and heap allocations partition the arena run's
  // allocation count, which equals the heap run's.
  EXPECT_EQ(heap_work.buffer_allocs,
            arena_work.buffer_allocs + arena_work.arena_recycled);
  return {heap_work.buffer_allocs, arena_work.buffer_allocs};
}

TEST(MemPlan, QuicksortIsBitIdenticalAndRecycles) {
  const auto [heap_allocs, arena_allocs] = differential(
      kQuicksort, "quicksort", {testing::val(pseudo_random_seq(3000, 997))});
  // The headline property: divide-and-conquer churns same-sized buffers,
  // so the arena halves (at least) the allocation count.
  EXPECT_LE(arena_allocs * 2, heap_allocs)
      << "heap " << heap_allocs << " vs arena " << arena_allocs;
}

TEST(MemPlan, RegularWorkloadsAreBitIdentical) {
  const char* programs[] = {
      "fun f(xs: seq(int)): seq(int) = [x <- xs : x * 2 + 1]",
      "fun f(xs: seq(int)): int = sum([x <- xs : x * x])",
      "fun f(xs: seq(int)): seq(int) = [x <- xs | x > 10 : x]",
      "fun f(xs: seq(real)): real = sum([x <- xs : sqrt(x * x + 1.0)])",
      "fun f(xs: seq(seq(int))): seq(int) = [row <- xs : sum(row)]",
  };
  const char* args[] = {
      "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]",
      "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]",
      "[5,3,8,1,9,2,7,4,6,0,11,13,12,15,14]",
      "[1.5,2.25,3.75,0.5,4.125]",
      "[[1,2,3],[4,5],[6],[7,8,9,10]]",
  };
  for (std::size_t i = 0; i < std::size(programs); ++i) {
    differential(programs[i], "f", {testing::val(args[i])});
  }
}

TEST(MemPlan, EntryExpressionRunsUnderTheArena) {
  // Large enough that freed buffers clear the arena's minimum donation
  // size (tiny buffers are cheaper to reallocate than to recycle).
  const std::string entry =
      "quicksort([i <- [1 .. 300] : (i * 37) mod 83])";
  Session heap(kQuicksort, entry);
  Session arena(kQuicksort, entry);
  arena.set_arena(true);
  EXPECT_EQ(heap.run_entry_vm(), arena.run_entry_vm());
  EXPECT_GT(arena.last_cost().vector_work.arena_recycled, 0u);
}

TEST(MemPlan, ModuleSessionHonorsTheArena) {
  Session s(kQuicksort, "quicksort([4,2,5,1,3])");
  vm::ModuleLoadResult loaded =
      vm::load_module(vm::module_bytes(*s.compiled().module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();

  Session image(loaded.module);
  image.set_arena(true);
  const interp::Value arg = testing::val(pseudo_random_seq(200, 61));
  EXPECT_EQ(image.run_vm("quicksort", {arg}), s.run_vm("quicksort", {arg}));
  EXPECT_GT(image.last_cost().vector_work.arena_recycled, 0u);
}

TEST(MemPlan, TrapsAreIdenticalUnderTheArena) {
  // A budget small enough that quicksort trips T001 mid-run: both
  // allocators must surface the same trap code (no fallback, so the
  // trap propagates).
  const std::string arg = pseudo_random_seq(2000, 997);
  for (const bool use_arena : {false, true}) {
    Session s(kQuicksort);
    s.set_fallback(false);
    s.set_arena(use_arena);
    rt::ExecBudget budget;
    budget.max_resident_bytes = 4096;
    s.set_budget(budget);
    try {
      (void)s.run_vm("quicksort", {testing::val(arg)});
      FAIL() << "expected T001 with arena=" << use_arena;
    } catch (const rt::RuntimeTrap& trap) {
      EXPECT_STREQ(trap.code(), "T001") << "arena=" << use_arena;
    }
  }
}

TEST(MemPlan, AdmissionRejectsOversizedCallsUpFront) {
  // A bounded one-pass map: the plan knows its peak, so admission can
  // reject before any element work happens.
  Session s("fun double(xs: seq(int)): seq(int) = [x <- xs : 2 * x]");
  s.set_fallback(false);
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
  s.set_arena(true);
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
  // The soundness claim behind admission control: evaluate the plan's
  // bound at the call's input scale and compare against the governor's
  // resident-byte watermark for the run.
  Session s("fun sumsq(xs: seq(int)): int = sum([x <- xs : x * x])");
  ASSERT_NE(s.compiled().module->plan, nullptr);
  const auto it = s.compiled().module->fn_index.find("sumsq");
  ASSERT_NE(it, s.compiled().module->fn_index.end());
  const analysis::SymBound bound =
      s.compiled().module->plan->functions[it->second].peak_bytes;
  ASSERT_FALSE(bound.is_top());

  rt::ExecBudget budget;
  budget.max_resident_bytes = 1u << 24;  // generous: governs, never trips
  s.set_budget(budget);
  const std::string arg = pseudo_random_seq(512, 317);
  rt::reset_peak_resident_bytes();
  (void)s.run_vm("sumsq", {testing::val(arg)});
  const std::uint64_t observed = rt::peak_resident_bytes();
  EXPECT_GE(bound.eval(512), observed)
      << "bound " << bound.to_text() << " at N=512";
}

}  // namespace
}  // namespace proteus
