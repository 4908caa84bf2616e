// Unit tests for the execution governor: byte/step accounting, budget
// enforcement, cooperative cancellation, scope save/restore, and the
// structural-nesting guard.
//
// Each test installs its own GovernorScope so the process-global governor
// state is always restored — these tests run in the same binary as
// everything else.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "kernels/fused.hpp"
#include "rt/rt.hpp"
#include "testing.hpp"
#include "vl/vec.hpp"

namespace proteus::rt {
namespace {

TEST(Governor, DefaultLimitsWithNoBudget) {
  EXPECT_EQ(depth_limit(), kDefaultMaxCallDepth);
  EXPECT_EQ(nesting_limit(), kDefaultMaxNesting);
  EXPECT_FALSE(ExecBudget{}.limits_anything());
}

TEST(Governor, BudgetTightensDepthAndNestingLimits) {
  ExecBudget b;
  b.max_depth = 100;
  GovernorScope scope(b);
  EXPECT_EQ(depth_limit(), 100);
  EXPECT_EQ(nesting_limit(), 100);
  // A budget looser than the structural default only affects call depth.
  ExecBudget loose;
  loose.max_depth = 50000;
  GovernorScope inner(loose);
  EXPECT_EQ(depth_limit(), 50000);
  EXPECT_EQ(nesting_limit(), kDefaultMaxNesting);
}

TEST(Governor, VecChargesAndReleasesResidentBytes) {
  const std::uint64_t before = resident_bytes();
  {
    vl::Vec<std::int64_t> v(1024, std::int64_t{7});
    EXPECT_GE(resident_bytes(), before + 1024 * sizeof(std::int64_t));
    vl::Vec<std::int64_t> copy = v;  // copies charge too
    EXPECT_GE(resident_bytes(), before + 2 * 1024 * sizeof(std::int64_t));
    vl::Vec<std::int64_t> moved = std::move(copy);  // moves transfer
    EXPECT_GE(resident_bytes(), before + 2 * 1024 * sizeof(std::int64_t));
  }
  EXPECT_EQ(resident_bytes(), before);
}

TEST(Governor, MemoryBudgetTrapsAsT001) {
  const std::uint64_t before = resident_bytes();
  ExecBudget b;
  b.max_resident_bytes = before + 1024;
  GovernorScope scope(b);
  try {
    vl::Vec<std::int64_t> big(100000, std::int64_t{1});
    FAIL() << "expected T001";
  } catch (const RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), Trap::kMemory);
    EXPECT_EQ(e.site(), "vl.alloc");
  }
  // The failed allocation must have been rolled back in full.
  EXPECT_EQ(resident_bytes(), before);
  // Small allocations under the cap still succeed afterwards.
  vl::Vec<std::int64_t> small(8, std::int64_t{1});
  EXPECT_EQ(small.size(), 8);
}

TEST(Governor, StepBudgetTrapsAsT002) {
  ExecBudget b;
  b.max_steps = 10;
  GovernorScope scope(b);
  EXPECT_EQ(steps(), 0u);
  charge_work(8);
  EXPECT_EQ(steps(), 8u);
  try {
    charge_work(8);
    FAIL() << "expected T002";
  } catch (const RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), Trap::kSteps);
    EXPECT_GE(e.steps_at_trip(), 10u);
  }
}

TEST(Governor, CancellationTrapsAtNextPollAsT005) {
  GovernorScope scope(ExecBudget{});
  EXPECT_FALSE(cancel_requested());
  poll("test");  // no-op while not cancelled
  request_cancel();
  EXPECT_TRUE(cancel_requested());
  try {
    poll("test");
    FAIL() << "expected T005";
  } catch (const RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), Trap::kCancelled);
    EXPECT_EQ(e.site(), "test");
  }
  clear_cancel();
  EXPECT_FALSE(cancel_requested());
  poll("test");
}

TEST(Governor, DeadlineTrapsAsT004) {
  ExecBudget b;
  b.deadline_ms = 1;
  GovernorScope scope(b);
  // Poll until the 1ms deadline passes; the deadline check is strided,
  // so spin on poll() rather than asserting the first call traps.
  bool trapped = false;
  for (int i = 0; i < 100000000 && !trapped; ++i) {
    try {
      poll("test");
    } catch (const RuntimeTrap& e) {
      EXPECT_EQ(e.trap(), Trap::kDeadline);
      trapped = true;
    }
  }
  EXPECT_TRUE(trapped);
}

TEST(Governor, ScopeRestoresPreviousBudget) {
  ExecBudget outer;
  outer.max_steps = 1000;
  GovernorScope outer_scope(outer);
  charge_work(5);
  EXPECT_EQ(steps(), 5u);
  {
    ExecBudget inner;
    inner.max_steps = 50;
    GovernorScope inner_scope(inner);
    EXPECT_EQ(steps(), 0u);  // fresh step counter per scope
    charge_work(40);
    EXPECT_EQ(steps(), 40u);
  }
  EXPECT_EQ(steps(), 5u);  // outer counter restored
  charge_work(500);        // would have tripped the inner 50-step budget
}

TEST(Governor, NestingGuardTrapsBeyondTheLimit) {
  ExecBudget b;
  b.max_depth = 4;
  GovernorScope scope(b);
  int depth = 0;
  NestingGuard g1(&depth, "test");
  NestingGuard g2(&depth, "test");
  NestingGuard g3(&depth, "test");
  NestingGuard g4(&depth, "test");
  EXPECT_EQ(depth, 4);
  try {
    NestingGuard g5(&depth, "test");
    FAIL() << "expected T003";
  } catch (const RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), Trap::kDepth);
  }
  EXPECT_EQ(depth, 4);  // the failed guard rolled its increment back
}

TEST(Governor, RaiseCapturesCounters) {
  ExecBudget b;
  b.max_steps = 1000;  // step accounting is active only under a budget
  GovernorScope scope(b);
  charge_work(3);
  try {
    raise(Trap::kCancelled, "unit-test raise", "test", 7);
    FAIL();
  } catch (const RuntimeTrap& e) {
    EXPECT_EQ(e.trap(), Trap::kCancelled);
    EXPECT_EQ(e.steps_at_trip(), 3u);
    EXPECT_EQ(e.pc(), 7);
  }
}

// --- a trap inside a threaded fused chain ---------------------------------

/// A fused chain of 63 sqrt nodes over 2M reals: long enough (tens of
/// milliseconds) for a cancel or deadline to land while it runs.
std::optional<RuntimeTrap> run_long_chain(bool cancel_midway,
                                          std::uint32_t deadline_ms) {
  kernels::FusedExpr fe;
  fe.input_flags = {0};
  fe.nodes.emplace_back();  // the input
  for (std::uint8_t k = 1; k < kernels::kMaxFusedNodes; ++k) {
    kernels::MicroOp op;
    op.kind = kernels::MicroOp::Kind::kPrim;
    op.prim = lang::Prim::kSqrt;
    op.a = static_cast<std::uint8_t>(k - 1);
    fe.nodes.push_back(op);
  }
  const vl::Size n = vl::Size{1} << 21;
  const kernels::VValue input =
      kernels::VValue::seq(seq::Array::reals(vl::RealVec(n, 2.0)));
  ExecBudget budget;
  budget.deadline_ms = deadline_ms;
  GovernorScope scope(budget);
  std::thread canceller([cancel_midway] {
    if (!cancel_midway) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    request_cancel();
  });
  std::optional<RuntimeTrap> trap;
  try {
    (void)kernels::eval_fused(fe, {input});
  } catch (const RuntimeTrap& t) {
    trap = t;
  }
  canceller.join();
  clear_cancel();
  return trap;
}

// A cancel or a deadline that lands during a threaded fused chain leaves
// the region through for_blocks like a kernel error: the trap code and
// site are the serial backend's, and the process does not terminate.
TEST(Governor, TrapDuringThreadedFusedChainRaisesLikeSerial) {
  if (!vl::openmp_available()) GTEST_SKIP();
  for (const bool cancel : {true, false}) {
    SCOPED_TRACE(cancel ? "cancel" : "deadline");
    const std::uint32_t deadline_ms = cancel ? 0 : 5;
    std::optional<RuntimeTrap> serial;
    {
      vl::BackendGuard guard(vl::Backend::kSerial);
      serial = run_long_chain(cancel, deadline_ms);
    }
    std::optional<RuntimeTrap> threaded;
    {
      testing::ThreadedBackend two(2);
      threaded = run_long_chain(cancel, deadline_ms);
    }
    ASSERT_TRUE(serial.has_value());
    ASSERT_TRUE(threaded.has_value());
    EXPECT_EQ(serial->trap(), cancel ? Trap::kCancelled : Trap::kDeadline);
    EXPECT_EQ(threaded->trap(), serial->trap());
    EXPECT_EQ(serial->site(), "fused");
    EXPECT_EQ(threaded->site(), serial->site());
  }
}

}  // namespace
}  // namespace proteus::rt
