// Unit tests for the trap taxonomy: stable codes, reasons, retryability,
// and the formatted what() message.
#include <gtest/gtest.h>

#include <string>

#include "rt/rt.hpp"

namespace proteus::rt {
namespace {

TEST(Trap, CodesAreStable) {
  EXPECT_STREQ(trap_code(Trap::kMemory), "T001");
  EXPECT_STREQ(trap_code(Trap::kSteps), "T002");
  EXPECT_STREQ(trap_code(Trap::kDepth), "T003");
  EXPECT_STREQ(trap_code(Trap::kDeadline), "T004");
  EXPECT_STREQ(trap_code(Trap::kCancelled), "T005");
  EXPECT_STREQ(trap_code(Trap::kInjectAlloc), "T006");
  EXPECT_STREQ(trap_code(Trap::kInjectKernel), "T007");
  EXPECT_STREQ(trap_code(Trap::kInjectOpt), "T008");
}

TEST(Trap, EveryCodeHasAReason) {
  for (int i = 1; i <= 8; ++i) {
    const Trap t = static_cast<Trap>(i);
    EXPECT_NE(std::string(trap_reason(t)), "");
  }
}

TEST(Trap, WhatCarriesCodeSiteAndCounters) {
  RuntimeTrap t(Trap::kMemory, "resident bytes over budget", "vl.alloc",
                /*bytes=*/4096, /*steps=*/17);
  const std::string what = t.what();
  EXPECT_NE(what.find("[T001]"), std::string::npos) << what;
  EXPECT_NE(what.find("vl.alloc"), std::string::npos) << what;
  EXPECT_NE(what.find("4096"), std::string::npos) << what;
  EXPECT_EQ(t.trap(), Trap::kMemory);
  EXPECT_STREQ(t.code(), "T001");
  EXPECT_EQ(t.site(), "vl.alloc");
  EXPECT_EQ(t.bytes_at_trip(), 4096u);
  EXPECT_EQ(t.steps_at_trip(), 17u);
  EXPECT_EQ(t.pc(), -1);
}

TEST(Trap, VmTrapsCarryThePc) {
  RuntimeTrap t(Trap::kCancelled, "cancelled", "vm", 0, 0, /*pc=*/42);
  EXPECT_EQ(t.pc(), 42);
  EXPECT_NE(std::string(t.what()).find("pc=42"), std::string::npos);
}

TEST(Trap, IsAProteusErrorButNotAnEvalError) {
  // Structured trap reporting (proteusc exit 4, proteusd's "trap" reply)
  // catches RuntimeTrap specifically; generic error reporting still
  // catches it as proteus::Error.
  RuntimeTrap t(Trap::kSteps, "steps", "vm", 0, 9);
  const Error& as_error = t;
  EXPECT_NE(std::string(as_error.what()).find("T002"), std::string::npos);
  EXPECT_EQ(dynamic_cast<const EvalError*>(&as_error), nullptr);
}

}  // namespace
}  // namespace proteus::rt
