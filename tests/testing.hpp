// testing.hpp — shared helpers for the proteus-vec test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/proteus.hpp"

namespace proteus::testing {

/// Builds a boxed value from a P literal (e.g. "[[1,2],[3]]").
inline interp::Value val(std::string_view literal) {
  return parse_value(literal);
}

/// Runs `fn(args...)` on both engines of `session` — the reference
/// interpreter and the bytecode VM — asserts they agree, and returns the
/// (reference) result for further checks.
inline interp::Value both(Session& session, const std::string& fn,
                          const interp::ValueList& args) {
  interp::Value reference = session.run_reference(fn, args);
  interp::Value bytecode = session.run_vm(fn, args);
  EXPECT_EQ(reference, bytecode)
      << fn << ": reference " << interp::to_text(reference) << " vs vm "
      << interp::to_text(bytecode);
  return reference;
}

/// Asserts both engines agree AND match an expected literal.
inline void expect_both(Session& session, const std::string& fn,
                        const interp::ValueList& args,
                        std::string_view expected) {
  interp::Value result = both(session, fn, args);
  EXPECT_EQ(result, val(expected)) << fn << " = " << interp::to_text(result);
}

}  // namespace proteus::testing
