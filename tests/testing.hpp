// testing.hpp — shared helpers for the proteus-vec test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/proteus.hpp"
#include "vl/backend.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

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

/// Asserts both engines reject `fn(args...)` with the same EvalError
/// message, `what`.
inline void expect_both_fail(Session& session, const std::string& fn,
                             const interp::ValueList& args,
                             std::string_view what) {
  for (const bool vm : {false, true}) {
    const char* engine = vm ? "vm" : "reference";
    try {
      interp::Value result =
          vm ? session.run_vm(fn, args) : session.run_reference(fn, args);
      ADD_FAILURE() << fn << " on " << engine << " returned "
                    << interp::to_text(result) << ", expected: " << what;
    } catch (const EvalError& e) {
      EXPECT_EQ(std::string_view(e.what()), what) << fn << " on " << engine;
    }
  }
}

/// The OpenMP vl backend on `threads` threads for a scope (a no-op backend
/// switch in builds without OpenMP; check vl::openmp_available()).
class ThreadedBackend {
 public:
  explicit ThreadedBackend(int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~ThreadedBackend() {
#ifdef _OPENMP
    omp_set_num_threads(saved_threads_);
#endif
  }
  ThreadedBackend(const ThreadedBackend&) = delete;
  ThreadedBackend& operator=(const ThreadedBackend&) = delete;

 private:
  vl::BackendGuard backend_{vl::Backend::kOpenMP};
#ifdef _OPENMP
  int saved_threads_ = omp_get_max_threads();
#endif
};

}  // namespace proteus::testing
