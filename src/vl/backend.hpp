// backend.hpp — execution policy for the flat vector library.
//
// The vector model is machine independent; this library ships two
// realizations of each kernel family:
//
//   * Serial  — a plain loop; the reference implementation and the natural
//               choice for the "sequential execution" measurements of the
//               paper's Section 6.
//   * OpenMP  — a work-partitioned loop (blocked two-pass algorithms for
//               scans and packs, which the serial backend runs as one
//               block); stands in for the SIMD/vector machines CVL targeted.
//
// The active backend is a process-global setting (kernels are pure, so the
// choice only affects performance, never results). Per-call work counters
// feed the machine-independent work/step measurements that Proteus
// prototyping is about.
#pragma once

#include <cstdint>

#include "vl/vec.hpp"

namespace proteus::vl {

enum class Backend : std::uint8_t {
  kSerial,
  kOpenMP,
};

/// Returns the process-global backend. Defaults to Serial; a process
/// started with PROTEUS_BACKEND=openmp in the environment begins on the
/// OpenMP backend instead (when the build has it), which lets a whole
/// test run exercise the parallel kernels without code changes.
[[nodiscard]] Backend backend() noexcept;

/// Sets the process-global backend. Returns the previous value.
Backend set_backend(Backend b) noexcept;

/// True when this build can actually run the OpenMP backend.
[[nodiscard]] bool openmp_available() noexcept;

/// Number of threads the OpenMP backend would use (1 for Serial builds).
[[nodiscard]] int backend_threads() noexcept;

/// RAII guard that switches the backend for a scope.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) : previous_(set_backend(b)) {}
  ~BackendGuard() { set_backend(previous_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend previous_;
};

/// Vector-model cost counters (Blelloch's work/step accounting): every
/// primitive adds its element count to `work` and one to `steps`.
struct VectorStats {
  std::uint64_t primitive_calls = 0;  ///< number of vector primitives issued
  std::uint64_t element_work = 0;     ///< total elements touched (work)
  std::uint64_t segment_work = 0;     ///< segments touched by segdesc ops
  std::uint64_t buffer_allocs = 0;    ///< output buffers kernels heap-allocated

  /// Also the governor's kernel charge point: the element count feeds the
  /// rt:: step budget and the injected-kernel fault plan, so this can
  /// throw rt::RuntimeTrap when a budget trips or a fault fires (never
  /// with the governor inactive).
  void record(Size elements) {
    primitive_calls += 1;
    element_work += static_cast<std::uint64_t>(elements);
    rt::charge_work(static_cast<std::uint64_t>(elements));
  }

  /// Physical (not model-level) cost: one fresh output buffer. Unlike
  /// primitive_calls/element_work — which every engine must agree on —
  /// this is optimization-sensitive: fusion and in-place reuse lower it.
  void record_alloc() noexcept { buffer_allocs += 1; }

  /// Segmented primitives additionally report how many segments their
  /// descriptor covered — the irregularity measure of a run.
  void record_segments(Size segments) noexcept {
    segment_work += static_cast<std::uint64_t>(segments);
  }
};

/// Per-thread stats, reset/read around a region of interest on the
/// thread driving the evaluation (kernels record outside their parallel
/// regions, so the driving thread sees all of its own work and none of
/// any other thread's — the isolation concurrent serving relies on).
[[nodiscard]] VectorStats& stats() noexcept;
void reset_stats() noexcept;

/// Minimum vector length before the OpenMP backend forks threads;
/// shorter vectors run the serial loop regardless of backend.
inline constexpr Size kParallelGrain = 4096;

}  // namespace proteus::vl
