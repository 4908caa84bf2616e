// kernel.hpp — loop-dispatch helpers shared by the vl kernels.
//
// Every threaded loop of the library, and the fused kernels' region, runs
// through for_blocks, so the Serial/OpenMP policy decision and the
// exception discipline of a parallel region live in exactly one place.
// parallel_for / parallel_reduce are the per-iteration forms; kernels with
// cross-iteration dependences (scans, packs) split their loop into the
// blocks of block_count and compose passes over them. Bodies must be data-
// race free across blocks (each iteration owns its output slot).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "vl/backend.hpp"
#include "vl/vec.hpp"

namespace proteus::vl::detail {

/// True when the current policy wants a threaded loop of `n` iterations.
[[nodiscard]] inline bool use_threads(Size n) noexcept {
  return backend() == Backend::kOpenMP && n >= kParallelGrain &&
         openmp_available();
}

/// Number of contiguous blocks a loop over `n` elements of work runs as:
/// one per OpenMP thread when use_threads(n), otherwise one.
[[nodiscard]] inline Size block_count(Size n) noexcept {
  return use_threads(n) ? Size{backend_threads()} : Size{1};
}

/// The threaded region behind for_blocks (kernel.cpp): block(ctx, b, lo,
/// hi) for every block, one thread each. Type-erased so the region and its
/// exception handling are compiled once, not once per loop body.
void run_blocks(Size n, Size blocks, void (*block)(void*, Size, Size, Size),
                void* ctx);

/// Runs body(b, lo, hi) for every block b of [0, n) cut into `blocks`
/// equal contiguous ranges [lo, hi) (trailing ones may be empty), one
/// thread per block when there is more than one. One block is a plain call
/// on this thread.
///
/// An exception must not leave an OpenMP region (the runtime would
/// terminate the process), so every block catches its own and stops there;
/// after the region the exception of the lowest block is rethrown. As each
/// block stops at its first throw, that is the error of the lowest failing
/// iteration: the one the serial loop raises.
template <typename F>
void for_blocks(Size n, Size blocks, F&& body) {
  if (blocks <= 1) {
    body(Size{0}, Size{0}, n);
    return;
  }
  using Body = std::remove_reference_t<F>;
  run_blocks(
      n, blocks,
      [](void* ctx, Size b, Size lo, Size hi) {
        (*static_cast<Body*>(ctx))(b, lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Run body(i) for i in [0, n), partitioned across threads when the OpenMP
/// backend is active and the trip count is worth it.
template <typename F>
void parallel_for(Size n, F&& body) {
  for_blocks(n, block_count(n), [&](Size, Size lo, Size hi) {
    for (Size i = lo; i < hi; ++i) body(i);
  });
}

/// Reduce acc = combine(acc, leaf(i)) over i in [0, n) starting from
/// `init`, one partial per block, folded in block order. `combine` must be
/// associative with `init` its identity.
template <typename T, typename Leaf, typename Combine>
T parallel_reduce(Size n, T init, Leaf&& leaf, Combine&& combine) {
  const Size blocks = block_count(n);
  T acc = init;  // block 0's partial; the others' go to `rest`
  std::vector<T> rest(static_cast<std::size_t>(blocks - 1), init);
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    T local = init;
    for (Size i = lo; i < hi; ++i) local = combine(local, leaf(i));
    (b == 0 ? acc : rest[static_cast<std::size_t>(b - 1)]) = local;
  });
  for (const T& r : rest) acc = combine(acc, r);
  return acc;
}

/// Count-then-fill over the blocks of [0, n): count(lo, hi) is the share
/// of the output block [lo, hi) produces; an exclusive prefix over the
/// blocks turns the shares into output ranges; sized(total) runs on this
/// thread between the passes (the kernel's records, checks and output
/// allocation); then fill(lo, hi, start, stop) writes each block's share
/// into [start, stop). The serial backend runs it as one block.
template <typename Count, typename Sized, typename Fill>
void count_then_fill(Size n, Size blocks, Count&& count, Sized&& sized,
                     Fill&& fill) {
  Size one[2] = {0, 0};
  std::vector<Size> many(blocks > 1 ? static_cast<std::size_t>(blocks) + 1
                                    : 0);
  Size* bound = blocks > 1 ? many.data() : one;  // bound[b] .. bound[b + 1]
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    bound[b + 1] = count(lo, hi);
  });
  for (Size b = 0; b < blocks; ++b) bound[b + 1] += bound[b];
  sized(bound[blocks]);
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    fill(lo, hi, bound[b], bound[b + 1]);
  });
}

}  // namespace proteus::vl::detail
