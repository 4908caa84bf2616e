#include "vl/kernel.hpp"

#include <algorithm>
#include <exception>

namespace proteus::vl::detail {

void run_blocks(Size n, Size blocks, void (*block)(void*, Size, Size, Size),
                void* ctx) {
  const Size step = (n + blocks - 1) / blocks;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(blocks));
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1) num_threads(static_cast<int>(blocks))
#endif
  for (Size b = 0; b < blocks; ++b) {
    const Size lo = std::min(n, b * step);
    const Size hi = std::min(n, lo + step);
    try {
      block(ctx, b, lo, hi);
    } catch (...) {
      errors[static_cast<std::size_t>(b)] = std::current_exception();
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

IntVec exclusive_offsets(const IntVec& lens) {
  const Size n = lens.size();
  IntVec offsets(n + 1);
  const Int* lp = lens.data();
  Int* out = offsets.data();
  const Size blocks = block_count(n);
  std::vector<Int> carry(static_cast<std::size_t>(blocks) + 1, 0);
  for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
    Int acc = 0;
    for (Size i = lo; i < hi; ++i) {
      out[i] = acc;
      acc += lp[i];
    }
    carry[static_cast<std::size_t>(b) + 1] = acc;
  });
  for (std::size_t b = 1; b < carry.size(); ++b) carry[b] += carry[b - 1];
  out[n] = carry.back();
  if (blocks > 1) {
    for_blocks(n, blocks, [&](Size b, Size lo, Size hi) {
      const Int base = carry[static_cast<std::size_t>(b)];
      for (Size i = lo; i < hi; ++i) out[i] += base;
    });
  }
  return offsets;
}

}  // namespace proteus::vl::detail
