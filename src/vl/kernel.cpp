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

}  // namespace proteus::vl::detail
