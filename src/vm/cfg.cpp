#include "vm/cfg.hpp"

namespace proteus::vm {

void Liveness::solve() {
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t pc = def_.size(); pc-- > 0;) {
      std::uint64_t* out = out_.data() + pc * words_;
      for (const std::size_t s : succ_[pc]) {
        const auto d = static_cast<std::size_t>(def_[s]);
        for (std::size_t w = 0; w < words_; ++w) {
          // live_in(s) = uses(s) ∪ (out(s) \ def(s)), merged into out(pc).
          const std::uint64_t kill = def_[s] >= 0 && d / 64 == w ? bit(d) : 0;
          const std::uint64_t in =
              uses_[s * words_ + w] | (out_[s * words_ + w] & ~kill);
          changed = changed || (in & ~out[w]) != 0;
          out[w] |= in;
        }
      }
    }
  }
}

}  // namespace proteus::vm
