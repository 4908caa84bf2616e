// quicksort.cpp — the paper's motivating example (Section 1): recursive
// divide-and-conquer expressed with nested data-parallelism, flattened to
// vector operations.
//
// "a data-parallel sort function can not be applied in parallel to every
//  sequence in a collection of sequences [in flat languages]. Yet this is
//  the key step in several parallel divide-and-conquer sorting
//  algorithms."
//
// This example sorts one large sequence AND a ragged collection of
// sequences (`sortall`), and prints the vector-model cost of each: note
// how the primitive count grows with recursion depth (O(log n)) while the
// element work grows with data size — the load-balance claim of Section 6.
//
// Build & run:  ./build/examples/quicksort
#include <iostream>
#include <random>

#include "core/proteus.hpp"

namespace {

const char* kProgram = R"(
  fun quicksort(v: seq(int)): seq(int) =
    if #v <= 1 then v
    else
      let pivot = v[1 + (#v / 2)] in
      let parts = [part <- [[x <- v | x < pivot : x],
                            [x <- v | x > pivot : x]] : quicksort(part)] in
      parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]

  fun sortall(m: seq(seq(int))): seq(seq(int)) = [row <- m : quicksort(row)]
)";

proteus::interp::Value random_seq(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<proteus::vl::Int> dist(0, 999);
  proteus::interp::ValueList elems;
  elems.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    elems.push_back(proteus::interp::Value::ints(dist(rng)));
  }
  return proteus::interp::Value::seq(std::move(elems));
}

}  // namespace

int main() {
  proteus::Session session(kProgram);

  // 1. Sort one sequence; compare engines.
  proteus::interp::Value input = random_seq(1, 24);
  auto reference = session.run_reference("quicksort", {input});
  auto vectorised = session.run_vm("quicksort", {input});
  std::cout << "input : " << input << '\n';
  std::cout << "sorted: " << vectorised << '\n';
  std::cout << "engines agree: " << (reference == vectorised ? "yes" : "NO")
            << "\n\n";

  // 2. The vector-model cost profile: primitives ~ recursion depth.
  std::cout << "n        vector primitives   element work\n";
  for (int n : {64, 256, 1024, 4096}) {
    (void)session.run_vm("quicksort", {random_seq(7, n)});
    const auto& w = session.last_cost().vector_work;
    std::cout.width(8);
    std::cout << std::left << n;
    std::cout.width(20);
    std::cout << w.primitive_calls << w.element_work << '\n';
  }

  // 3. Nested application: sort every row of a ragged collection at once.
  proteus::interp::ValueList rows;
  std::mt19937_64 rng(42);
  for (int r = 0; r < 6; ++r) {
    rows.push_back(random_seq(100 + static_cast<std::uint64_t>(r),
                              static_cast<int>(rng() % 8)));
  }
  proteus::interp::Value ragged = proteus::interp::Value::seq(rows);
  std::cout << "\nragged: " << ragged << '\n';
  std::cout << "sorted: " << session.run_vm("sortall", {ragged}) << '\n';
  return reference == vectorised ? 0 : 1;
}
