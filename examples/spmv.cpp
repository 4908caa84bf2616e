// spmv.cpp — sparse matrix–vector product: the canonical *irregular*
// nested data-parallel computation (each row has a different number of
// nonzeros), which the paper's Section 6 claims executes "with excellent
// load-balance" after flattening.
//
// The matrix is a sequence of rows; each row a sequence of (column, value)
// pairs. The program is three lines of P; the transformation turns the
// per-row dot products into segmented vector operations over one flat
// value vector, so a single long row cannot stall the others.
//
// Build & run:  ./build/examples/spmv
#include <iostream>
#include <random>

#include "core/proteus.hpp"

namespace {

const char* kProgram = R"(
  // y[r] = sum_j A[r][j].2 * x[A[r][j].1]
  fun spmv(rows: seq(seq((int, real))), x: seq(real)): seq(real) =
    [row <- rows : sum([e <- row : e.2 * x[e.1]])]

  fun row_nnz(rows: seq(seq((int, real)))): seq(int) =
    [row <- rows : #row]
)";

using proteus::interp::Value;
using proteus::interp::ValueList;

/// Random sparse matrix with a skewed nonzero distribution (some rows 64x
/// denser than others — the irregular case).
Value random_matrix(std::uint64_t seed, int rows, int cols) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> col(1, cols);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  ValueList out;
  for (int r = 0; r < rows; ++r) {
    int nnz = 1 << (rng() % 7);  // 1..64 nonzeros
    ValueList row;
    for (int k = 0; k < nnz; ++k) {
      row.push_back(Value::tuple({Value::ints(col(rng)),
                                  Value::reals(val(rng))}));
    }
    out.push_back(Value::seq(std::move(row)));
  }
  return Value::seq(std::move(out));
}

Value random_vector(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  ValueList out;
  for (int i = 0; i < n; ++i) out.push_back(Value::reals(val(rng)));
  return Value::seq(std::move(out));
}

}  // namespace

int main() {
  proteus::Session session(kProgram);

  const int rows = 64;
  const int cols = 48;
  Value a = random_matrix(3, rows, cols);
  Value x = random_vector(4, cols);

  Value y_ref = session.run_reference("spmv", {a, x});
  Value y_vec = session.run_vm("spmv", {a, x});
  const bool ok = y_ref == y_vec;

  Value nnz = session.run_vm("row_nnz", {a});
  std::cout << "row nonzero counts (irregular!): " << nnz << '\n';
  std::cout << "y[1..4] = ";
  for (int i = 0; i < 4; ++i) {
    std::cout << y_vec.as_seq()[static_cast<std::size_t>(i)] << ' ';
  }
  std::cout << "\nengines agree: " << (ok ? "yes" : "NO") << '\n';

  const auto& w = session.last_cost().vector_work;
  std::cout << "vector-model cost: " << w.primitive_calls
            << " primitives over " << w.element_work << " elements\n";
  std::cout << "(primitive count is independent of row lengths: the "
               "flattened dot products\n run as segmented operations over "
               "one flat nonzero vector)\n";
  return ok ? 0 : 1;
}
