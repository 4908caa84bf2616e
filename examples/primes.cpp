// primes.cpp — nested parallelism with filters and higher-order functions:
// a prime sieve and per-number divisor structure, showing the filtered
// iterator [x <- d | b : e] of Section 2 end to end, plus a user-defined
// higher-order fold applied in parallel (the "high-order parallel function
// application" of Section 6).
//
// Build & run:  ./build/examples/primes
#include <iostream>

#include "core/proteus.hpp"
#include "lang/printer.hpp"

namespace {

const char* kProgram = R"(
  fun divisors(n: int): seq(int) = [d <- [1 .. n] | n mod d == 0 : d]

  fun is_prime(n: int): bool = n >= 2 and #divisors(n) == 2

  fun primes_upto(n: int): seq(int) = [k <- [2 .. n] | is_prime(k) : k]

  // sum of proper divisors, via a user-defined parallel-applicable fold
  fun add2(a: int, b: int): int = a + b
  fun fold(f: (int,int) -> int, z: int, v: seq(int)): int =
    if #v == 0 then z
    else f(fold(f, z, [i <- [1 .. #v - 1] : v[i]]), v[#v])
  fun aliquot(n: int): int = fold(add2, 0, [d <- divisors(n) | d != n : d])

  // perfect numbers: aliquot(n) == n — nested parallelism three deep
  fun perfect_upto(n: int): seq(int) =
    [k <- [2 .. n] | aliquot(k) == k : k]
)";

}  // namespace

int main() {
  proteus::Session session(kProgram);
  using proteus::parse_value;

  auto primes_ref = session.run_reference("primes_upto", {parse_value("60")});
  auto primes_vec = session.run_vm("primes_upto", {parse_value("60")});
  std::cout << "primes <= 60:  " << primes_vec << '\n';

  auto perfect = session.run_vm("perfect_upto", {parse_value("500")});
  std::cout << "perfect <= 500: " << perfect << '\n';

  auto divisors = session.run_vm("divisors", {parse_value("36")});
  std::cout << "divisors(36):  " << divisors << '\n';

  bool ok = primes_ref == primes_vec &&
            perfect == parse_value("[6,28,496]");
  std::cout << "checks pass: " << (ok ? "yes" : "NO") << '\n';

  // Show which parallel extensions the transformation generated — the
  // "static property of the program" of Section 3.
  std::cout << "\ngenerated parallel extensions:\n";
  for (const auto& f : session.compiled().vec.functions) {
    if (!f.extension_of.empty()) {
      std::cout << "  " << f.name << "  (from " << f.extension_of << ")\n";
    }
  }
  return ok ? 0 : 1;
}
