// quickstart.cpp — the worked example of Section 5 of the paper, end to
// end: compile `[k <- [1..5] : sqs(k)]`, inspect every transformation
// stage, and run it on both engines.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/proteus.hpp"
#include "lang/printer.hpp"

int main() {
  // The program of Section 2 / Section 5: a data-parallel squares function
  // applied, in parallel, to every k in [1..5] — nested data-parallelism.
  const char* program = R"(
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
  )";
  const char* entry = "[k <- [1 .. 5] : sqs(k)]";

  proteus::Session session(program, entry);

  std::cout << "=== source program (P) ===\n"
            << proteus::lang::to_text(session.compiled().checked) << '\n';
  std::cout << "=== entry expression ===\n"
            << proteus::lang::to_text(session.compiled().entry_checked)
            << "\n\n";
  std::cout << "=== after iterator elimination (R1 + R2) ===\n"
            << proteus::lang::to_text(session.compiled().entry_flat)
            << "\n\n";
  std::cout << "=== transformed program (V form, after T1) ===\n"
            << proteus::lang::to_text(session.compiled().vec) << '\n';

  auto reference = session.run_entry_reference();
  auto vectorised = session.run_entry_vm();

  std::cout << "reference interpreter: " << reference << '\n';
  std::cout << "bytecode VM:           " << vectorised << '\n';
  std::cout << "results match: " << (reference == vectorised ? "yes" : "NO")
            << '\n';

  const auto& cost = session.last_cost();
  std::cout << "\nvector-model cost: " << cost.vector_work.primitive_calls
            << " vector primitives over " << cost.vector_work.element_work
            << " elements\n";
  return reference == vectorised ? 0 : 1;
}
