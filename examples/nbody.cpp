// nbody.cpp — all-pairs gravitational interactions: the classic O(n^2)
// data-parallel kernel, written as an iterator over bodies whose body is
// itself an iterator over all bodies (nested parallelism over the SAME
// sequence — the "fixed source" case of Section 4.5: the body list is
// gathered from one shared copy, never replicated).
//
// Build & run:  ./build/examples/nbody
#include <cmath>
#include <iostream>
#include <random>

#include "core/proteus.hpp"

namespace {

const char* kProgram = R"(
  // a body is ((x, y), (vx, vy), mass)
  fun accel_on(i: int, bodies: seq(((real,real),(real,real),real)))
      : (real, real) =
    let pi = bodies[i].1 in
    let axs = [j <- [1 .. #bodies] | j != i :
                 let b = bodies[j] in
                 let dx = b.1.1 - pi.1 in
                 let dy = b.1.2 - pi.2 in
                 let d2 = dx * dx + dy * dy + 0.01 in
                 let inv = b.3 / (d2 * sqrt(d2)) in
                 (dx * inv, dy * inv)] in
    (sum([a <- axs : a.1]), sum([a <- axs : a.2]))

  // one leapfrog step: every body updated in parallel, all-pairs forces
  fun step(bodies: seq(((real,real),(real,real),real)), dt: real)
      : seq(((real,real),(real,real),real)) =
    [i <- [1 .. #bodies] :
       let b = bodies[i] in
       let a = accel_on(i, bodies) in
       let vx = b.2.1 + a.1 * dt in
       let vy = b.2.2 + a.2 * dt in
       ((b.1.1 + vx * dt, b.1.2 + vy * dt), (vx, vy), b.3)]

  fun kinetic(bodies: seq(((real,real),(real,real),real))): real =
    sum([b <- bodies : 0.5 * b.3 * (b.2.1 * b.2.1 + b.2.2 * b.2.2)])
)";

using proteus::interp::Value;
using proteus::interp::ValueList;

Value random_bodies(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(-1.0, 1.0);
  std::uniform_real_distribution<double> mass(0.5, 2.0);
  ValueList bodies;
  for (int i = 0; i < n; ++i) {
    bodies.push_back(Value::tuple(
        {Value::tuple({Value::reals(pos(rng)), Value::reals(pos(rng))}),
         Value::tuple({Value::reals(0.0), Value::reals(0.0)}),
         Value::reals(mass(rng))}));
  }
  return Value::seq(std::move(bodies));
}

}  // namespace

int main() {
  proteus::Session session(kProgram);
  Value dt = Value::reals(0.01);

  Value bodies = random_bodies(11, 24);
  Value ref = session.run_reference("step", {bodies, dt});
  Value vec = session.run_vm("step", {bodies, dt});
  bool ok = ref == vec;
  std::cout << "engines agree on one step: " << (ok ? "yes" : "NO") << '\n';

  // run a few steps on the VM, tracking kinetic energy
  Value state = bodies;
  for (int s = 0; s < 5; ++s) {
    state = session.run_vm("step", {state, dt});
    Value ke = session.run_vm("kinetic", {state});
    std::cout << "step " << s + 1 << ": kinetic energy = " << ke << '\n';
  }

  const auto& w = session.last_cost().vector_work;
  (void)session.run_vm("step", {bodies, dt});
  std::cout << "\none step of n=24 all-pairs: "
            << session.last_cost().vector_work.primitive_calls
            << " vector primitives, "
            << session.last_cost().vector_work.element_work
            << " elements touched\n";
  (void)w;
  return ok ? 0 : 1;
}
