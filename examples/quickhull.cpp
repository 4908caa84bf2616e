// quickhull.cpp — planar convex hull by recursive divide-and-conquer: the
// showcase nested data-parallel algorithm of the NESL lineage the paper
// builds on. Each level filters the points above a line (data-parallel),
// finds the farthest point (parallel reduction), and recurses on BOTH
// sub-problems in parallel through a nested iterator — irregularity,
// recursion, tuples, and filters in one program.
//
// Build & run:  ./build/examples/quickhull
#include <iostream>
#include <random>

#include "core/proteus.hpp"

namespace {

const char* kProgram = R"(
  // cross(o, a, b) > 0 iff b is left of the directed line o -> a
  fun cross(o: (int,int), a: (int,int), b: (int,int)): int =
    (a.1 - o.1) * (b.2 - o.2) - (a.2 - o.2) * (b.1 - o.1)

  // farthest point from the line l -> r among pts (pts nonempty)
  fun farthest(l: (int,int), r: (int,int), pts: seq((int,int))): (int,int) =
    let ds = [p <- pts : cross(l, r, p)] in
    let best = maxval(ds) in
    [i <- [1 .. #pts] | ds[i] == best : pts[i]][1]

  // hull points strictly left of l -> r, in hull order (excludes l, r)
  fun hullside(l: (int,int), r: (int,int), pts: seq((int,int)))
      : seq((int,int)) =
    let above = [p <- pts | cross(l, r, p) > 0 : p] in
    if #above == 0 then ([] : seq((int,int)))
    else
      let m = farthest(l, r, above) in
      let halves = [side <- [(l, m), (m, r)]
                    : hullside(side.1, side.2, above)] in
      halves[1] ++ [m] ++ halves[2]

  // full hull, counter-clockwise, starting at the leftmost point
  // endpoints are the lexicographic extremes (ties on x broken by y), so
  // both are true hull vertices even when several points share an x
  fun quickhull(pts: seq((int,int))): seq((int,int)) =
    let xs = [p <- pts : p.1] in
    let lx = minval(xs) in
    let rx = maxval(xs) in
    let ly = minval([p <- pts | p.1 == lx : p.2]) in
    let ry = maxval([p <- pts | p.1 == rx : p.2]) in
    let l = (lx, ly) in
    let r = (rx, ry) in
    [l] ++ hullside(l, r, pts) ++ [r] ++ hullside(r, l, pts)
)";

proteus::interp::Value random_points(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<proteus::vl::Int> coord(-1000, 1000);
  proteus::interp::ValueList pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(proteus::interp::Value::tuple(
        {proteus::interp::Value::ints(coord(rng)),
         proteus::interp::Value::ints(coord(rng))}));
  }
  return proteus::interp::Value::seq(std::move(pts));
}

}  // namespace

int main() {
  proteus::Session session(kProgram);

  proteus::interp::Value small = proteus::parse_value(
      "[(0,0),(4,0),(4,4),(0,4),(2,2),(1,3),(3,1),(2,0),(0,2)]");
  auto hull_ref = session.run_reference("quickhull", {small});
  auto hull_vec = session.run_vm("quickhull", {small});
  std::cout << "points: " << small << '\n';
  std::cout << "hull:   " << hull_vec << '\n';
  std::cout << "engines agree: " << (hull_ref == hull_vec ? "yes" : "NO")
            << "\n\n";

  std::cout << "n       hull  vector primitives  element work\n";
  bool all_ok = hull_ref == hull_vec;
  for (int n : {64, 256, 1024}) {
    proteus::interp::Value pts = random_points(17, n);
    auto ref = session.run_reference("quickhull", {pts});
    auto vec = session.run_vm("quickhull", {pts});
    all_ok = all_ok && ref == vec;
    const auto& w = session.last_cost().vector_work;
    std::cout.width(8);
    std::cout << std::left << n;
    std::cout.width(6);
    std::cout << vec.as_seq().size();
    std::cout.width(19);
    std::cout << w.primitive_calls << w.element_work << '\n';
  }
  std::cout << "\nall runs agree across engines: " << (all_ok ? "yes" : "NO")
            << '\n';
  return all_ok ? 0 : 1;
}
