// Convex hull by nested divide-and-conquer (tuples + filters + recursion
// + argmax search in one program), verified against a direct C++ hull.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "testing.hpp"

namespace proteus {
namespace {

const char* kProgram = R"(
  fun cross(o: (int,int), a: (int,int), b: (int,int)): int =
    (a.1 - o.1) * (b.2 - o.2) - (a.2 - o.2) * (b.1 - o.1)

  fun farthest(l: (int,int), r: (int,int), pts: seq((int,int))): (int,int) =
    let ds = [p <- pts : cross(l, r, p)] in
    let best = maxval(ds) in
    [i <- [1 .. #pts] | ds[i] == best : pts[i]][1]

  fun hullside(l: (int,int), r: (int,int), pts: seq((int,int)))
      : seq((int,int)) =
    let above = [p <- pts | cross(l, r, p) > 0 : p] in
    if #above == 0 then ([] : seq((int,int)))
    else
      let m = farthest(l, r, above) in
      let halves = [side <- [(l, m), (m, r)]
                    : hullside(side.1, side.2, above)] in
      halves[1] ++ [m] ++ halves[2]

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

using Point = std::pair<vl::Int, vl::Int>;

interp::Value to_value(const std::vector<Point>& pts) {
  interp::ValueList out;
  for (const Point& p : pts) {
    out.push_back(interp::Value::tuple(
        {interp::Value::ints(p.first), interp::Value::ints(p.second)}));
  }
  return interp::Value::seq(std::move(out));
}

std::vector<Point> from_value(const interp::Value& v) {
  std::vector<Point> out;
  for (const interp::Value& p : v.as_seq()) {
    out.emplace_back(p.as_tuple()[0].as_int(), p.as_tuple()[1].as_int());
  }
  return out;
}

/// Reference: Andrew's monotone chain (strict hull, no collinear points).
std::vector<Point> reference_hull(std::vector<Point> pts) {
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  if (pts.size() < 3) return pts;
  auto cross = [](const Point& o, const Point& a, const Point& b) {
    return (a.first - o.first) * (b.second - o.second) -
           (a.second - o.second) * (b.first - o.first);
  };
  std::vector<Point> hull;
  for (int phase = 0; phase < 2; ++phase) {
    std::size_t start = hull.size();
    for (const Point& p : pts) {
      while (hull.size() >= start + 2 &&
             cross(hull[hull.size() - 2], hull.back(), p) <= 0) {
        hull.pop_back();
      }
      hull.push_back(p);
    }
    hull.pop_back();
    std::reverse(pts.begin(), pts.end());
  }
  return hull;
}

class Quickhull : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Quickhull, MatchesReferenceHullAndEnginesAgree) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<vl::Int> coord(-40, 40);
  std::vector<Point> pts;
  const int n = 3 + static_cast<int>(rng() % 120);
  for (int i = 0; i < n; ++i) pts.emplace_back(coord(rng), coord(rng));

  Session session(kProgram);
  interp::Value input = to_value(pts);
  interp::Value ref_engine = session.run_reference("quickhull", {input});
  interp::Value vm_engine = session.run_vm("quickhull", {input});
  EXPECT_EQ(ref_engine, vm_engine);

  // Same point set as the reference hull (order may differ in rotation).
  std::vector<Point> got = from_value(vm_engine);
  std::vector<Point> expect = reference_hull(pts);
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Quickhull,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Quickhull, DegenerateInputs) {
  Session session(kProgram);
  // all points collinear: hull is the two extremes
  interp::Value line = testing::val("[(0,0),(1,1),(2,2),(3,3)]");
  interp::Value got = session.run_vm("quickhull", {line});
  EXPECT_EQ(got, session.run_reference("quickhull", {line}));
  std::vector<Point> hull = from_value(got);
  std::sort(hull.begin(), hull.end());
  hull.erase(std::unique(hull.begin(), hull.end()), hull.end());
  EXPECT_EQ(hull, (std::vector<Point>{{0, 0}, {3, 3}}));
}

}  // namespace
}  // namespace proteus
