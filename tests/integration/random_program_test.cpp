// Property tests: randomized *inputs* swept through a fixed battery of
// programs on both engines. (The programs cover every construct; the
// sweeps cover the data-shape space: empty, skewed, negative, large.)
#include <gtest/gtest.h>

#include <sstream>

#include "testing.hpp"

namespace proteus {
namespace {

/// Renders a random nested sequence literal from the deterministic
/// generator (depth 1 or 2).
std::string random_literal(std::uint64_t seed, int depth, vl::Size top,
                           vl::Size max_seg) {
  seq::Array a = seq::random_nested_ints(seed, depth - 1, top, max_seg);
  // Always ascribe: generated shapes may contain only empty subsequences.
  // (Built with += — the `"(" + s + ...` temporary-insert form trips GCC
  // 12's -Werror=restrict false positive, PR105651, at -O2+.)
  std::string out = "(";
  out += seq::to_text(a);
  out += " : ";
  out += depth == 1 ? "seq(int)" : "seq(seq(int))";
  out += ')';
  return out;
}

struct Sweep {
  std::uint64_t seed;
  vl::Size top;
  vl::Size max_seg;
};

xform::PipelineOptions unfused_options() {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return options;
}

/// Both engines agree, and the VM of an -O0 compile of the same
/// source (no VCODE fusion) matches the default (-O1) VM.
void both_and_unfused(Session& s, Session& unfused, const char* fn,
                      const interp::ValueList& args) {
  interp::Value reference = testing::both(s, fn, args);
  EXPECT_EQ(unfused.run_vm(fn, args), reference) << fn << " (vm -O0)";
}

class RandomInputs : public ::testing::TestWithParam<Sweep> {};

TEST_P(RandomInputs, FlatPrograms) {
  const Sweep& p = GetParam();
  const char* source = R"(
    fun evens(v: seq(int)): seq(int) = [x <- v | x mod 2 == 0 : x]
    fun clamp(v: seq(int)): seq(int) =
      [x <- v : if x < 0 then 0 else x]
    fun revidx(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[#v + 1 - i]]
    fun squares(v: seq(int)): seq(int) = [x <- v : x * x]
    fun runningpairs(v: seq(int)): seq((int, int)) = [x <- v : (x, x + 1)]
  )";
  Session s(source);
  Session unfused(source, {}, unfused_options());
  interp::Value input = testing::val(random_literal(p.seed, 1, p.top, 0));
  for (const char* fn :
       {"evens", "clamp", "revidx", "squares", "runningpairs"}) {
    both_and_unfused(s, unfused, fn, {input});
  }
}

TEST_P(RandomInputs, NestedPrograms) {
  const Sweep& p = GetParam();
  const char* source = R"(
    fun rowsums(m: seq(seq(int))): seq(int) = [row <- m : sum(row)]
    fun lens(m: seq(seq(int))): seq(int) = [row <- m : #row]
    fun sq_each(m: seq(seq(int))): seq(seq(int)) =
      [row <- m : [x <- row : x * x]]
    fun keep_pos(m: seq(seq(int))): seq(seq(int)) =
      [row <- m : [x <- row | x > 0 : x]]
    fun headszero(m: seq(seq(int))): seq(int) =
      [row <- m : if #row == 0 then 0 else row[1]]
    fun flatit(m: seq(seq(int))): seq(int) = flatten(m)
    fun dupcat(m: seq(seq(int))): seq(seq(int)) = [row <- m : row ++ row]
  )";
  Session s(source);
  Session unfused(source, {}, unfused_options());
  interp::Value input =
      testing::val(random_literal(p.seed + 100, 2, p.top, p.max_seg));
  for (const char* fn : {"rowsums", "lens", "sq_each", "keep_pos",
                         "headszero", "flatit", "dupcat"}) {
    both_and_unfused(s, unfused, fn, {input});
  }
}

TEST_P(RandomInputs, RecursiveProgram) {
  const Sweep& p = GetParam();
  const char* source = R"(
    fun qs(v: seq(int)): seq(int) =
      if #v <= 1 then v
      else
        let pivot = v[1] in
        let rest = [i <- [1 .. #v - 1] : v[i + 1]] in
        qs([x <- rest | x < pivot : x]) ++ [pivot] ++
        qs([x <- rest | x >= pivot : x])
    fun sortrows(m: seq(seq(int))): seq(seq(int)) = [row <- m : qs(row)]
  )";
  Session s(source);
  Session unfused(source, {}, unfused_options());
  interp::Value input =
      testing::val(random_literal(p.seed + 200, 2, p.top, p.max_seg));
  both_and_unfused(s, unfused, "sortrows", {input});
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RandomInputs,
    ::testing::Values(Sweep{1, 0, 3},     // empty outer
                      Sweep{2, 1, 0},     // single empty row
                      Sweep{3, 1, 5},     // single row
                      Sweep{4, 8, 1},     // many tiny rows
                      Sweep{5, 8, 8},     // balanced
                      Sweep{6, 30, 4},    //
                      Sweep{7, 50, 2},    //
                      Sweep{8, 5, 40},    // few long rows
                      Sweep{9, 100, 6},   //
                      Sweep{10, 17, 17},  //
                      Sweep{11, 64, 0},   // all rows empty
                      Sweep{12, 200, 3}));

}  // namespace
}  // namespace proteus
