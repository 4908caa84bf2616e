// Three-way differential: every program is evaluated as
//   (a) the checked source on the reference interpreter,
//   (b) the optimized flattened (pre-T1) form on the SAME interpreter
//       via its generic depth-extension semantics,
//   (c) the fully translated V form, assembled, on the bytecode VM,
// and all three must agree. Leg (b) isolates R2 + the §4.5 rewrites from
// T1 and from the vector kernels — in particular it exercises the boxed
// semantics of seq_index_inner and the replicated-length rewrite.
#include <gtest/gtest.h>

#include "interp/interp.hpp"
#include "testing.hpp"

namespace proteus {
namespace {

using testing::val;

struct TriCase {
  const char* name;
  const char* program;
  const char* fn;
  const char* arg;
};

// Print a case by name: the default byte dump shows the string pointers,
// which move with every run and would make the listed test names unstable.
void PrintTo(const TriCase& c, std::ostream* os) { *os << c.name; }

class Triangle : public ::testing::TestWithParam<TriCase> {};

TEST_P(Triangle, AllThreeAgree) {
  const TriCase& p = GetParam();
  Session s(p.program);
  interp::ValueList args{val(p.arg)};

  interp::Value source_interp = s.run_reference(p.fn, args);

  interp::Interpreter flat_interp(s.compiled().flat);
  interp::Value flat_result = flat_interp.call_function(p.fn, args);
  EXPECT_EQ(source_interp, flat_result)
      << p.name << ": flattened form diverges under boxed semantics";

  interp::Value vm_result = s.run_vm(p.fn, args);
  EXPECT_EQ(source_interp, vm_result)
      << p.name << ": vector execution diverges";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Triangle,
    ::testing::Values(
        TriCase{"shared_row_gather",
                "fun f(m: seq(seq(int))): seq(seq(int)) = "
                "[row <- m : [i <- [1 .. #row] : row[i] * 2]]",
                "f", "[[1,2,3],[],[4,5]]"},
        TriCase{"replicated_lengths",
                "fun f(m: seq(seq(int))): seq(seq(int)) = "
                "[row <- m : [i <- [1 .. #row] : row[#row + 1 - i]]]",
                "f", "[[1,2,3],[],[4,5]]"},
        TriCase{"masked_recursion",
                "fun f(v: seq(int)): seq(int) = "
                "if #v <= 1 then v else "
                "let p = v[1] in "
                "f([x <- v | x < p : x]) ++ [x <- v | x == p : x] ++ "
                "f([x <- v | x > p : x])",
                "f", "[4,1,3,1,5,9,2]"},
        TriCase{"deep_triangular",
                "fun f(n: int): seq(seq(seq(int))) = "
                "[i <- [1 .. n] : [j <- [1 .. i] : [k <- [1 .. j] : i+j+k]]]",
                "f", "4"},
        TriCase{"tuple_frames",
                "fun f(v: seq(int)): seq((int, seq(int))) = "
                "[x <- v : (x, [j <- [1 .. x] : j * x])]",
                "f", "[2,0,3]"},
        TriCase{"guarded_division",
                "fun f(v: seq(int)): seq(int) = "
                "[x <- v : if x == 0 then 0 else 100 / x]",
                "f", "[1,0,4,-5]"}),
    [](const ::testing::TestParamInfo<TriCase>& pinfo) {
      return pinfo.param.name;
    });

}  // namespace
}  // namespace proteus
