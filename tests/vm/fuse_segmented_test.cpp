// Segmented fusion (vm/fuse.hpp pass 3, kernels/fused.hpp): an iterator
// whose body reduces over a sequence it does not iterate,
//   [i <- D : red([y <- v : body(y, i)])],
// becomes one kFusedMap that builds neither dist(v, #D) (the tile) nor the
// dist^1 spreading i over it (the segment splat).
//
// FusedReduceProperty checks the kernel against the unfused kernels it
// replaces, composed in the order the unfused VCODE runs them, in the
// style of GatherNestedProperty (tests/seq/ops_test.cpp): for every
// reduce root and Int, Real and Bool leaves, the same value or error
// (type and text), the same primitives, work and segments with no more
// buffers, and, under every step budget up to the total work, a trap
// exactly when the composition traps, with the same counts.
// SegmentedFusionProperty checks whole programs: -O1 against -O0 on
// values and errors. (Their counts differ by the extension prologue
// gathers -O1 elides, so the counts are pinned at the kernel.)
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "kernels/fused.hpp"
#include "kernels/prims.hpp"
#include "seq/extract_insert.hpp"
#include "testing.hpp"
#include "vm/disasm.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using testing::val;

// Each reduction sits in a function of its own, called from the
// iterator: the R2 rules hand the callee's extension dist(v, #D), and
// -O1 inlines the extension so the dist meets its readers.
const char* kPrograms = R"(
  fun has(x: int, v: seq(int)): bool = any([y <- v : y == x])
  fun mem(v: seq(int), n: int): seq(bool) = [i <- [1 .. n] : has(i, v)]
  fun under(x: int, v: seq(int)): bool = all([y <- v : y < x])
  fun below(v: seq(int), n: int): seq(bool) = [i <- [1 .. n] : under(i, v)]
  fun dot(x: int, v: seq(int)): int = sum([y <- v : y * x + 1])
  fun isum(v: seq(int), n: int): seq(int) = [i <- [1 .. n] : dot(i, v)]
  fun top(x: int, v: seq(int)): int = maxval([y <- v : y - x])
  fun imax(v: seq(int), n: int): seq(int) = [i <- [1 .. n] : top(i, v)]
  fun low(x: int, v: seq(int)): int = minval([y <- v : y * 2])
  fun imin(v: seq(int), n: int): seq(int) = [i <- [1 .. n] : low(i, v)]
  fun rdot(x: real, v: seq(real)): real = sum([y <- v : y * x - 1.5])
  fun rsum(v: seq(real), xs: seq(real)): seq(real) = [x <- xs : rdot(x, v)]
  fun rtop(x: real, v: seq(real)): real = maxval([y <- v : y + x])
  fun rmax(v: seq(real), xs: seq(real)): seq(real) = [x <- xs : rtop(x, v)]
  fun rlow(x: real, v: seq(real)): real = minval([y <- v : sqrt(y * y) - x])
  fun rmin(v: seq(real), xs: seq(real)): seq(real) = [x <- xs : rlow(x, v)]
  fun some(b: bool, v: seq(bool)): bool = any([y <- v : y and not b])
  fun bany(v: seq(bool), bs: seq(bool)): seq(bool) = [b <- bs : some(b, v)]
  fun same(b: bool, v: seq(bool)): bool = all([y <- v : y == b])
  fun ball(v: seq(bool), bs: seq(bool)): seq(bool) = [b <- bs : same(b, v)]
  fun twice(x: int, v: seq(seq(int))): int = sum([y <- v : x * 2])
  fun rows(v: seq(seq(int)), n: int): seq(int) = [i <- [1 .. n] : twice(i, v)]
)";

xform::PipelineOptions unfused_options() {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return options;
}

/// The segmented fused expressions of function `name`.
std::size_t segmented_chains(const Session& s, const std::string& name) {
  const vm::Function* f = s.compiled().module->find(name);
  if (f == nullptr) return 0;
  std::size_t n = 0;
  for (const vm::Instr& in : f->code) {
    if (in.op == vm::Op::kFusedMap &&
        f->fused[static_cast<std::size_t>(in.aux)].reduce) {
      ++n;
    }
  }
  return n;
}

/// One run: the value or the error, and the counters it left.
struct Outcome {
  std::optional<interp::Value> value;
  std::string error;
  vl::VectorStats stats;
};

Outcome run(Session& s, const std::string& fn,
            const interp::ValueList& args) {
  Outcome out;
  try {
    out.value = s.run_vm(fn, args);
  } catch (const Error& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  out.stats = vl::stats();
  return out;
}

// --- the kernel against the unfused kernels ----------------------------------

using kernels::FusedExpr;
using kernels::MicroOp;
using kernels::VValue;
using lang::Prim;
using seq::Array;

/// What one evaluation did: its value or its error, and the counters.
struct KernelOutcome {
  std::optional<VValue> value;
  std::string error;
  vl::VectorStats stats;
};

KernelOutcome run_kernel(const std::function<VValue()>& op) {
  vl::reset_stats();
  KernelOutcome out;
  try {
    out.value = op();
  } catch (const Error& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  out.stats = vl::stats();
  return out;
}

/// The counters at the trap of `op` under a step budget, or nullopt.
std::optional<vl::VectorStats> trap_at(const std::function<VValue()>& op,
                                       std::uint64_t steps) {
  vl::reset_stats();
  rt::ExecBudget budget;
  budget.max_steps = steps;
  rt::GovernorScope scope(budget);
  try {
    (void)op();
  } catch (const rt::RuntimeTrap&) {
    return vl::stats();
  } catch (const Error&) {
  }
  return std::nullopt;
}

void expect_same_counts(const vl::VectorStats& got,
                        const vl::VectorStats& want, const std::string& at) {
  EXPECT_EQ(got.primitive_calls, want.primitive_calls) << at;
  EXPECT_EQ(got.element_work, want.element_work) << at;
  EXPECT_EQ(got.segment_work, want.segment_work) << at;
}

/// The fused kernel returns what the unfused kernels return, or raises
/// the same error; charges the same primitives, work and segments with no
/// more buffers; and, under every step budget up to the total work, traps
/// exactly when (and with the counts at which) the unfused kernels do.
void expect_kernel_matches(const std::function<VValue()>& fused,
                           const std::function<VValue()>& reference,
                           const std::string& at) {
  const KernelOutcome want = run_kernel(reference);
  const KernelOutcome got = run_kernel(fused);
  ASSERT_EQ(got.error, want.error) << at;
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << at;
  if (want.value) {
    EXPECT_EQ(got.value->as_seq(), want.value->as_seq()) << at;
    EXPECT_EQ(seq::to_text(got.value->as_seq()),
              seq::to_text(want.value->as_seq()))
        << at;
  }
  expect_same_counts(got.stats, want.stats, at);
  EXPECT_LE(got.stats.buffer_allocs, want.stats.buffer_allocs) << at;
  for (std::uint64_t steps = 0; steps <= want.stats.element_work; ++steps) {
    const auto want_trap = trap_at(reference, steps);
    const auto got_trap = trap_at(fused, steps);
    ASSERT_EQ(got_trap.has_value(), want_trap.has_value())
        << at << " under step budget " << steps;
    if (want_trap) {
      expect_same_counts(*got_trap, *want_trap,
                         at + " trapped at " + std::to_string(steps));
    }
  }
}

/// One fused chain: reduce(insert(op(a, b), frame)) over the tile
/// dist(v, n), where each of a and b is the tile, the splat
/// dist^1(s, length^1(tile)) or a broadcast scalar. With `then`, the
/// body is then(extract(insert(op(a, b), tile)), c), as T1 writes two
/// depth-2 operations.
enum class Leaf { kTile, kSplat, kScalar };

struct Shape {
  Prim op;
  Leaf a, b;
  Prim reduce;
  std::optional<Prim> then = std::nullopt;
};

/// The fused instruction of `sh` over slots (v, n, s, c).
FusedExpr fused_expr(const Shape& sh) {
  FusedExpr fe;
  fe.reduce = sh.reduce;
  fe.input_flags = {kernels::kFusedTile, kernels::kFusedCount,
                    kernels::kFusedSegSplat, kernels::kFusedBroadcast};
  for (const Leaf l : {sh.a, sh.b}) {
    MicroOp leaf;
    leaf.input = l == Leaf::kTile ? 0 : l == Leaf::kSplat ? 2 : 3;
    if (l != Leaf::kScalar) fe.extracts += 1;
    fe.nodes.push_back(leaf);
  }
  MicroOp op;
  op.kind = MicroOp::Kind::kPrim;
  op.prim = sh.op;
  op.a = 0;
  op.b = 1;
  fe.nodes.push_back(op);
  if (sh.then) {
    fe.reinserts.push_back(2);
    fe.extracts += 1;
    MicroOp c;
    c.input = 3;
    fe.nodes.push_back(c);
    MicroOp then;
    then.kind = MicroOp::Kind::kPrim;
    then.prim = *sh.then;
    then.a = 2;
    then.b = 3;
    fe.nodes.push_back(then);
  }
  return fe;
}

/// The instructions `sh` replaces, run one by one in their unfused order.
VValue unfused(const Shape& sh, const VValue& v, const VValue& n,
               const VValue& s, const VValue& c) {
  const VValue tile = kernels::apply_prim0(Prim::kDist, {v, n});
  const VValue lens = kernels::apply_prim1(Prim::kLength, {tile}, {1});
  const VValue splat = kernels::apply_prim1(Prim::kDist, {s, lens}, {1, 1});
  const auto leaf = [&](Leaf l) {
    if (l == Leaf::kScalar) return c;
    return VValue::seq(
        seq::extract((l == Leaf::kTile ? tile : splat).as_seq(), 1));
  };
  const VValue a = leaf(sh.a);
  const VValue b = leaf(sh.b);
  VValue body = kernels::apply_prim1(
      sh.op, {a, b},
      {std::uint8_t{sh.a != Leaf::kScalar}, std::uint8_t{sh.b != Leaf::kScalar}});
  if (sh.then) {
    const Array inner = seq::insert(body.as_seq(), tile.as_seq(), 1);
    body = kernels::apply_prim1(
        *sh.then, {VValue::seq(seq::extract(inner, 1)), c}, {1, 0});
  }
  const VValue frame =
      VValue::seq(seq::insert(body.as_seq(), tile.as_seq(), 1));
  return kernels::apply_prim1(sh.reduce, {frame}, {1});
}

class FusedReduceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusedReduceProperty, MatchesUnfusedKernels) {
  std::mt19937_64 rng(GetParam());
  const auto pick = [&](int lo, int hi) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) +
           lo;
  };
  enum class K { kInt, kReal, kBool };
  const auto leaf_seq = [&](K k, std::size_t len) {
    switch (k) {
      case K::kInt: {
        vl::IntVec x(static_cast<vl::Size>(len));
        for (auto& e : x) e = pick(-3, 6);
        return VValue::seq(seq::Array::ints(std::move(x)));
      }
      case K::kReal: {
        vl::RealVec x(static_cast<vl::Size>(len));
        for (auto& e : x) e = pick(-60, 60) / 8.0;
        return VValue::seq(seq::Array::reals(std::move(x)));
      }
      case K::kBool: {
        vl::BoolVec x(static_cast<vl::Size>(len));
        for (auto& e : x) e = static_cast<vl::Bool>(pick(0, 1));
        return VValue::seq(seq::Array::bools(std::move(x)));
      }
    }
    return VValue();
  };
  const auto scalar = [&](K k) {
    switch (k) {
      case K::kInt: return VValue::ints(pick(-3, 6));
      case K::kReal: return VValue::reals(pick(-60, 60) / 8.0);
      case K::kBool: return VValue::bools(pick(0, 1) == 1);
    }
    return VValue();
  };
  // `then` is a second operation for the ops whose result has the
  // family's kind.
  struct Family {
    K kind;
    std::vector<Prim> ops;
    std::vector<Prim> reduces;
    Prim then;
  };
  const std::vector<Family> families = {
      {K::kInt, {Prim::kMul, Prim::kSub, Prim::kEq, Prim::kLt},
       {Prim::kSum, Prim::kMaxVal, Prim::kMinVal, Prim::kAnyV,
        Prim::kAllV},
       Prim::kAdd},
      {K::kReal, {Prim::kAdd, Prim::kMul, Prim::kGe},
       {Prim::kSum, Prim::kMaxVal, Prim::kMinVal, Prim::kAnyV},
       Prim::kSub},
      {K::kBool, {Prim::kAnd, Prim::kEq, Prim::kNe},
       {Prim::kAnyV, Prim::kAllV, Prim::kSum},
       Prim::kOr},
  };
  const auto keeps_kind = [](K k, Prim op) {
    const bool compares = op == Prim::kEq || op == Prim::kNe ||
                          op == Prim::kLt || op == Prim::kGe;
    return k == K::kBool || !compares;
  };
  const std::vector<std::pair<Leaf, Leaf>> leaves = {
      {Leaf::kTile, Leaf::kSplat},
      {Leaf::kSplat, Leaf::kTile},
      {Leaf::kTile, Leaf::kScalar},
      {Leaf::kScalar, Leaf::kSplat}};
  for (const Family& fam : families) {
    // #v = 0 makes every segment empty; n = 0 and n < 0 make none.
    for (const std::size_t m : {std::size_t{0}, std::size_t(pick(1, 5))}) {
      for (const int n : {0, pick(1, 4), -2}) {
        const VValue v = leaf_seq(fam.kind, m);
        const VValue nv = VValue::ints(n);
        const VValue s = leaf_seq(fam.kind, n < 0 ? 0 : std::size_t(n));
        const VValue c = scalar(fam.kind);
        for (const Prim op : fam.ops) {
          for (const Prim red : fam.reduces) {
            for (const auto& [a, b] : leaves) {
              std::vector<Shape> shapes = {{op, a, b, red}};
              if (keeps_kind(fam.kind, op)) {
                shapes.push_back({op, a, b, red, fam.then});
              }
              for (const Shape& sh : shapes) {
                const FusedExpr fe = fused_expr(sh);
                const std::string at =
                    std::string(lang::prim_name(op)) +
                    (sh.then ? std::string(" then ") +
                                   lang::prim_name(*sh.then)
                             : std::string()) +
                    "/" + lang::prim_name(red) + " m=" + std::to_string(m) +
                    " n=" + std::to_string(n);
                expect_kernel_matches(
                    [&] { return kernels::eval_fused(fe, {v, nv, s, c}); },
                    [&] { return unfused(sh, v, nv, s, c); }, at);
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(FusedReduceProperty, BuildsWhatTheFastPathCannotRead) {
  // A tile of sequences, a splat of tuples, a splat of the wrong length
  // and a non-integer count go through the real kernels, with the real
  // errors and counts.
  std::mt19937_64 rng(GetParam());
  const auto pick = [&](int lo, int hi) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) +
           lo;
  };
  const auto ints = [&](std::size_t len) {
    vl::IntVec x(static_cast<vl::Size>(len));
    for (auto& e : x) e = pick(-3, 6);
    return seq::Array::ints(std::move(x));
  };
  const std::size_t m = static_cast<std::size_t>(pick(0, 4));
  const int n = pick(0, 3);
  const vl::IntVec row_lens(static_cast<vl::Size>(m), 2);
  const VValue rows = VValue::seq(seq::Array::nested(row_lens, ints(2 * m)));
  const VValue nv = VValue::ints(n);
  const VValue s = VValue::seq(ints(static_cast<std::size_t>(n)));
  const VValue c = VValue::ints(pick(1, 3));
  const VValue tuples = VValue::seq(seq::Array::tuple(
      {ints(static_cast<std::size_t>(n)), ints(static_cast<std::size_t>(n))}));
  const VValue short_s = VValue::seq(ints(static_cast<std::size_t>(n) + 1));
  const Shape splat_only{Prim::kMul, Leaf::kSplat, Leaf::kScalar, Prim::kSum};
  const Shape both{Prim::kAdd, Leaf::kTile, Leaf::kSplat, Prim::kMaxVal};
  const struct {
    Shape sh;
    VValue v, n, s;
  } cases[] = {
      {splat_only, rows, nv, s},          // tile of sequences
      {both, rows, nv, s},                // ... read as elements: no kernel
      {both, VValue::seq(ints(m)), nv, tuples},   // splat of tuples
      {both, VValue::seq(ints(m)), nv, short_s},  // splat of another length
      {both, VValue::seq(ints(m)), VValue::reals(1.0), s},  // real count
      {both, VValue::ints(3), nv, s},     // dist of a scalar
  };
  for (const auto& k : cases) {
    const FusedExpr fe = fused_expr(k.sh);
    expect_kernel_matches(
        [&] { return kernels::eval_fused(fe, {k.v, k.n, k.s, c}); },
        [&] { return unfused(k.sh, k.v, k.n, k.s, c); },
        std::string("m=") + std::to_string(m) + " n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedReduceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- whole programs, -O1 against -O0 -----------------------------------------

class SegmentedFusionProperty
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    fused_ = new Session(kPrograms);
    unfused_ = new Session(kPrograms, {}, unfused_options());
  }
  static void TearDownTestSuite() {
    delete fused_;
    delete unfused_;
  }

  /// -O1 against -O0 on `fn(args)`.
  static void expect_matches_unfused(const std::string& fn,
                                     const interp::ValueList& args) {
    std::string at = fn + "(";
    for (const interp::Value& a : args) at += interp::to_text(a) + ", ";
    at += ")";
    const Outcome want = run(*unfused_, fn, args);
    const Outcome got = run(*fused_, fn, args);
    ASSERT_EQ(got.error, want.error) << at;
    ASSERT_EQ(got.value.has_value(), want.value.has_value()) << at;
    if (want.value) {
      EXPECT_EQ(interp::to_text(*got.value), interp::to_text(*want.value))
          << at;
    }
    EXPECT_LE(got.stats.buffer_allocs, want.stats.buffer_allocs) << at;
  }

  static Session* fused_;
  static Session* unfused_;
};

Session* SegmentedFusionProperty::fused_ = nullptr;
Session* SegmentedFusionProperty::unfused_ = nullptr;

/// A literal sequence of `n` elements drawn by `draw`, or the typed empty
/// literal.
template <typename Draw>
std::string seq_literal(std::size_t n, const char* type, Draw&& draw) {
  if (n == 0) return std::string("([] : seq(") + type + "))";
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ",";
    out += draw();
  }
  return out + "]";
}

TEST(SegmentedFusion, EveryShapeFuses) {
  Session s(kPrograms);
  for (const char* fn : {"mem", "below", "isum", "imax", "imin", "rsum",
                         "rmax", "rmin", "bany", "ball", "rows"}) {
    EXPECT_EQ(segmented_chains(s, fn), 1u) << fn << "\n"
                                           << vm::to_text(
                                                  *s.compiled().module);
  }
}

TEST_P(SegmentedFusionProperty, MatchesUnfused) {
  std::mt19937_64 rng(GetParam());
  const auto pick = [&](int lo, int hi) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)) +
           lo;
  };
  const auto ints = [&](std::size_t n) {
    return seq_literal(n, "int", [&] { return std::to_string(pick(-3, 6)); });
  };
  const auto reals = [&](std::size_t n) {
    return seq_literal(n, "real", [&] {
      return std::to_string(pick(-6, 6)) + "." + std::to_string(pick(0, 9));
    });
  };
  const auto bools = [&](std::size_t n) {
    return seq_literal(n, "bool",
                       [&] { return pick(0, 1) == 1 ? "true" : "false"; });
  };
  // #v = 0 (every segment empty) and n = 0 (no segment) come up in every
  // round; a negative n is an empty domain too.
  for (const std::size_t m : {std::size_t{0}, std::size_t(pick(1, 5))}) {
    for (const int n : {0, pick(1, 4), -1}) {
      const interp::Value v = val(ints(m));
      const interp::Value nv = val(std::to_string(n));
      for (const char* fn : {"mem", "below", "isum", "imax", "imin"}) {
        expect_matches_unfused(fn, {v, nv});
      }
      const std::size_t k = n < 0 ? 0 : static_cast<std::size_t>(n);
      const interp::Value rv = val(reals(m));
      const interp::Value xs = val(reals(k));
      for (const char* fn : {"rsum", "rmax", "rmin"}) {
        expect_matches_unfused(fn, {rv, xs});
      }
      const interp::Value bv = val(bools(m));
      const interp::Value bs = val(bools(k));
      for (const char* fn : {"bany", "ball"}) {
        expect_matches_unfused(fn, {bv, bs});
      }
      // A tile of sequences: the kernel builds it (the fast path reads
      // scalar leaves only), with the same counts.
      std::string rows = "[";
      for (std::size_t r = 0; r < m; ++r) {
        if (r > 0) rows += ",";
        rows += ints(static_cast<std::size_t>(pick(1, 3)));
      }
      rows += "]";
      expect_matches_unfused(
          "rows", {val(m == 0 ? "([] : seq(seq(int)))" : rows), nv});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentedFusionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace proteus
