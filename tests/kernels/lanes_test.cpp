// The lane table against the reference interpreter. Every (prim, operand
// kinds) entry runs on edge operands through the three VM paths that
// share its one definition: depth 0 (one lane), the depth-1 extension
// over frames, and a two-node fused chain (the entry, then a unary node
// on its result), with frame and broadcast operands and on the threaded
// backend. As the three paths share their code, -O0 against -O1 no longer
// checks one against another; the interpreter's independent definitions
// do.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/proteus.hpp"
#include "kernels/fused.hpp"
#include "kernels/lanes.hpp"
#include "kernels/prims.hpp"
#include "testing.hpp"

namespace proteus::kernels {
namespace {

using lang::Prim;

/// One lane value of any kind.
struct Lane {
  K kind = K::kOther;
  Int i = 0;
  Real r = 0;
  bool b = false;
};

Lane int_lane(Int v) { return {K::kInt, v, 0, false}; }
Lane real_lane(Real v) { return {K::kReal, 0, v, false}; }
Lane bool_lane(bool v) { return {K::kBool, 0, 0, v}; }

/// Equal kinds and values; reals bit for bit (so -0.0 differs from 0.0),
/// except that any NaN equals any NaN (a NaN's payload is not specified).
bool same(const Lane& a, const Lane& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case K::kInt: return a.i == b.i;
    case K::kBool: return a.b == b.b;
    case K::kReal:
      if (std::isnan(a.r) || std::isnan(b.r)) {
        return std::isnan(a.r) && std::isnan(b.r);
      }
      return std::memcmp(&a.r, &b.r, sizeof(Real)) == 0;
    case K::kOther: break;
  }
  return false;
}

std::string text(const Lane& l) {
  switch (l.kind) {
    case K::kInt: return std::to_string(l.i);
    case K::kReal: return std::to_string(l.r);
    case K::kBool: return l.b ? "true" : "false";
    case K::kOther: break;
  }
  return "?";
}

const char* type_name(K k) {
  return k == K::kInt ? "int" : k == K::kReal ? "real" : "bool";
}

VValue scalar(const Lane& l) {
  switch (l.kind) {
    case K::kInt: return VValue::ints(l.i);
    case K::kReal: return VValue::reals(l.r);
    default: return VValue::bools(l.b);
  }
}

interp::Value boxed(const Lane& l) {
  switch (l.kind) {
    case K::kInt: return interp::Value::ints(l.i);
    case K::kReal: return interp::Value::reals(l.r);
    default: return interp::Value::bools(l.b);
  }
}

Lane unboxed(const interp::Value& v, K k) {
  switch (k) {
    case K::kInt: return int_lane(v.as_int());
    case K::kReal: return real_lane(v.as_real());
    default: return bool_lane(v.as_bool());
  }
}

Lane lane_of(const VValue& v) {
  if (v.is_int()) return int_lane(v.as_int());
  if (v.is_real()) return real_lane(v.as_real());
  return bool_lane(v.as_bool());
}

/// A frame of lanes of one kind.
VValue frame(K k, const std::vector<Lane>& lanes) {
  const Size n = static_cast<Size>(lanes.size());
  switch (k) {
    case K::kInt: {
      vl::IntVec v(n);
      for (Size j = 0; j < n; ++j) v[j] = lanes[static_cast<std::size_t>(j)].i;
      return VValue::seq(Array::ints(std::move(v)));
    }
    case K::kReal: {
      vl::RealVec v(n);
      for (Size j = 0; j < n; ++j) v[j] = lanes[static_cast<std::size_t>(j)].r;
      return VValue::seq(Array::reals(std::move(v)));
    }
    default: {
      vl::BoolVec v(n);
      for (Size j = 0; j < n; ++j) {
        v[j] = lanes[static_cast<std::size_t>(j)].b ? 1 : 0;
      }
      return VValue::seq(Array::bools(std::move(v)));
    }
  }
}

std::vector<Lane> lanes_of(const Array& a) {
  std::vector<Lane> out;
  for (Size j = 0; j < a.length(); ++j) {
    switch (a.kind()) {
      case Array::Kind::kInt: out.push_back(int_lane(a.int_values()[j])); break;
      case Array::Kind::kReal: out.push_back(real_lane(a.real_values()[j])); break;
      default: out.push_back(bool_lane(a.bool_values()[j] != 0)); break;
    }
  }
  return out;
}

constexpr Int kIntMin = std::numeric_limits<Int>::min();
constexpr Int kIntMax = std::numeric_limits<Int>::max();

/// Edge operands of kind `k` for `op`. Every Int kernel gets the extremes
/// (INT64_MIN with -1 included): +, -, * and unary - wrap in two's
/// complement on every engine. Real to int takes only values in range.
std::vector<Lane> edge_operands(Prim op, K k) {
  std::vector<Lane> out;
  switch (k) {
    case K::kInt: {
      for (const Int v : std::initializer_list<Int>{0, 1, -1, 3, -3, 7, -7,
                                                    kIntMin, kIntMax}) {
        out.push_back(int_lane(v));
      }
      break;
    }
    case K::kReal: {
      for (const Real v : {0.0, -0.0, 1.5, -2.25, -0.5, 4.0, -4.0}) {
        out.push_back(real_lane(v));
      }
      if (op != Prim::kToInt) {
        out.push_back(real_lane(std::numeric_limits<Real>::quiet_NaN()));
        out.push_back(real_lane(std::numeric_limits<Real>::infinity()));
        out.push_back(real_lane(-std::numeric_limits<Real>::infinity()));
      }
      break;
    }
    default:
      out.push_back(bool_lane(false));
      out.push_back(bool_lane(true));
      break;
  }
  return out;
}

/// One entry of the table, with its P spelling and the unary node the
/// fused chain applies to its result.
struct Entry {
  Prim op;
  bool binary;
  K ka, kb;
  KernSel sel;
  Prim then;
  K then_out;

  [[nodiscard]] std::string name() const {
    std::string s = lang::prim_name(op);
    s += "(";
    s += type_name(ka);
    if (binary) {
      s += ", ";
      s += type_name(kb);
    }
    return s + ")";
  }

  /// fun f(x, y) = the entry; fun g(x, y) = then(the entry).
  [[nodiscard]] std::string source() const {
    std::string e;
    const std::string nm = lang::prim_name(op);
    if (!binary) {
      e = op == Prim::kNeg ? "(-x)" : op == Prim::kNot ? "(not x)" : nm + "(x)";
    } else if (op == Prim::kMin || op == Prim::kMax) {
      e = nm + "(x, y)";
    } else {
      e = "(x " + nm + " y)";
    }
    const std::string g = then == Prim::kToReal ? "real(" + e + ")"
                          : then == Prim::kNeg  ? "(-" + e + ")"
                                                : "(not " + e + ")";
    std::string params = std::string("x: ") + type_name(ka);
    if (binary) params += std::string(", y: ") + type_name(kb);
    return "fun f(" + params + "): " + type_name(sel.out) + " = " + e +
           "\nfun g(" + params + "): " + type_name(then_out) + " = " + g +
           "\n";
  }
};

std::vector<Entry> table_entries() {
  std::vector<Entry> out;
  const K kinds[] = {K::kInt, K::kReal, K::kBool};
  for (int p = 0; fusible_prim(static_cast<Prim>(p)); ++p) {
    const Prim op = static_cast<Prim>(p);
    const bool binary = lang::prim_arity(op) == 2;
    for (const K ka : kinds) {
      for (const K kb : kinds) {
        if (!binary && kb != K::kInt) continue;  // one pass per unary kind
        Entry e{op, binary, ka, binary ? kb : K::kOther, {}, Prim::kNot,
                K::kBool};
        const bool ok = binary ? select_binary(op, ka, kb, e.sel)
                               : select_unary(op, ka, e.sel);
        if (!ok) continue;
        if (e.sel.out == K::kInt) {
          e.then = Prim::kToReal;
          e.then_out = K::kReal;
        } else if (e.sel.out == K::kReal) {
          e.then = Prim::kNeg;
          e.then_out = K::kReal;
        }
        out.push_back(e);
      }
    }
  }
  return out;
}

/// The result of one run over a list of lanes: values or an error, and
/// the vl counters it charged.
struct Outcome {
  std::vector<Lane> values;
  std::string error;
  vl::VectorStats stats;
};

template <typename F>
Outcome measure(F&& run) {
  vl::reset_stats();
  Outcome out;
  try {
    out.values = run();
  } catch (const Error& e) {
    out.error = e.what();
  }
  out.stats = vl::stats();
  return out;
}

/// The interpreter's f and g on one pair of operands.
struct Oracle {
  std::optional<Lane> f, g;
  std::string error;  // f's (g applies a total unary prim to f)
};

/// The interpreter's outcome over a frame of pairs: every lane's value,
/// or the error of the first failing lane, as its depth-1 map raises it.
Outcome expected(const std::vector<Oracle>& at, bool chain) {
  Outcome out;
  for (const Oracle& o : at) {
    if (!o.error.empty()) {
      out.values.clear();
      out.error = o.error;
      return out;
    }
    out.values.push_back(chain ? *o.g : *o.f);
  }
  return out;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& at) {
  EXPECT_EQ(got.error, want.error) << at;
  ASSERT_EQ(got.values.size(), want.values.size()) << at;
  for (std::size_t j = 0; j < got.values.size(); ++j) {
    EXPECT_TRUE(same(got.values[j], want.values[j]))
        << at << " lane " << j << ": " << text(got.values[j]) << " vs "
        << text(want.values[j]);
  }
}

void expect_same_counts(const vl::VectorStats& got,
                        const vl::VectorStats& want, const std::string& at) {
  EXPECT_EQ(got.primitive_calls, want.primitive_calls) << at;
  EXPECT_EQ(got.element_work, want.element_work) << at;
  EXPECT_EQ(got.segment_work, want.segment_work) << at;
}

/// The fused chain then(entry(x, y)); y broadcast when `broadcast`.
FusedExpr chain(const Entry& e, bool broadcast) {
  FusedExpr fe;
  MicroOp x;
  x.input = 0;
  fe.nodes.push_back(x);
  fe.input_flags.push_back(0);
  if (e.binary) {
    MicroOp y;
    y.input = 1;
    fe.nodes.push_back(y);
    fe.input_flags.push_back(broadcast ? kFusedBroadcast : 0);
  }
  MicroOp op;
  op.kind = MicroOp::Kind::kPrim;
  op.prim = e.op;
  op.a = 0;
  op.b = 1;
  const auto at = static_cast<std::uint8_t>(fe.nodes.size());
  fe.nodes.push_back(op);
  MicroOp then;
  then.kind = MicroOp::Kind::kPrim;
  then.prim = e.then;
  then.a = at;
  fe.nodes.push_back(then);
  return fe;
}

/// The depth-1 and fused paths over frames (xs, ys), or xs and the
/// broadcast y, against the interpreter's lane-by-lane outcome.
void check_frames(const Entry& e, const std::vector<Lane>& xs,
                  const std::vector<Lane>& ys, std::optional<Lane> y_bcast,
                  const std::vector<Oracle>& oracle, const std::string& at) {
  const VValue x = frame(e.ka, xs);
  const VValue y = e.binary ? (y_bcast ? scalar(*y_bcast) : frame(e.kb, ys))
                            : VValue();
  std::vector<VValue> args{x};
  std::vector<std::uint8_t> lifted{1};
  if (e.binary) {
    args.push_back(y);
    lifted.push_back(y_bcast ? 0 : 1);
  }
  const auto n = static_cast<std::uint64_t>(xs.size());

  // Depth 1: the entry alone, charging the records of its vl call (a
  // broadcast is replicated first, one dist record).
  const Outcome one = measure(
      [&] { return lanes_of(apply_prim1(e.op, args, lifted).as_seq()); });
  // A failing lane raises before the kernel's records, as in vl.
  expect_same(one, expected(oracle, false), at + " depth-1");
  const std::uint64_t calls =
      (y_bcast ? 1U : 0U) +
      (!one.error.empty() ? 0U : e.sel.two_records ? 2U : 1U);
  EXPECT_EQ(one.stats.primitive_calls, calls) << at << " depth-1";
  EXPECT_EQ(one.stats.element_work, calls * n) << at << " depth-1";
  EXPECT_EQ(one.stats.segment_work, 0U) << at << " depth-1";

  // The two-node chain, fused and unfused.
  const Outcome unfused = measure([&] {
    const VValue r = apply_prim1(e.op, args, lifted);
    return lanes_of(apply_prim1(e.then, {r}, {1}).as_seq());
  });
  const FusedExpr fe = chain(e, y_bcast.has_value());
  const Outcome fused = measure([&] {
    std::vector<VValue> in{x};
    if (e.binary) in.push_back(y);
    return lanes_of(eval_fused(fe, std::move(in)).as_seq());
  });
  expect_same(unfused, expected(oracle, true), at + " chain unfused");
  expect_same(fused, expected(oracle, true), at + " chain fused");
  // A fused chain charges every node before its single pass, so only a
  // chain that completes charges what the unfused one does.
  if (unfused.error.empty()) {
    expect_same_counts(fused.stats, unfused.stats, at + " chain");
    EXPECT_LE(fused.stats.buffer_allocs, unfused.stats.buffer_allocs) << at;
  }
}

TEST(LaneTable, EveryEntryAgreesWithTheOracle) {
  const std::vector<Entry> entries = table_entries();
  EXPECT_EQ(entries.size(), 35U);  // one per (prim, operand kinds) pair
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.name());
    Session s(e.source());
    const std::vector<Lane> as = edge_operands(e.op, e.ka);
    const std::vector<Lane> bs =
        e.binary ? edge_operands(e.op, e.kb) : std::vector<Lane>{Lane{}};

    // Every pair of edge operands, with the interpreter's verdict.
    std::vector<Lane> xs, ys;
    std::vector<Oracle> oracle;
    for (const Lane& a : as) {
      for (const Lane& b : bs) {
        interp::ValueList args{boxed(a)};
        if (e.binary) args.push_back(boxed(b));
        Oracle o;
        try {
          o.f = unboxed(s.run_reference("f", args), e.sel.out);
          o.g = unboxed(s.run_reference("g", args), e.then_out);
        } catch (const Error& err) {
          o.error = err.what();
        }
        xs.push_back(a);
        ys.push_back(b);
        oracle.push_back(o);
      }
    }

    // Depth 0: each pair on one lane, charging no vl work.
    for (std::size_t j = 0; j < xs.size(); ++j) {
      const std::string at = "depth-0 (" + text(xs[j]) +
                             (e.binary ? ", " + text(ys[j]) : "") + ")";
      const Outcome got = measure([&] {
        std::vector<VValue> args{scalar(xs[j])};
        if (e.binary) args.push_back(scalar(ys[j]));
        return std::vector<Lane>{lane_of(apply_prim0(e.op, args))};
      });
      expect_same(got, expected({oracle[j]}, false), at);
      EXPECT_EQ(got.stats.primitive_calls, 0U) << at;
    }

    // Depth 1 and fused: every pair in one frame (raising the first
    // failing lane's error, if any), then the pairs that do not fail.
    check_frames(e, xs, ys, std::nullopt, oracle, "all pairs");
    std::vector<Lane> ok_x, ok_y;
    std::vector<Oracle> ok_oracle;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (!oracle[j].error.empty()) continue;
      ok_x.push_back(xs[j]);
      ok_y.push_back(ys[j]);
      ok_oracle.push_back(oracle[j]);
    }
    if (ok_x.size() != xs.size()) {
      check_frames(e, ok_x, ok_y, std::nullopt, ok_oracle, "passing pairs");
    }

    // A broadcast second operand: the scalar lanes of the kernel.
    if (e.binary) {
      for (const Lane& b : bs) {
        std::vector<Lane> bx;
        std::vector<Oracle> bo;
        for (std::size_t j = 0; j < xs.size(); ++j) {
          if (!same(ys[j], b)) continue;
          bx.push_back(xs[j]);
          bo.push_back(oracle[j]);
        }
        check_frames(e, bx, {}, b, bo, "broadcast " + text(b));
      }
    }

    // Past the threaded grain: the passing pairs tiled over several
    // blocks, then every pair, so a failing lane lies in the last block.
    if (vl::openmp_available() && !ok_x.empty()) {
      testing::ThreadedBackend threaded(2);
      std::vector<Lane> tx, ty;
      std::vector<Oracle> to;
      while (static_cast<Size>(tx.size()) < 3 * vl::kParallelGrain) {
        tx.insert(tx.end(), ok_x.begin(), ok_x.end());
        ty.insert(ty.end(), ok_y.begin(), ok_y.end());
        to.insert(to.end(), ok_oracle.begin(), ok_oracle.end());
      }
      tx.insert(tx.end(), xs.begin(), xs.end());
      ty.insert(ty.end(), ys.begin(), ys.end());
      to.insert(to.end(), oracle.begin(), oracle.end());
      check_frames(e, tx, ty, std::nullopt, to, "threaded");
    }
  }
}

}  // namespace
}  // namespace proteus::kernels
