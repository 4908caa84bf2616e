// lifetime.cpp — see lifetime.hpp. Structure:
//
//   1. forward abstract interpretation of register contents in the affine
//      size domain (AbsVal), widened at merge points,
//   2. backward may-liveness over the same CFG (the shared vm::Liveness of
//      vm/cfg.hpp); deaths = operands of pc not live out of pc,
//   3. a forward "physically held" pass mirroring the planned VM exactly
//      (held' = (held ∪ def) \ deaths), whose per-pc byte sum plus the
//      in-flight allocation gives the raw peak,
//   4. greedy interval coloring of flat-vector registers into slots,
//   5. M3xx wasteful-pattern warnings.
//
// Interprocedural: call summaries (result value + raw peak, both in terms
// of the callee's input scale) resolve bottom-up in passes; functions in
// recursion cycles never resolve and compose as unbounded — quicksort-
// style flattened recursion legitimately has no static bound.
#include "analysis/lifetime.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "lang/types.hpp"
#include "seq/extract_insert.hpp"
#include "vm/cfg.hpp"

namespace proteus::analysis {

namespace {

using vm::Function;
using vm::Instr;
using vm::Module;
using vm::Op;
using vm::successors;
using vm::writes_dst;
using lang::Prim;

constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSat - b ? kSat : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSat / b ? kSat : a * b;
}

/// Per-buffer descriptor allowance: a flat value costs its elements plus
/// one vector header / descriptor worth of slack.
constexpr std::uint64_t kBufferOverhead = 64;
/// Fixed slack added to a published bound (tiny frames, empty-descriptor
/// vectors, allocator rounding).
constexpr std::uint64_t kPlanSlack = 4096;
/// Merge-count at one pc after which changed bounds widen to top.
constexpr std::uint32_t kWidenLimit = 8;

std::uint64_t width_of(SlotKind k) {
  return k == SlotKind::kBool ? 1 : 8;
}

/// Abstract register contents for the size pass.
struct AbsVal {
  enum Tag : std::uint8_t { kUnset, kScalar, kFlat, kTop } tag = kUnset;
  SlotKind kind = SlotKind::kUnknown;
  /// kFlat: element-count bound. kScalar: upper bound on the (integer)
  /// value itself — this is what carries `length(v)` into the count
  /// operand of `range1`/`dist`, the T1 codegen for every comprehension.
  SymBound elems;
  bool has_value = false;     ///< kScalar: exact integer value known
  std::int64_t value = 0;

  static AbsVal unset() { return {}; }
  static AbsVal top() {
    return {kTop, SlotKind::kUnknown, SymBound::top(), false, 0};
  }
  static AbsVal scalar(SlotKind k) {
    return {kScalar, k, SymBound::top(), false, 0};
  }
  static AbsVal scalar_capped(SlotKind k, SymBound cap) {
    return {kScalar, k, cap, false, 0};
  }
  static AbsVal scalar_int(std::int64_t v) {
    return {kScalar, SlotKind::kInt,
            SymBound::konst(v < 0 ? 0 : static_cast<std::uint64_t>(v)), true,
            v};
  }
  static AbsVal flat(SlotKind k, SymBound elems) {
    return {kFlat, k, elems, false, 0};
  }

  bool operator==(const AbsVal&) const = default;
};

AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.tag == AbsVal::kUnset) return b;
  if (b.tag == AbsVal::kUnset) return a;
  if (a.tag != b.tag) return AbsVal::top();
  if (a.tag == AbsVal::kScalar) {
    AbsVal out = AbsVal::scalar_capped(
        a.kind == b.kind ? a.kind : SlotKind::kUnknown, a.elems.max(b.elems));
    if (a.has_value && b.has_value && a.value == b.value) {
      out.has_value = true;
      out.value = a.value;
    }
    return out;
  }
  if (a.tag == AbsVal::kFlat) {
    return AbsVal::flat(a.kind == b.kind ? a.kind : SlotKind::kUnknown,
                        a.elems.max(b.elems));
  }
  return a;  // kTop
}

/// Drops the unstable parts of a merged value (widening at a hot join).
AbsVal widen(const AbsVal& v) {
  switch (v.tag) {
    case AbsVal::kScalar: {
      return AbsVal::scalar(v.kind);
    }
    case AbsVal::kFlat:
      return AbsVal::flat(v.kind, SymBound::top());
    default:
      return v;
  }
}

/// A flat value whose size bounds the result (restrict, update,
/// reverse); top for anything the flat domain does not size.
AbsVal flat_or_top(const AbsVal& v) {
  return v.tag == AbsVal::kFlat ? v : AbsVal::top();
}

/// Two flat values laid end to end (combine, concat).
AbsVal end_to_end(const AbsVal& v, const AbsVal& u) {
  if (v.tag != AbsVal::kFlat || u.tag != AbsVal::kFlat) return AbsVal::top();
  return AbsVal::flat(v.kind == u.kind ? v.kind : SlotKind::kUnknown,
                      v.elems.plus(u.elems));
}

/// Byte bound of one register's contents (0 for scalars, top for values
/// the domain cannot size: nested sequences, tuples, functions).
SymBound bytes_of(const AbsVal& v) {
  switch (v.tag) {
    case AbsVal::kUnset:
    case AbsVal::kScalar:
      return SymBound::konst(0);
    case AbsVal::kFlat: {
      if (v.elems.is_top()) return SymBound::top();
      const std::uint64_t w = width_of(v.kind);
      return SymBound::linear(sat_add(sat_mul(v.elems.c0, w), kBufferOverhead),
                              sat_mul(v.elems.c1, w));
    }
    case AbsVal::kTop:
      return SymBound::top();
  }
  return SymBound::top();
}

/// Leaf-scalar bound of one register (for a callee's input scale).
SymBound leaves_of(const AbsVal& v) {
  switch (v.tag) {
    case AbsVal::kUnset:
    case AbsVal::kScalar:
      return SymBound::konst(0);
    case AbsVal::kFlat:
      return v.elems;
    case AbsVal::kTop:
      return SymBound::top();
  }
  return SymBound::top();
}

SlotKind kind_of_type(const lang::TypePtr& t) {
  switch (t->kind()) {
    case lang::TypeKind::kInt:
      return SlotKind::kInt;
    case lang::TypeKind::kReal:
      return SlotKind::kReal;
    case lang::TypeKind::kBool:
      return SlotKind::kBool;
    default:
      return SlotKind::kUnknown;
  }
}

SlotKind kind_of_array(const seq::Array& a) {
  switch (a.kind()) {
    case seq::Array::Kind::kInt:
      return SlotKind::kInt;
    case seq::Array::Kind::kReal:
      return SlotKind::kReal;
    case seq::Array::Kind::kBool:
      return SlotKind::kBool;
    default:
      return SlotKind::kUnknown;
  }
}

AbsVal abstract_constant(const kernels::VValue& v) {
  if (v.is_int()) return AbsVal::scalar_int(v.as_int());
  if (v.is_real()) return AbsVal::scalar(SlotKind::kReal);
  if (v.is_bool()) return AbsVal::scalar(SlotKind::kBool);
  if (v.is_seq()) {
    const seq::Array& a = v.as_seq();
    if (seq::spine_depth(a) == 0 && a.kind() != seq::Array::Kind::kTuple &&
        a.kind() != seq::Array::Kind::kNested) {
      return AbsVal::flat(kind_of_array(a),
                          SymBound::konst(static_cast<std::uint64_t>(
                              a.length() < 0 ? 0 : a.length())));
    }
    // Nested / tuple-element constant: bounded by its own leaf count.
    return AbsVal::top();
  }
  return AbsVal::top();  // tuple / function values
}

/// Element kind of a prim's result: fixed for comparisons, logic and
/// conversions, otherwise the kind of its operands.
SlotKind result_kind(Prim p, SlotKind operands) {
  switch (p) {
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
    case Prim::kNot:
      return SlotKind::kBool;
    case Prim::kToReal:
    case Prim::kSqrt:
      return SlotKind::kReal;
    case Prim::kToInt:
      return SlotKind::kInt;
    default:
      return operands;
  }
}

/// An elementwise map's result: as long as its longest frame operand
/// (`is_frame(i)`; a scalar in a frame slot is a broadcast depth-0 value
/// and does not bound it), of the kind `root` makes from the first frame.
template <typename IsFrame>
AbsVal map_result(Prim root, std::size_t n_args, const std::uint16_t* a,
                  const std::vector<AbsVal>& state, IsFrame&& is_frame) {
  SymBound elems = SymBound::konst(0);
  bool any_frame = false;
  SlotKind frame_kind = SlotKind::kUnknown;
  for (std::size_t i = 0; i < n_args; ++i) {
    if (!is_frame(i)) continue;
    const AbsVal& v = state[a[i]];
    if (v.tag == AbsVal::kScalar) continue;
    any_frame = true;
    if (v.tag == AbsVal::kFlat) {
      elems = elems.max(v.elems);
      if (frame_kind == SlotKind::kUnknown) frame_kind = v.kind;
    } else {
      elems = SymBound::top();
    }
  }
  return AbsVal::flat(result_kind(root, frame_kind),
                      any_frame ? elems : SymBound::top());
}

/// True when the instruction allocates at least one fresh buffer.
bool allocates(const Instr& in) {
  switch (in.op) {
    case Op::kElementwise:
    case Op::kFusedMap:
    case Op::kBuild:
    case Op::kGather:
    case Op::kPack:
    case Op::kSegment:
    case Op::kEmptyFrame:
    case Op::kSeqCons:
    case Op::kExtract:
    case Op::kInsert:
      return true;
    case Op::kReduce:
    case Op::kTuple:
    case Op::kTupleGet:
      return in.depth == 1;
    default:
      return false;
  }
}

/// Interprocedural summary of one function, in terms of its own input
/// scale N: the abstract result value and the raw (unpublished) peak.
struct Summary {
  AbsVal result = AbsVal::top();
  SymBound peak = SymBound::top();
};

struct FnResult {
  FunctionPlan plan;
  Summary summary;
};

class Analyzer {
 public:
  Analyzer(const Module& m, const std::vector<Summary>& summaries,
           const std::vector<char>& resolved)
      : m_(m), summaries_(summaries), resolved_(resolved) {}

  FnResult analyze(std::size_t fi, Report* report);

 private:
  AbsVal transfer_value(const Function& fn, const Instr& in,
                        const std::uint16_t* a,
                        const std::vector<AbsVal>& state) const;
  SymBound call_scale(const Instr& in, const std::uint16_t* a,
                      const std::vector<AbsVal>& state,
                      std::size_t first_arg) const;

  const Module& m_;
  const std::vector<Summary>& summaries_;
  const std::vector<char>& resolved_;
};

/// Input-scale bound of a call: the summed leaf bounds of the argument
/// registers (top as soon as one argument is unsized).
SymBound Analyzer::call_scale(const Instr& in, const std::uint16_t* a,
                              const std::vector<AbsVal>& state,
                              std::size_t first_arg) const {
  SymBound n = SymBound::konst(0);
  for (std::size_t i = first_arg; i < in.args_count; ++i) {
    n = n.plus(leaves_of(state[a[i]]));
  }
  return n;
}

AbsVal Analyzer::transfer_value(const Function& fn, const Instr& in,
                                const std::uint16_t* a,
                                const std::vector<AbsVal>& state) const {
  switch (in.op) {
    case Op::kConst:
    case Op::kLoadFun:
      return abstract_constant(
          m_.constants[static_cast<std::size_t>(in.aux)]);
    case Op::kMove:
      return state[a[0]];
    case Op::kScalar: {
      // Track exact integer values through the handful of arithmetic ops
      // that feed range/dist lengths; everything else keeps the kind only.
      const auto val = [&](std::size_t i) { return state[a[i]]; };
      if (in.args_count == 2 && val(0).has_value && val(1).has_value) {
        const std::int64_t x = val(0).value;
        const std::int64_t y = val(1).value;
        switch (in.prim) {
          case Prim::kAdd: {
            std::int64_t r = 0;
            if (!__builtin_add_overflow(x, y, &r)) return AbsVal::scalar_int(r);
            break;
          }
          case Prim::kSub: {
            std::int64_t r = 0;
            if (!__builtin_sub_overflow(x, y, &r)) return AbsVal::scalar_int(r);
            break;
          }
          case Prim::kMul: {
            std::int64_t r = 0;
            if (!__builtin_mul_overflow(x, y, &r)) return AbsVal::scalar_int(r);
            break;
          }
          case Prim::kMin:
            return AbsVal::scalar_int(std::min(x, y));
          case Prim::kMax:
            return AbsVal::scalar_int(std::max(x, y));
          default:
            break;
        }
      }
      if (in.args_count == 1 && in.prim == Prim::kNeg && val(0).has_value &&
          val(0).value != std::numeric_limits<std::int64_t>::min()) {
        return AbsVal::scalar_int(-val(0).value);
      }
      // Value caps survive the monotone ops (x<=cx, y<=cy imply
      // x+y <= cx+cy and min/max(x,y) <= max(cx,cy)); sub/mul/div can
      // amplify through negatives, so they fall through to top caps.
      if (in.args_count == 2 && val(0).tag == AbsVal::kScalar &&
          val(1).tag == AbsVal::kScalar) {
        switch (in.prim) {
          case Prim::kAdd:
            return AbsVal::scalar_capped(val(0).kind,
                                         val(0).elems.plus(val(1).elems));
          case Prim::kMin:
          case Prim::kMax:
            return AbsVal::scalar_capped(val(0).kind,
                                         val(0).elems.max(val(1).elems));
          default:
            break;
        }
      }
      return AbsVal::scalar(result_kind(
          in.prim, in.args_count > 0 ? state[a[0]].kind : SlotKind::kUnknown));
    }
    case Op::kElementwise: {
      // Result length = frame length. A *lifted* operand is a frame
      // sequence; a non-lifted one is a broadcast scalar and does not
      // bound it — kernels::apply_prim1 takes the frame length from the
      // first lifted argument.
      return map_result(in.prim, in.args_count, a, state, [&](std::size_t i) {
        return vm::lifted_operand(fn, in, i);
      });
    }
    case Op::kFusedMap: {
      // The root micro-op decides the element kind of the output buffer.
      const kernels::FusedExpr& fe =
          fn.fused[static_cast<std::size_t>(in.aux)];
      return map_result(fe.nodes.back().prim, in.args_count, a, state,
                        [&](std::size_t i) {
                          return (fe.input_flags[i] &
                                  kernels::kFusedBroadcast) == 0;
                        });
    }
    case Op::kBuild: {
      if (in.depth != 0) return AbsVal::top();
      if (in.prim == Prim::kRange && in.args_count == 2 &&
          state[a[0]].has_value && state[a[1]].has_value) {
        const std::int64_t lo = state[a[0]].value;
        const std::int64_t hi = state[a[1]].value;
        const std::uint64_t len =
            hi < lo ? 0 : static_cast<std::uint64_t>(hi - lo) + 1;
        return AbsVal::flat(SlotKind::kInt, SymBound::konst(len));
      }
      if (in.prim == Prim::kRange && in.args_count == 2 &&
          state[a[0]].has_value && state[a[0]].value >= 1 &&
          state[a[1]].tag == AbsVal::kScalar) {
        // [lo..hi] with lo >= 1 known: count <= max(hi, 0) <= cap(hi).
        return AbsVal::flat(SlotKind::kInt, state[a[1]].elems);
      }
      if (in.prim == Prim::kRange1 && in.args_count == 1 &&
          state[a[0]].tag == AbsVal::kScalar) {
        // [1..c]: the count IS the operand's value, so its cap bounds it
        // (this is how `length -> range1 -> gather` stays finite).
        return AbsVal::flat(SlotKind::kInt, state[a[0]].elems);
      }
      if (in.prim == Prim::kDist && in.args_count == 2) {
        const AbsVal& c = state[a[0]];
        const AbsVal& r = state[a[1]];
        if (c.tag == AbsVal::kScalar && r.has_value) {
          return AbsVal::flat(c.kind,
                              SymBound::konst(r.value < 0
                                                  ? 0
                                                  : static_cast<std::uint64_t>(
                                                        r.value)));
        }
        if (c.tag == AbsVal::kScalar) {
          return AbsVal::flat(c.kind, r.tag == AbsVal::kScalar
                                          ? r.elems
                                          : SymBound::top());
        }
        return AbsVal::top();  // dist of a non-scalar replicates structure
      }
      if (in.prim == Prim::kRange || in.prim == Prim::kRange1) {
        return AbsVal::flat(SlotKind::kInt, SymBound::top());
      }
      return AbsVal::top();
    }
    case Op::kGather: {
      if (in.depth != 0) {
        if (in.prim == Prim::kSeqIndex && in.args_count == 2) {
          // v[i] lifted over a frame of indices: |frame| elements of v's
          // kind (a broadcast v stays kFlat; a lifted — nested — v is
          // already kTop and falls through).
          const AbsVal& v = state[a[0]];
          const AbsVal& is = state[a[1]];
          if (v.tag == AbsVal::kFlat && is.tag == AbsVal::kFlat) {
            return AbsVal::flat(v.kind, is.elems);
          }
        }
        return AbsVal::top();
      }
      if (in.prim == Prim::kSeqIndex && in.args_count == 2) {
        // v[i]: one element of v.
        const AbsVal& v = state[a[0]];
        if (v.tag == AbsVal::kFlat) return AbsVal::scalar(v.kind);
        return AbsVal::top();
      }
      if (in.prim == Prim::kSeqIndexInner && in.args_count == 2) {
        // [v[i] : i in is]: len(is) elements of v's kind.
        const AbsVal& v = state[a[0]];
        const AbsVal& is = state[a[1]];
        if (v.tag == AbsVal::kFlat) {
          return AbsVal::flat(v.kind, is.tag == AbsVal::kFlat
                                          ? is.elems
                                          : SymBound::top());
        }
        return AbsVal::top();
      }
      return AbsVal::top();
    }
    case Op::kPack: {
      if (in.depth != 0) return AbsVal::top();
      if (in.prim == Prim::kRestrict || in.prim == Prim::kSeqUpdate) {
        return flat_or_top(state[a[0]]);
      }
      if (in.prim == Prim::kCombine && in.args_count == 3) {
        return end_to_end(state[a[1]], state[a[2]]);
      }
      return AbsVal::top();
    }
    case Op::kReduce:
      if (in.depth != 0) {
        // Segmented reduction: one scalar per segment of a nested operand
        // the flat domain does not size.
        return AbsVal::flat(SlotKind::kUnknown, SymBound::top());
      }
      switch (in.prim) {
        case Prim::kLength:
          // The length *value* is capped by the operand's element bound —
          // the hinge that sizes every downstream range1/dist.
          return AbsVal::scalar_capped(
              SlotKind::kInt, in.args_count > 0 &&
                                      state[a[0]].tag == AbsVal::kFlat
                                  ? state[a[0]].elems
                                  : SymBound::top());
        case Prim::kAnyV:
        case Prim::kAllV:
        case Prim::kAnyTrue:
          return AbsVal::scalar(SlotKind::kBool);
        default:
          return AbsVal::scalar(in.args_count > 0 &&
                                        state[a[0]].tag == AbsVal::kFlat
                                    ? state[a[0]].kind
                                    : SlotKind::kUnknown);
      }
    case Op::kSegment: {
      if (in.depth != 0) return AbsVal::top();
      if (in.prim == Prim::kConcat && in.args_count == 2) {
        return end_to_end(state[a[0]], state[a[1]]);
      }
      if (in.prim == Prim::kReverse && in.args_count == 1) {
        return flat_or_top(state[a[0]]);
      }
      return AbsVal::top();  // flatten / zip restructure the spine
    }
    case Op::kEmptyFrame:
      // Zero leaves under a constant-size descriptor spine.
      return AbsVal::flat(SlotKind::kUnknown, SymBound::konst(0));
    case Op::kSeqCons: {
      if (in.depth != 0) return AbsVal::top();
      if (in.args_count == 0) {
        if (in.aux >= 0 &&
            static_cast<std::size_t>(in.aux) < m_.types.size()) {
          const lang::TypePtr& t =
              m_.types[static_cast<std::size_t>(in.aux)];
          if (t->is_seq() && t->elem()->is_scalar()) {
            return AbsVal::flat(kind_of_type(t->elem()), SymBound::konst(0));
          }
        }
        return AbsVal::flat(SlotKind::kUnknown, SymBound::konst(0));
      }
      const AbsVal& first = state[a[0]];
      if (first.tag == AbsVal::kScalar) {
        return AbsVal::flat(first.kind, SymBound::konst(in.args_count));
      }
      return AbsVal::top();  // sequence-of-sequence / tuple literal
    }
    case Op::kCall: {
      if (in.aux < 0) return AbsVal::top();
      const auto callee = static_cast<std::size_t>(in.aux);
      if (callee >= resolved_.size() || resolved_[callee] == 0) {
        return AbsVal::top();
      }
      const Summary& s = summaries_[callee];
      const SymBound n = call_scale(in, a, state, 0);
      if (n.is_top()) {
        return s.result.tag == AbsVal::kScalar ? s.result : AbsVal::top();
      }
      if (s.result.tag == AbsVal::kFlat) {
        return AbsVal::flat(s.result.kind, s.result.elems.compose(n));
      }
      AbsVal r = s.result;
      r.has_value = false;  // a summary's exact value is per-context
      return r;
    }
    case Op::kTuple:
    case Op::kTupleGet:
    case Op::kExtract:
    case Op::kInsert:
    case Op::kCallIndirect:
      return AbsVal::top();
    default:
      return AbsVal::top();
  }
}

FnResult Analyzer::analyze(std::size_t fi, Report* report) {
  const Function& fn = m_.functions[fi];
  FnResult out;
  const std::size_t n = fn.code.size();
  const std::size_t n_regs = fn.n_regs;
  out.plan.death_off.assign(n + 1, 0);
  out.plan.reg_slot.assign(n_regs, -1);
  if (n == 0) {
    out.summary = Summary{};
    return out;
  }

  // --- 1. forward size pass (widened worklist dataflow) ---------------------
  std::vector<std::vector<AbsVal>> in_state(n);
  std::vector<std::uint8_t> reached(n, 0);
  std::vector<std::uint32_t> merges(n, 0);

  std::vector<AbsVal> entry(n_regs, AbsVal::unset());
  const vm::Signature* sig = m_.signature(static_cast<std::uint32_t>(fi));
  for (std::size_t r = 0; r < fn.n_params; ++r) {
    if (sig != nullptr && r < sig->params.size()) {
      const lang::TypePtr& t = sig->params[r];
      if (t->is_scalar()) {
        entry[r] = AbsVal::scalar(kind_of_type(t));
      } else if (t->is_seq() && t->elem()->is_scalar()) {
        entry[r] = AbsVal::flat(kind_of_type(t->elem()), SymBound::linear(0, 1));
      } else {
        entry[r] = AbsVal::top();
      }
    } else {
      entry[r] = AbsVal::top();
    }
  }

  std::vector<std::size_t> work;
  auto flow_to = [&](std::size_t pc, const std::vector<AbsVal>& state) {
    if (pc >= n) return;
    if (reached[pc] == 0) {
      reached[pc] = 1;
      in_state[pc] = state;
      work.push_back(pc);
      return;
    }
    bool changed = false;
    const bool widen_now = ++merges[pc] > kWidenLimit;
    for (std::size_t r = 0; r < n_regs; ++r) {
      AbsVal merged = join(in_state[pc][r], state[r]);
      if (merged == in_state[pc][r]) continue;
      if (widen_now) merged = widen(merged);
      if (merged == in_state[pc][r]) continue;
      in_state[pc][r] = merged;
      changed = true;
    }
    if (changed) work.push_back(pc);
  };

  flow_to(0, entry);
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Instr& in = fn.code[pc];
    std::vector<AbsVal> state = in_state[pc];
    if (writes_dst(in.op)) {
      state[in.dst] =
          transfer_value(fn, in, fn.arg_pool.data() + in.args_off, state);
    }
    for (const std::size_t succ : successors(in, pc, n)) flow_to(succ, state);
  }

  // --- 2. backward may-liveness (vm/cfg.hpp) -------------------------------
  const vm::Liveness live(fn);

  // --- 3. deaths (CSR) -------------------------------------------------------
  std::vector<std::vector<std::uint16_t>> deaths(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (reached[pc] == 0) continue;
    const Instr& in = fn.code[pc];
    const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
    for (std::size_t i = 0; i < in.args_count; ++i) {
      const std::uint16_t r = a[i];
      if (writes_dst(in.op) && r == in.dst) continue;
      if (live.live_out(pc, r)) continue;
      auto& d = deaths[pc];
      if (std::find(d.begin(), d.end(), r) == d.end()) d.push_back(r);
    }
    std::sort(deaths[pc].begin(), deaths[pc].end());
  }
  for (std::size_t pc = 0; pc < n; ++pc) {
    out.plan.death_off[pc + 1] =
        out.plan.death_off[pc] +
        static_cast<std::uint32_t>(deaths[pc].size());
    out.plan.death_regs.insert(out.plan.death_regs.end(), deaths[pc].begin(),
                               deaths[pc].end());
  }

  // --- 4. physically-held pass + peak ---------------------------------------
  // Mirrors the planned VM exactly: held' = (held ∪ def) \ deaths. The raw
  // peak is the largest per-pc byte sum of held registers plus the bytes
  // the instruction itself materializes (or its callee's peak).
  const std::size_t words = (n_regs + 63) / 64;
  const auto bit = [](std::size_t r) {
    return std::uint64_t{1} << (r % 64);
  };
  std::vector<std::uint64_t> held_in(n * words, 0);
  std::vector<std::uint8_t> held_seen(n, 0);
  const auto held_flow = [&](std::size_t pc,
                             const std::vector<std::uint64_t>& row) {
    bool delta = held_seen[pc] == 0;
    held_seen[pc] = 1;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t merged = held_in[pc * words + w] | row[w];
      if (merged != held_in[pc * words + w]) {
        held_in[pc * words + w] = merged;
        delta = true;
      }
    }
    return delta;
  };
  {
    std::vector<std::uint64_t> entry_row(words, 0);
    for (std::size_t r = 0; r < fn.n_params; ++r) entry_row[r / 64] |= bit(r);
    (void)held_flow(0, entry_row);
    std::vector<std::size_t> hw{0};
    while (!hw.empty()) {
      const std::size_t pc = hw.back();
      hw.pop_back();
      const Instr& in = fn.code[pc];
      std::vector<std::uint64_t> row(
          held_in.begin() + static_cast<std::ptrdiff_t>(pc * words),
          held_in.begin() + static_cast<std::ptrdiff_t>((pc + 1) * words));
      if (writes_dst(in.op)) row[in.dst / 64] |= bit(in.dst);
      for (const std::uint16_t r : deaths[pc]) row[r / 64] &= ~bit(r);
      for (const std::size_t succ : successors(in, pc, n)) {
        if (held_flow(succ, row)) hw.push_back(succ);
      }
    }
  }

  SymBound raw_peak = SymBound::konst(0);
  out.summary.result = AbsVal::unset();
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (reached[pc] == 0) continue;
    const Instr& in = fn.code[pc];
    const std::uint16_t* a = fn.arg_pool.data() + in.args_off;

    SymBound held_bytes = SymBound::konst(0);
    for (std::size_t r = 0; r < n_regs; ++r) {
      if ((held_in[pc * words + r / 64] & bit(r)) == 0) continue;
      held_bytes = held_bytes.plus(bytes_of(in_state[pc][r]));
    }
    SymBound transient = SymBound::konst(0);
    if (in.op == Op::kCall) {
      if (in.aux >= 0 &&
          static_cast<std::size_t>(in.aux) < resolved_.size() &&
          resolved_[static_cast<std::size_t>(in.aux)] != 0) {
        const Summary& s = summaries_[static_cast<std::size_t>(in.aux)];
        const SymBound scale = call_scale(in, a, in_state[pc], 0);
        transient = scale.is_top() ? (s.peak == SymBound::konst(0)
                                          ? SymBound::konst(0)
                                          : SymBound::top())
                                   : s.peak.compose(scale);
      } else {
        transient = SymBound::top();
      }
    } else if (in.op == Op::kCallIndirect) {
      transient = SymBound::top();
    } else if (allocates(in)) {
      transient = bytes_of(transfer_value(fn, in, a, in_state[pc]));
      out.plan.static_allocs += 1;
    }
    raw_peak = raw_peak.max(held_bytes.plus(transient));

    if (in.op == Op::kRet) {
      out.summary.result = join(out.summary.result, in_state[pc][a[0]]);
    }
  }
  if (out.summary.result.tag == AbsVal::kUnset) {
    out.summary.result = AbsVal::top();
  }
  out.summary.peak = raw_peak;
  // Published bound: live + in-flight, doubled to cover the evaluation
  // arena's pooled dead buffers (the arena caps its pool at bound/2), plus
  // fixed slack. See docs/VM.md.
  out.plan.peak_bytes =
      raw_peak.plus(raw_peak).plus(SymBound::konst(kPlanSlack));

  // --- 5. slot coloring ------------------------------------------------------
  {
    std::vector<AbsVal> joined(n_regs, AbsVal::unset());
    std::vector<std::size_t> first_def(n_regs, n);
    std::vector<std::size_t> last_touch(n_regs, 0);
    std::vector<std::uint8_t> defined(n_regs, 0);
    for (std::size_t r = 0; r < fn.n_params; ++r) {
      first_def[r] = 0;
      defined[r] = 1;
    }
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (reached[pc] == 0) continue;
      const Instr& in = fn.code[pc];
      for (std::size_t r = 0; r < n_regs; ++r) {
        joined[r] = join(joined[r], in_state[pc][r]);
      }
      const std::uint16_t* a = fn.arg_pool.data() + in.args_off;
      for (std::size_t i = 0; i < in.args_count; ++i) {
        defined[a[i]] = 1;
        last_touch[a[i]] = std::max(last_touch[a[i]], pc);
      }
      if (writes_dst(in.op)) {
        defined[in.dst] = 1;
        first_def[in.dst] = std::min(first_def[in.dst], pc);
        last_touch[in.dst] = std::max(last_touch[in.dst], pc);
      }
    }
    std::vector<std::size_t> order;
    for (std::size_t r = 0; r < n_regs; ++r) {
      if (defined[r] != 0 && joined[r].tag == AbsVal::kFlat &&
          first_def[r] < n) {
        order.push_back(r);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return first_def[x] != first_def[y] ? first_def[x] < first_def[y]
                                          : x < y;
    });
    std::vector<std::size_t> busy_until;  // parallel to plan.slots
    for (const std::size_t r : order) {
      std::int32_t slot = -1;
      for (std::size_t s = 0; s < out.plan.slots.size(); ++s) {
        if (out.plan.slots[s].kind == joined[r].kind &&
            busy_until[s] < first_def[r]) {
          slot = static_cast<std::int32_t>(s);
          break;
        }
      }
      if (slot < 0) {
        out.plan.slots.push_back(SlotPlan{joined[r].kind, joined[r].elems});
        busy_until.push_back(last_touch[r]);
        slot = static_cast<std::int32_t>(out.plan.slots.size() - 1);
      } else {
        out.plan.slots[static_cast<std::size_t>(slot)].elems =
            out.plan.slots[static_cast<std::size_t>(slot)].elems.max(
                joined[r].elems);
        busy_until[static_cast<std::size_t>(slot)] = last_touch[r];
      }
      out.plan.reg_slot[r] = slot;
    }
  }

  // --- 6. M3xx wasteful-pattern warnings ------------------------------------
  if (report != nullptr) {
    const auto warn = [&](const char* code, std::string msg, std::size_t pc) {
      report->warning(code,
                      "pc " + std::to_string(pc) + ": " + std::move(msg),
                      fn.name, {}, "VCODE");
    };
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (reached[pc] == 0) continue;
      const Instr& in = fn.code[pc];
      // M301: a computed value nothing ever reads.
      if (writes_dst(in.op) && in.op != Op::kCall &&
          in.op != Op::kCallIndirect &&
          !live.live_out(pc, in.dst)) {
        warn("M301",
             "dead store: r" + std::to_string(in.dst) +
                 " is written but never read",
             pc);
      }
      // M303: a copy whose source dies at the copy.
      if (in.op == Op::kMove) {
        const std::uint16_t src = fn.arg_pool[in.args_off];
        if (std::binary_search(deaths[pc].begin(), deaths[pc].end(), src)) {
          warn("M303",
               "redundant copy: r" + std::to_string(src) +
                   " dies here; the move could be elided",
               pc);
        }
      }
      // M302: a buffer materialized only to feed one scalar reduction.
      if ((in.op == Op::kElementwise || in.op == Op::kFusedMap) &&
          writes_dst(in.op)) {
        std::size_t uses = 0;
        std::size_t use_pc = 0;
        for (std::size_t q = pc + 1; q < n && uses < 2; ++q) {
          if (reached[q] == 0) continue;
          const Instr& user = fn.code[q];
          const std::uint16_t* ua = fn.arg_pool.data() + user.args_off;
          for (std::size_t i = 0; i < user.args_count; ++i) {
            if (ua[i] == in.dst) {
              ++uses;
              use_pc = q;
              break;
            }
          }
          if (writes_dst(user.op) && user.dst == in.dst) break;
        }
        if (uses == 1) {
          const Instr& user = fn.code[use_pc];
          if (user.op == Op::kReduce && user.depth == 0 &&
              std::binary_search(deaths[use_pc].begin(),
                                 deaths[use_pc].end(), in.dst)) {
            warn("M302",
                 "r" + std::to_string(in.dst) +
                     " is materialized only to feed the reduction at pc " +
                     std::to_string(use_pc) +
                     " (the fuser missed a fold)",
                 pc);
          }
        }
      }
    }
  }
  return out;
}

/// True when every resolved-summary dependency of `fn` is available:
/// all direct kCall targets resolved (self/mutual recursion never is).
bool callees_resolved(const Function& fn, std::size_t self,
                      const std::vector<char>& resolved) {
  for (const Instr& in : fn.code) {
    if (in.op != Op::kCall || in.aux < 0) continue;
    const auto callee = static_cast<std::size_t>(in.aux);
    if (callee == self || callee >= resolved.size() ||
        resolved[callee] == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

SymBound SymBound::plus(const SymBound& o) const {
  if (unbounded || o.unbounded) return top();
  return {sat_add(c0, o.c0), sat_add(c1, o.c1), false};
}

SymBound SymBound::max(const SymBound& o) const {
  if (unbounded || o.unbounded) return top();
  return {std::max(c0, o.c0), std::max(c1, o.c1), false};
}

SymBound SymBound::times(std::uint64_t k) const {
  if (unbounded) return top();
  return {sat_mul(c0, k), sat_mul(c1, k), false};
}

SymBound SymBound::compose(const SymBound& inner) const {
  if (unbounded) return top();
  if (c1 == 0) return *this;  // constant: no N to substitute
  if (inner.unbounded) return top();
  return {sat_add(c0, sat_mul(c1, inner.c0)), sat_mul(c1, inner.c1), false};
}

std::uint64_t SymBound::eval(std::uint64_t n) const {
  if (unbounded) return kSat;
  return sat_add(c0, sat_mul(c1, n));
}

std::string SymBound::to_text() const {
  if (unbounded) return "unbounded";
  if (c1 == 0) return std::to_string(c0);
  std::string s = std::to_string(c1) + "*N";
  if (c0 != 0) s = std::to_string(c0) + " + " + s;
  return s;
}

const char* slot_kind_name(SlotKind k) {
  switch (k) {
    case SlotKind::kInt:
      return "int";
    case SlotKind::kReal:
      return "real";
    case SlotKind::kBool:
      return "bool";
    case SlotKind::kUnknown:
      return "any";
  }
  return "any";
}

PlanResult plan_module(const vm::Module& m) {
  PlanResult out;
  const std::size_t n = m.functions.size();
  std::vector<Summary> summaries(n);
  std::vector<char> resolved(n, 0);

  // Bottom-up summary resolution; anything in a call cycle stays
  // unresolved and composes as unbounded.
  for (std::size_t pass = 0; pass <= n; ++pass) {
    bool progress = false;
    Analyzer analyzer(m, summaries, resolved);
    for (std::size_t f = 0; f < n; ++f) {
      if (resolved[f] != 0) continue;
      if (!callees_resolved(m.functions[f], f, resolved)) continue;
      summaries[f] = analyzer.analyze(f, nullptr).summary;
      resolved[f] = 1;
      progress = true;
    }
    if (!progress) break;
  }

  Analyzer analyzer(m, summaries, resolved);
  out.plan.functions.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    out.plan.functions[f] = analyzer.analyze(f, &out.report).plan;
  }
  return out;
}

std::uint64_t input_scale(const std::vector<kernels::VValue>& args) {
  std::uint64_t n = 0;
  for (const kernels::VValue& v : args) {
    if (v.is_seq()) {
      n = sat_add(n, static_cast<std::uint64_t>(
                         std::max<seq::Size>(0, v.as_seq().leaf_count())));
    } else if (v.is_tuple()) {
      n = sat_add(n, input_scale(v.as_tuple()));
    }
  }
  return n;
}

std::string plan_to_text(const FunctionPlan& plan) {
  std::string s;
  s += "// memory plan: peak <= " + plan.peak_bytes.to_text() +
       " bytes, " + std::to_string(plan.static_allocs) + " static allocs, " +
       std::to_string(plan.slots.size()) + " slots\n";
  for (std::size_t i = 0; i < plan.slots.size(); ++i) {
    s += "//   slot " + std::to_string(i) + ": " +
         slot_kind_name(plan.slots[i].kind) +
         ", elems <= " + plan.slots[i].elems.to_text();
    std::string regs;
    for (std::size_t r = 0; r < plan.reg_slot.size(); ++r) {
      if (plan.reg_slot[r] == static_cast<std::int32_t>(i)) {
        if (!regs.empty()) regs += ',';
        regs += 'r';
        regs += std::to_string(r);
      }
    }
    if (!regs.empty()) s += "  <- " + regs;
    s += "\n";
  }
  return s;
}

}  // namespace proteus::analysis
