#include "kernels/fused.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "rt/governor.hpp"
#include "vl/kernel.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels {

using lang::Prim;
using vl::Bool;
using vl::BoolVec;
using vl::Int;
using vl::IntVec;
using vl::Real;
using vl::RealVec;
using vl::Size;

bool fusible_prim(Prim p) {
  return static_cast<int>(p) <= static_cast<int>(Prim::kSqrt);
}

std::size_t fused_prim_count(const FusedExpr& e) {
  std::size_t count = 0;
  for (const MicroOp& mo : e.nodes) {
    if (mo.kind == MicroOp::Kind::kPrim) count += 1;
  }
  return count;
}

namespace {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

/// Scalar kinds flowing through a chain; kOther marks values the unfused
/// kernels would reject at dispatch (tuples, nested frames, broadcast
/// aggregates) so the same "no depth-1 ... kernel" diagnostic fires.
enum class K : std::uint8_t { kInt, kReal, kBool, kOther };

constexpr Size kBlock = 2048;

constexpr std::size_t elem_size(K k) {
  return k == K::kBool ? sizeof(Bool) : sizeof(Int);
}

/// The typed per-lane kernels, one per (prim, operand-kind) pair the
/// unfused ew_unary/ew_binary tables accept.
enum class Kern : std::uint8_t {
  kAddI, kSubI, kMulI, kDivI, kModI, kMinI, kMaxI,
  kEqI, kNeI, kLtI, kLeI, kGtI, kGeI,
  kAddR, kSubR, kMulR, kDivR, kMinR, kMaxR,
  kEqR, kNeR, kLtR, kLeR, kGtR, kGeR,
  kAndB, kOrB, kEqB, kNeB,
  kNegI, kNegR, kToReal, kToInt, kSqrtR, kNotB,
};

struct KernSel {
  Kern kern{};
  K out = K::kOther;
  const char* len_name = nullptr;  ///< vl kernel name for the length check
  bool two_records = false;        ///< Bool eq = not(xor): two vl records
};

bool select_binary(Prim p, K ka, K kb, KernSel& sel) {
  if (ka == K::kInt && kb == K::kInt) {
    switch (p) {
      case Prim::kAdd: sel = {Kern::kAddI, K::kInt, "add", false}; return true;
      case Prim::kSub: sel = {Kern::kSubI, K::kInt, "sub", false}; return true;
      case Prim::kMul: sel = {Kern::kMulI, K::kInt, "mul", false}; return true;
      case Prim::kDiv: sel = {Kern::kDivI, K::kInt, "div", false}; return true;
      case Prim::kMod: sel = {Kern::kModI, K::kInt, "mod", false}; return true;
      case Prim::kMin: sel = {Kern::kMinI, K::kInt, "min", false}; return true;
      case Prim::kMax: sel = {Kern::kMaxI, K::kInt, "max", false}; return true;
      case Prim::kEq: sel = {Kern::kEqI, K::kBool, "eq", false}; return true;
      case Prim::kNe: sel = {Kern::kNeI, K::kBool, "ne", false}; return true;
      case Prim::kLt: sel = {Kern::kLtI, K::kBool, "lt", false}; return true;
      case Prim::kLe: sel = {Kern::kLeI, K::kBool, "le", false}; return true;
      case Prim::kGt: sel = {Kern::kGtI, K::kBool, "gt", false}; return true;
      case Prim::kGe: sel = {Kern::kGeI, K::kBool, "ge", false}; return true;
      default: return false;
    }
  }
  if (ka == K::kReal && kb == K::kReal) {
    switch (p) {
      case Prim::kAdd: sel = {Kern::kAddR, K::kReal, "add", false}; return true;
      case Prim::kSub: sel = {Kern::kSubR, K::kReal, "sub", false}; return true;
      case Prim::kMul: sel = {Kern::kMulR, K::kReal, "mul", false}; return true;
      case Prim::kDiv: sel = {Kern::kDivR, K::kReal, "div", false}; return true;
      case Prim::kMin: sel = {Kern::kMinR, K::kReal, "min", false}; return true;
      case Prim::kMax: sel = {Kern::kMaxR, K::kReal, "max", false}; return true;
      case Prim::kEq: sel = {Kern::kEqR, K::kBool, "eq", false}; return true;
      case Prim::kNe: sel = {Kern::kNeR, K::kBool, "ne", false}; return true;
      case Prim::kLt: sel = {Kern::kLtR, K::kBool, "lt", false}; return true;
      case Prim::kLe: sel = {Kern::kLeR, K::kBool, "le", false}; return true;
      case Prim::kGt: sel = {Kern::kGtR, K::kBool, "gt", false}; return true;
      case Prim::kGe: sel = {Kern::kGeR, K::kBool, "ge", false}; return true;
      default: return false;
    }
  }
  if (ka == K::kBool && kb == K::kBool) {
    switch (p) {
      case Prim::kAnd: sel = {Kern::kAndB, K::kBool, "and", false}; return true;
      case Prim::kOr: sel = {Kern::kOrB, K::kBool, "or", false}; return true;
      // Unfused Bool eq/ne route through logical_xor (length-checked as
      // "xor"); eq adds the logical_not pass on top.
      case Prim::kEq: sel = {Kern::kEqB, K::kBool, "xor", true}; return true;
      case Prim::kNe: sel = {Kern::kNeB, K::kBool, "xor", false}; return true;
      default: return false;
    }
  }
  return false;
}

bool select_unary(Prim p, K ka, KernSel& sel) {
  switch (p) {
    case Prim::kNeg:
      if (ka == K::kInt) { sel = {Kern::kNegI, K::kInt, nullptr, false}; return true; }
      if (ka == K::kReal) { sel = {Kern::kNegR, K::kReal, nullptr, false}; return true; }
      return false;
    case Prim::kToReal:
      if (ka == K::kInt) { sel = {Kern::kToReal, K::kReal, nullptr, false}; return true; }
      return false;
    case Prim::kToInt:
      if (ka == K::kReal) { sel = {Kern::kToInt, K::kInt, nullptr, false}; return true; }
      return false;
    case Prim::kSqrt:
      if (ka == K::kReal) { sel = {Kern::kSqrtR, K::kReal, nullptr, false}; return true; }
      return false;
    case Prim::kNot:
      if (ka == K::kBool) { sel = {Kern::kNotB, K::kBool, nullptr, false}; return true; }
      return false;
    default:
      return false;
  }
}

/// How a kernel operand is addressed inside a block.
struct OpRef {
  enum class Tag : std::uint8_t { kFrame, kSplat, kScratch };
  Tag tag = Tag::kFrame;
  const void* base = nullptr;  ///< kFrame: leaf data; kSplat: splat buffer
  std::size_t off = 0;         ///< kScratch: byte offset into the arena
  std::size_t esize = 0;       ///< kFrame: element size for start scaling
};

struct NodePlan {
  Kern kern{};
  bool binary = false;
  bool is_root = false;
  OpRef a, b;
  std::size_t dst_off = 0;  ///< scratch offset (non-root)
};

struct NodeInfo {
  K kind = K::kOther;
  Size len = 0;
  bool is_vec = false;         ///< vector-valued (seq leaf or interior)
  bool resolved = false;       ///< leaf: as_seq / scalar payload resolved
  const void* data = nullptr;  ///< vector leaf data base
  Int iv = 0;
  Real rv = 0;
  Bool bv = 0;
};

template <typename T, typename R, typename F>
inline void loop2(const void* a, const void* b, void* d, Size len, F&& f) {
  const T* x = static_cast<const T*>(a);
  const T* y = static_cast<const T*>(b);
  R* r = static_cast<R*>(d);
  for (Size i = 0; i < len; ++i) r[i] = f(x[i], y[i]);
}

template <typename T, typename R, typename F>
inline void loop1(const void* a, void* d, Size len, F&& f) {
  const T* x = static_cast<const T*>(a);
  R* r = static_cast<R*>(d);
  for (Size i = 0; i < len; ++i) r[i] = f(x[i]);
}

void run_kern(Kern k, const void* a, const void* b, void* d, Size len) {
  using vl::detail::checked_div;
  using vl::detail::checked_mod;
  switch (k) {
    case Kern::kAddI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return x + y; }); return;
    case Kern::kSubI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return x - y; }); return;
    case Kern::kMulI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return x * y; }); return;
    case Kern::kDivI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return checked_div(x, y); }); return;
    case Kern::kModI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return checked_mod(x, y); }); return;
    case Kern::kMinI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return x < y ? x : y; }); return;
    case Kern::kMaxI: loop2<Int, Int>(a, b, d, len, [](Int x, Int y) { return x < y ? y : x; }); return;
    case Kern::kEqI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x == y ? 1 : 0); }); return;
    case Kern::kNeI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x != y ? 1 : 0); }); return;
    case Kern::kLtI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x < y ? 1 : 0); }); return;
    case Kern::kLeI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x <= y ? 1 : 0); }); return;
    case Kern::kGtI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x > y ? 1 : 0); }); return;
    case Kern::kGeI: loop2<Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x >= y ? 1 : 0); }); return;
    case Kern::kAddR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x + y; }); return;
    case Kern::kSubR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x - y; }); return;
    case Kern::kMulR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x * y; }); return;
    case Kern::kDivR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x / y; }); return;
    case Kern::kMinR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x < y ? x : y; }); return;
    case Kern::kMaxR: loop2<Real, Real>(a, b, d, len, [](Real x, Real y) { return x < y ? y : x; }); return;
    case Kern::kEqR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x == y ? 1 : 0); }); return;
    case Kern::kNeR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x != y ? 1 : 0); }); return;
    case Kern::kLtR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x < y ? 1 : 0); }); return;
    case Kern::kLeR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x <= y ? 1 : 0); }); return;
    case Kern::kGtR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x > y ? 1 : 0); }); return;
    case Kern::kGeR: loop2<Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x >= y ? 1 : 0); }); return;
    case Kern::kAndB: loop2<Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((x && y) ? 1 : 0); }); return;
    case Kern::kOrB: loop2<Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((x || y) ? 1 : 0); }); return;
    case Kern::kEqB: loop2<Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((!x != !y) ? 0 : 1); }); return;
    case Kern::kNeB: loop2<Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((!x != !y) ? 1 : 0); }); return;
    case Kern::kNegI: loop1<Int, Int>(a, d, len, [](Int x) { return -x; }); return;
    case Kern::kNegR: loop1<Real, Real>(a, d, len, [](Real x) { return -x; }); return;
    case Kern::kToReal: loop1<Int, Real>(a, d, len, [](Int x) { return static_cast<Real>(x); }); return;
    case Kern::kToInt: loop1<Real, Int>(a, d, len, [](Real x) { return static_cast<Int>(x); }); return;
    case Kern::kSqrtR: loop1<Real, Real>(a, d, len, [](Real x) { return std::sqrt(x); }); return;
    case Kern::kNotB: loop1<Bool, Bool>(a, d, len, [](Bool x) { return Bool(x ? 0 : 1); }); return;
  }
}

[[noreturn]] void corrupt() {
  eval_fail("fused: malformed micro-expression (verifier bypassed?)");
}

}  // namespace

VValue eval_fused(const FusedExpr& e, std::vector<VValue> inputs) {
  const std::size_t n_nodes = e.nodes.size();
  if (n_nodes == 0 || n_nodes > kMaxFusedNodes ||
      inputs.size() != e.n_inputs() ||
      e.nodes.back().kind != MicroOp::Kind::kPrim) {
    corrupt();
  }

  // --- analysis: kinds, frame lengths, kernels, cost-model emulation ----
  //
  // Walks interior nodes in post-order (= original instruction order) and
  // replays, per node, exactly what apply_prim1 would have done for the
  // unfused instruction: frame length from the first lifted operand,
  // broadcast replication (a vl dist record each), kernel dispatch by
  // operand kind, the vl length check, and the kernel's own work record.
  // Every diagnostic string matches the unfused path's.
  std::vector<NodeInfo> info(n_nodes);
  std::vector<NodePlan> plan(n_nodes);

  const auto resolve_leaf = [&](std::size_t c) -> NodeInfo& {
    NodeInfo& ni = info[c];
    if (ni.resolved) return ni;
    const MicroOp& mo = e.nodes[c];
    const std::uint8_t flags = e.input_flags[mo.input];
    const VValue& v = inputs[mo.input];
    if ((flags & kFusedBroadcast) != 0) {
      ni.is_vec = false;
      if (v.is_int()) {
        ni.kind = K::kInt;
        ni.iv = v.as_int();
      } else if (v.is_real()) {
        ni.kind = K::kReal;
        ni.rv = v.as_real();
      } else if (v.is_bool()) {
        ni.kind = K::kBool;
        ni.bv = v.as_bool() ? 1 : 0;
      } else if (v.is_fun()) {
        eval_fail("function values cannot be replicated into frames");
      } else {
        ni.kind = K::kOther;  // seq/tuple broadcast: kernel dispatch fails
      }
    } else {
      ni.is_vec = true;
      const Array& arr = v.as_seq();  // may throw, as apply_prim1's scan does
      ni.len = arr.length();
      switch (arr.kind()) {
        case Array::Kind::kInt:
          ni.kind = K::kInt;
          ni.data = arr.int_values().data();
          break;
        case Array::Kind::kReal:
          ni.kind = K::kReal;
          ni.data = arr.real_values().data();
          break;
        case Array::Kind::kBool:
          ni.kind = K::kBool;
          ni.data = arr.bool_values().data();
          break;
        default:
          ni.kind = K::kOther;  // tuple/nested frame: kernel dispatch fails
          break;
      }
    }
    ni.resolved = true;
    return ni;
  };

  vl::VectorStats& st = vl::stats();
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const MicroOp& mo = e.nodes[k];
    if (mo.kind == MicroOp::Kind::kInput) {
      if (mo.input >= inputs.size()) corrupt();
      continue;
    }
    if (!fusible_prim(mo.prim)) corrupt();
    const bool binary = lang::prim_arity(mo.prim) == 2;
    const std::size_t ca = mo.a;
    const std::size_t cb = mo.b;
    if (ca >= k || (binary && cb >= k)) corrupt();
    const auto is_vec_child = [&](std::size_t c) {
      return e.nodes[c].kind == MicroOp::Kind::kPrim ||
             (e.input_flags[e.nodes[c].input] & kFusedBroadcast) == 0;
    };
    // Frame length from the first lifted (vector) operand, in order.
    std::size_t first_vec = n_nodes;
    if (is_vec_child(ca)) {
      first_vec = ca;
    } else if (binary && is_vec_child(cb)) {
      first_vec = cb;
    }
    PROTEUS_REQUIRE(EvalError, first_vec < n_nodes,
                    "depth-1 extension applied with no frame argument");
    if (e.nodes[first_vec].kind == MicroOp::Kind::kInput) {
      (void)resolve_leaf(first_vec);
    }
    const Size n_frame = info[first_vec].len;
    // Replicate broadcast operands (a vl dist record each), resolve the
    // rest, in operand order.
    const std::size_t n_children = binary ? 2 : 1;
    for (std::size_t ci = 0; ci < n_children; ++ci) {
      const std::size_t c = ci == 0 ? ca : cb;
      if (e.nodes[c].kind == MicroOp::Kind::kPrim) continue;
      const NodeInfo& ni = resolve_leaf(c);
      if (!ni.is_vec && ni.kind != K::kOther) st.record(n_frame);
    }
    // Kernel dispatch by operand kind, then the vl length check.
    KernSel sel;
    if (binary) {
      if (!select_binary(mo.prim, info[ca].kind, info[cb].kind, sel)) {
        eval_fail(std::string("no depth-1 binary kernel for '") +
                  lang::prim_name(mo.prim) + "'");
      }
      const Size la = info[ca].is_vec ? info[ca].len : n_frame;
      const Size lb = info[cb].is_vec ? info[cb].len : n_frame;
      PROTEUS_REQUIRE(VectorError, la == lb,
                      std::string(sel.len_name) +
                          ": operand lengths differ (" + std::to_string(la) +
                          " vs " + std::to_string(lb) + ")");
      st.record(la);
      if (sel.two_records) st.record(la);
      info[k] = NodeInfo{};
      info[k].kind = sel.out;
      info[k].len = la;
    } else {
      if (!select_unary(mo.prim, info[ca].kind, sel)) {
        eval_fail(std::string("no depth-1 unary kernel for '") +
                  lang::prim_name(mo.prim) + "'");
      }
      const Size la = info[ca].is_vec ? info[ca].len : n_frame;
      st.record(la);
      info[k] = NodeInfo{};
      info[k].kind = sel.out;
      info[k].len = la;
    }
    info[k].is_vec = true;
    info[k].resolved = true;
    plan[k].kern = sel.kern;
    plan[k].binary = binary;
    plan[k].is_root = k == n_nodes - 1;
  }

  const std::size_t root = n_nodes - 1;
  const K out_kind = info[root].kind;
  const Size n = info[root].len;

  // --- output buffer: reuse a dying input in place when we own it -------
  IntVec out_i;
  RealVec out_r;
  BoolVec out_b;
  bool stolen = false;
  for (std::size_t s = 0; s < inputs.size() && !stolen; ++s) {
    if ((e.input_flags[s] & kFusedLastUse) == 0) continue;
    if ((e.input_flags[s] & kFusedBroadcast) != 0) continue;
    if (!inputs[s].is_seq()) continue;
    const Array& arr = inputs[s].as_seq();
    if (arr.length() != n) continue;
    Array owned = std::move(inputs[s]).take_seq();
    switch (out_kind) {
      case K::kInt: stolen = owned.steal_values(out_i); break;
      case K::kReal: stolen = owned.steal_values(out_r); break;
      case K::kBool: stolen = owned.steal_values(out_b); break;
      case K::kOther: break;
    }
    // Leaf data pointers resolved above stay valid either way: a vector
    // move keeps the heap buffer, and a failed steal puts the spine back.
    if (!stolen) inputs[s] = VValue::seq(std::move(owned));
  }
  if (!stolen) {
    switch (out_kind) {
      case K::kInt: out_i = IntVec(n); break;
      case K::kReal: out_r = RealVec(n); break;
      case K::kBool: out_b = BoolVec(n); break;
      case K::kOther: corrupt();
    }
    st.record_alloc();  // the chain's single full-length allocation
  }
  void* out_base = nullptr;
  switch (out_kind) {
    case K::kInt: out_base = out_i.data(); break;
    case K::kReal: out_base = out_r.data(); break;
    case K::kBool: out_base = out_b.data(); break;
    case K::kOther: corrupt();
  }
  const std::size_t out_esize = elem_size(out_kind);

  // --- block plan: scratch offsets, splat buffers, operand refs ---------
  std::size_t arena_bytes = 0;
  std::vector<std::vector<std::byte>> splats(n_nodes);
  std::vector<std::size_t> scratch_off(n_nodes, 0);
  const Size block = std::min<Size>(kBlock, n);
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const MicroOp& mo = e.nodes[k];
    if (mo.kind == MicroOp::Kind::kPrim) {
      if (k != root) {
        scratch_off[k] = arena_bytes;
        arena_bytes +=
            (static_cast<std::size_t>(block) * elem_size(info[k].kind) + 7) &
            ~std::size_t{7};
      }
      continue;
    }
    if (!info[k].resolved || info[k].is_vec || block == 0) continue;
    // Broadcast scalar: fill one block-sized splat so every kernel loop
    // reads uniform pointers. O(block) scratch, not a frame allocation.
    auto& buf = splats[k];
    buf.resize(static_cast<std::size_t>(block) * elem_size(info[k].kind));
    switch (info[k].kind) {
      case K::kInt: {
        Int* p = reinterpret_cast<Int*>(buf.data());
        std::fill(p, p + block, info[k].iv);
        break;
      }
      case K::kReal: {
        Real* p = reinterpret_cast<Real*>(buf.data());
        std::fill(p, p + block, info[k].rv);
        break;
      }
      case K::kBool: {
        Bool* p = reinterpret_cast<Bool*>(buf.data());
        std::fill(p, p + block, info[k].bv);
        break;
      }
      case K::kOther: break;
    }
  }

  std::vector<std::size_t> interior;
  interior.reserve(n_nodes);
  const auto make_ref = [&](std::size_t c) {
    OpRef r;
    if (e.nodes[c].kind == MicroOp::Kind::kPrim) {
      r.tag = OpRef::Tag::kScratch;
      r.off = scratch_off[c];
    } else if (info[c].is_vec) {
      r.tag = OpRef::Tag::kFrame;
      r.base = info[c].data;
      r.esize = elem_size(info[c].kind);
    } else {
      r.tag = OpRef::Tag::kSplat;
      r.base = splats[c].data();
    }
    return r;
  };
  for (std::size_t k = 0; k < n_nodes; ++k) {
    if (e.nodes[k].kind != MicroOp::Kind::kPrim) continue;
    plan[k].a = make_ref(e.nodes[k].a);
    if (plan[k].binary) plan[k].b = make_ref(e.nodes[k].b);
    interior.push_back(k);
  }

  // --- the single pass --------------------------------------------------
  const auto resolve = [](const OpRef& r, std::byte* arena,
                          Size start) -> const void* {
    switch (r.tag) {
      case OpRef::Tag::kFrame:
        return static_cast<const std::byte*>(r.base) +
               static_cast<std::size_t>(start) * r.esize;
      case OpRef::Tag::kSplat:
        return r.base;
      case OpRef::Tag::kScratch:
        return arena + r.off;
    }
    return nullptr;
  };
  const auto run_block = [&](Size start, std::byte* arena) {
    const Size len = std::min<Size>(kBlock, n - start);
    for (const std::size_t k : interior) {
      const NodePlan& np = plan[k];
      const void* pa = resolve(np.a, arena, start);
      const void* pb = np.binary ? resolve(np.b, arena, start) : nullptr;
      void* pd = np.is_root
                     ? static_cast<void*>(
                           static_cast<std::byte*>(out_base) +
                           static_cast<std::size_t>(start) * out_esize)
                     : static_cast<void*>(arena + np.dst_off);
      run_kern(np.kern, pa, pb, pd, len);
    }
  };
  for (const std::size_t k : interior) plan[k].dst_off = scratch_off[k];

  const Size n_blocks = n == 0 ? 0 : (n + kBlock - 1) / kBlock;
  // Governor check points: throwing across an OpenMP region would
  // terminate the process, so inside the parallel loop threads only
  // *observe* a deferred trip and skip their remaining blocks; the
  // serial polls before/after the region raise the trap.
  rt::poll("fused");
#ifdef _OPENMP
  if (vl::detail::use_threads(n)) {
#pragma omp parallel
    {
      std::vector<std::byte> arena(arena_bytes);
#pragma omp for schedule(static)
      for (Size b = 0; b < n_blocks; ++b) {
        if (!rt::tripped()) run_block(b * kBlock, arena.data());
      }
    }
  } else
#endif
  {
    std::vector<std::byte> arena(arena_bytes);
    for (Size b = 0; b < n_blocks; ++b) {
      rt::poll("fused");
      run_block(b * kBlock, arena.data());
    }
  }
  rt::poll("fused");

  switch (out_kind) {
    case K::kInt: return VValue::seq(Array::ints(std::move(out_i)));
    case K::kReal: return VValue::seq(Array::reals(std::move(out_r)));
    case K::kBool: return VValue::seq(Array::bools(std::move(out_b)));
    case K::kOther: break;
  }
  corrupt();
}

}  // namespace proteus::kernels
