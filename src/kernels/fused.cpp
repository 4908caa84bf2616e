#include "kernels/fused.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>

#include "kernels/lanes.hpp"
#include "kernels/prims.hpp"
#include "rt/governor.hpp"
#include "seq/extract_insert.hpp"
#include "seq/ops.hpp"
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

namespace {

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

constexpr Size kBlock = 2048;

/// How a kernel operand is addressed inside a block.
struct OpRef {
  enum class Tag : std::uint8_t { kFrame, kTile, kScalar, kSegScalar, kScratch };
  Tag tag = Tag::kFrame;
  /// kFrame/kTile: leaf data; kScalar: the one value; kSegScalar: one
  /// value per segment.
  const void* base = nullptr;
  std::size_t off = 0;    ///< kScratch: byte offset into the arena
  std::size_t esize = 0;  ///< element size
  /// Every lane reads the same element (a broadcast, a segment splat).
  [[nodiscard]] bool scalar() const {
    return tag == Tag::kScalar || tag == Tag::kSegScalar;
  }
};

struct NodePlan {
  Kern kern{};
  bool binary = false;
  OpRef a, b;
  std::size_t dst_off = 0;  ///< scratch offset (unless it writes the output)
};

/// Where a leaf's elements come from.
enum class Src : std::uint8_t { kFrame, kScalar, kTile, kSegSplat };

struct NodeInfo {
  K kind = K::kOther;
  Src src = Src::kFrame;
  Size len = 0;
  bool is_vec = false;         ///< vector-valued (seq leaf or interior)
  bool resolved = false;       ///< leaf: as_seq / scalar payload resolved
  const void* data = nullptr;  ///< vector leaf data base
  Int iv = 0;
  Real rv = 0;
  Bool bv = 0;
};

/// The position of one block: `flat` is its first element in the chain's
/// index space; in a reduce-rooted chain it lies in segment `seg`,
/// starting `j0` elements into it.
struct Blk {
  Size flat = 0;
  Size seg = 0;
  Size j0 = 0;
  Size len = 0;
};

[[noreturn]] void corrupt() {
  eval_fail("fused: malformed micro-expression (verifier bypassed?)");
}

/// The array of a sequence of scalars, or null for anything else.
const Array* scalar_leaf(const VValue& v) {
  if (!v.is_seq()) return nullptr;
  const Array& a = v.as_seq();
  return leaf_kind(a.kind()) == K::kOther ? nullptr : &a;
}

/// A segmented reduce over blocks of the chain's root values: folds the
/// `len` values at x, one part of a segment, into the segment's running
/// value at acc (`first`: the segment's first part, which starts from
/// the identity). The fold is the seg_reduce_impl loop's, in the same
/// order, so sums of reals are bit-identical.
using Fold = void (*)(const void* x, Size len, bool first, void* acc);

/// acc combined with x[0..len) in order. The elements of a Bool chain
/// are 0 or 1, so or/and fold as branch-free bit operations.
template <typename T, typename Op>
T fold_range(T acc, const T* x, Size len) {
  if constexpr (std::is_same_v<Op, vl::detail::OrOp>) {
    Bool any = acc;
    for (Size j = 0; j < len; ++j) any |= x[j];
    return Bool(any != 0 ? 1 : 0);
  } else if constexpr (std::is_same_v<Op, vl::detail::AndOp>) {
    Bool all = acc;
    for (Size j = 0; j < len; ++j) all &= x[j];
    return Bool(all != 0 ? 1 : 0);
  } else {
    for (Size j = 0; j < len; ++j) acc = Op::combine(acc, x[j]);
    return acc;
  }
}

template <typename T, typename Op>
Fold make_fold() {
  return [](const void* x, Size len, bool first, void* acc) {
    T* a = static_cast<T*>(acc);
    *a = fold_range<T, Op>(first ? Op::identity() : *a,
                           static_cast<const T*>(x), len);
  };
}

/// The fold of reduce `p` over values of kind `k`, when the unfused
/// reduce accepts that kind.
bool select_fold(Prim p, K k, Fold& f) {
  using namespace vl::detail;
  switch (p) {
    case Prim::kSum:
      if (k == K::kInt) { f = make_fold<Int, AddOp<Int>>(); return true; }
      if (k == K::kReal) { f = make_fold<Real, AddOp<Real>>(); return true; }
      return false;
    case Prim::kMaxVal:
      if (k == K::kInt) { f = make_fold<Int, MaxOp<Int>>(); return true; }
      if (k == K::kReal) { f = make_fold<Real, MaxOp<Real>>(); return true; }
      return false;
    case Prim::kMinVal:
      if (k == K::kInt) { f = make_fold<Int, MinOp<Int>>(); return true; }
      if (k == K::kReal) { f = make_fold<Real, MinOp<Real>>(); return true; }
      return false;
    case Prim::kAnyV:
      if (k == K::kBool) { f = make_fold<Bool, OrOp>(); return true; }
      return false;
    case Prim::kAllV:
      if (k == K::kBool) { f = make_fold<Bool, AndOp>(); return true; }
      return false;
    default:
      corrupt();
  }
}

/// An empty array of kind `k`, through whose accessors a reduce refusing
/// that kind throws its own error.
Array empty_leaf(K k) {
  switch (k) {
    case K::kReal: return Array::reals(RealVec{});
    case K::kBool: return Array::bools(BoolVec{});
    default: return Array::ints(IntVec{});
  }
}

/// The segments of a reduce-rooted chain: the tile dist(v, n) and each
/// segment splat, replayed in their unfused order. Operands the fast
/// path can address charge through the seq:: helpers; any other is
/// built by the real kernel, whose records and errors are then the
/// unfused ones by construction.
struct Segments {
  Size nseg = 0;
  Size m = 0;
  const Array* tile = nullptr;      ///< fast tile: the v of dist(v, n)
  std::optional<Array> built_tile;  ///< otherwise the dist itself
  std::vector<std::optional<Array>> built_splat;  ///< per operand slot

  [[nodiscard]] IntVec lengths() const {
    return built_tile ? built_tile->lengths() : IntVec(nseg, m);
  }
  /// Elements in the segments (what insert checks the body against).
  [[nodiscard]] Size total() const {
    if (!built_tile) return nseg * m;
    return built_tile->kind() == Array::Kind::kNested
               ? built_tile->inner().length()
               : 0;
  }
};

void resolve_segments(const FusedExpr& e, const std::vector<VValue>& inputs,
                      Segments& sg) {
  // dist(v, n) at depth 0, as apply_prim0 runs it.
  const Array* v = scalar_leaf(inputs[0]);
  if (v != nullptr && inputs[1].is_int()) {
    const Int r = inputs[1].as_int();
    sg.tile = v;
    sg.nseg = r < 0 ? 0 : r;
    sg.m = v->length();
    charge_materialize_seq(sg.m, sg.nseg);
  } else {
    sg.built_tile =
        apply_prim0(Prim::kDist, {inputs[0], inputs[1]}).as_seq();
    const Array& t = *sg.built_tile;
    if (t.kind() == Array::Kind::kNested) {
      sg.nseg = t.length();
      sg.m = sg.nseg > 0 ? t.lengths()[0] : 0;  // n copies of one sequence
    }
  }
  // Each splat: length^1 of the tile, then dist^1(s, that).
  sg.built_splat.resize(inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    if ((e.input_flags[k] & kFusedSegSplat) == 0) continue;
    if (sg.built_tile) (void)sg.built_tile->lengths();  // length^1 throws
    const Array* s = scalar_leaf(inputs[k]);
    if (sg.tile != nullptr && s != nullptr && s->length() == sg.nseg) {
      charge_dist_1_uniform(sg.nseg, sg.m);
    } else {
      sg.built_splat[k] =
          apply_prim1(Prim::kDist,
                      {inputs[k], VValue::seq(Array::ints(sg.lengths()))},
                      {1, 1})
              .as_seq();
    }
  }
}

}  // namespace

bool fusible_reduce(Prim p) {
  return p == Prim::kSum || p == Prim::kMaxVal || p == Prim::kMinVal ||
         p == Prim::kAnyV || p == Prim::kAllV;
}

VValue eval_fused(const FusedExpr& e, std::vector<VValue> inputs) {
  const std::size_t n_nodes = e.nodes.size();
  if (n_nodes == 0 || n_nodes > kMaxFusedNodes ||
      inputs.size() != e.n_inputs() ||
      e.nodes.back().kind != MicroOp::Kind::kPrim) {
    corrupt();
  }
  const bool segmented = e.reduce.has_value();
  if (segmented &&
      (inputs.size() < 2 || !fusible_reduce(*e.reduce) ||
       (e.input_flags[0] & kFusedTile) == 0 ||
       (e.input_flags[1] & kFusedCount) == 0)) {
    corrupt();
  }
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const std::uint8_t flags = e.input_flags[s];
    const bool tile = (flags & kFusedTile) != 0;
    const bool count = (flags & kFusedCount) != 0;
    const bool splat = (flags & kFusedSegSplat) != 0;
    if (tile != (segmented && s == 0) || count != (segmented && s == 1) ||
        (splat && !segmented)) {
      corrupt();
    }
  }
  for (const std::uint8_t after : e.reinserts) {
    if (!segmented || after >= n_nodes ||
        e.nodes[after].kind != MicroOp::Kind::kPrim) {
      corrupt();
    }
  }
  const bool checks_segments =
      segmented && (*e.reduce == Prim::kMaxVal || *e.reduce == Prim::kMinVal);

  // --- analysis: kinds, frame lengths, kernels, cost-model emulation ----
  //
  // Replays, in the unfused order, what each absorbed instruction would
  // have done: the tile's dist and each splat's length^1/dist^1 first
  // (resolve_segments), then the extracts reading them, then per
  // elementwise node in post-order (= original instruction order)
  // exactly what apply_prim1 would have done: frame length from the first
  // lifted operand, broadcast replication (a vl dist record each), kernel
  // dispatch by operand kind, the vl length check, and the kernel's own
  // work record. Every diagnostic string matches the unfused path's.
  Segments sg;
  if (segmented) resolve_segments(e, inputs, sg);
  std::vector<NodeInfo> info(n_nodes);
  std::vector<NodePlan> plan(n_nodes);
  std::vector<std::optional<Array>> extracted(n_nodes);

  const auto frame_leaf = [](NodeInfo& ni, const Array& arr) {
    ni.is_vec = true;
    ni.src = Src::kFrame;
    ni.len = arr.length();
    ni.kind = leaf_kind(arr.kind());  // tuple/nested: kernel dispatch fails
    ni.data = leaf_data(arr);
  };
  const auto resolve_leaf = [&](std::size_t c) -> NodeInfo& {
    NodeInfo& ni = info[c];
    if (ni.resolved) return ni;
    const MicroOp& mo = e.nodes[c];
    const std::uint8_t flags = e.input_flags[mo.input];
    const VValue& v = inputs[mo.input];
    if ((flags & kFusedTile) != 0) {
      if (sg.tile != nullptr) {
        ni.is_vec = true;
        ni.src = Src::kTile;
        ni.len = sg.nseg * sg.m;
        ni.kind = leaf_kind(sg.tile->kind());
        ni.data = leaf_data(*sg.tile);
      } else {
        extracted[c] = seq::extract(*sg.built_tile, 1);
        frame_leaf(ni, *extracted[c]);
      }
    } else if ((flags & kFusedSegSplat) != 0) {
      if (sg.built_splat[mo.input]) {
        extracted[c] = seq::extract(*sg.built_splat[mo.input], 1);
        frame_leaf(ni, *extracted[c]);
      } else {
        const Array& s = v.as_seq();
        ni.is_vec = true;
        ni.src = Src::kSegSplat;
        ni.len = sg.nseg * sg.m;
        ni.kind = leaf_kind(s.kind());
        ni.data = leaf_data(s);
      }
    } else if ((flags & kFusedBroadcast) != 0) {
      ni.is_vec = false;
      ni.src = Src::kScalar;
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
      frame_leaf(ni, v.as_seq());  // may throw, as apply_prim1's scan does
    }
    ni.resolved = true;
    return ni;
  };

  // The extracts of the tile and the splats precede every elementwise
  // instruction of the chain.
  for (std::size_t k = 0; k < n_nodes && segmented; ++k) {
    const MicroOp& mo = e.nodes[k];
    if (mo.kind != MicroOp::Kind::kInput) continue;
    if (mo.input >= inputs.size()) corrupt();
    if ((e.input_flags[mo.input] & kFusedCount) != 0) corrupt();
    if ((e.input_flags[mo.input] & (kFusedTile | kFusedSegSplat)) != 0) {
      (void)resolve_leaf(k);
    }
  }

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
      check_lane_lengths(sel, la, lb);
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
    // An insert between two members: Array::nested checks the segments.
    for (const std::uint8_t after : e.reinserts) {
      if (after != k) continue;
      st.record(sg.nseg);
      st.record_segments(sg.nseg);
    }
  }

  const std::size_t root = n_nodes - 1;
  const K root_kind = info[root].kind;
  const Size n = info[root].len;  // elements the chain computes

  // insert(body, tile) and the reduce's own operand check, as unfused.
  Fold fold = nullptr;
  if (segmented) {
    const bool nested = !sg.built_tile ||
                        sg.built_tile->kind() == Array::Kind::kNested;
    if (!nested || n != sg.total()) {
      // Let insert raise its own error over stand-ins of the same shape.
      const Array frame =
          sg.built_tile ? *sg.built_tile
                        : Array::nested(sg.lengths(),
                                        Array::bools(BoolVec(sg.total())));
      (void)seq::insert(Array::bools(BoolVec(n)), frame, 1);
      corrupt();
    }
    st.record(sg.nseg);  // the final insert's Array::nested
    st.record_segments(sg.nseg);
    if (!select_fold(*e.reduce, root_kind, fold)) {
      if (checks_segments) check_reduce_segments(*e.reduce, sg.lengths());
      const Array standin = empty_leaf(root_kind);
      if (*e.reduce == Prim::kAnyV || *e.reduce == Prim::kAllV) {
        (void)standin.bool_values();
      } else {
        (void)standin.int_values();
      }
      corrupt();
    }
  }
  const Size nseg = sg.nseg;
  const Size m = sg.m;

  // --- output buffer: reuse a dying input in place when we own it -------
  const K out_kind = root_kind;
  const Size out_len = segmented ? nseg : n;
  IntVec out_i;
  RealVec out_r;
  BoolVec out_b;
  bool stolen = false;
  for (std::size_t s = 0; s < inputs.size() && !stolen && !segmented; ++s) {
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
      case K::kInt: out_i = IntVec(out_len); break;
      case K::kReal: out_r = RealVec(out_len); break;
      case K::kBool: out_b = BoolVec(out_len); break;
      case K::kOther: corrupt();
    }
    // The chain's single full-length allocation; a segmented reduce's
    // output is the reduce's, which vl does not count either.
    if (!segmented) st.record_alloc();
  }
  void* out_base = nullptr;
  switch (out_kind) {
    case K::kInt: out_base = out_i.data(); break;
    case K::kReal: out_base = out_r.data(); break;
    case K::kBool: out_base = out_b.data(); break;
    case K::kOther: corrupt();
  }
  const std::size_t out_esize = elem_size(out_kind);

  // --- block plan: scratch offsets and operand refs ---------------------
  //
  // A reduce-rooted chain runs one segment per work item, block by block;
  // its root writes to scratch and the fold reduces each block into the
  // segment's output slot.
  const Size block = std::min<Size>(kBlock, n);
  std::size_t arena_bytes = 0;
  std::vector<std::size_t> scratch_off(n_nodes, 0);
  for (std::size_t k = 0; k < n_nodes; ++k) {
    if (e.nodes[k].kind != MicroOp::Kind::kPrim || (k == root && !segmented)) {
      continue;
    }
    scratch_off[k] = arena_bytes;
    arena_bytes +=
        (static_cast<std::size_t>(block) * elem_size(info[k].kind) + 7) &
        ~std::size_t{7};
  }

  std::vector<std::size_t> interior;
  interior.reserve(n_nodes);
  const auto make_ref = [&](std::size_t c) {
    OpRef r;
    const NodeInfo& ni = info[c];
    r.esize = elem_size(ni.kind);
    if (e.nodes[c].kind == MicroOp::Kind::kPrim) {
      r.tag = OpRef::Tag::kScratch;
      r.off = scratch_off[c];
    } else if (ni.src == Src::kTile) {
      r.tag = OpRef::Tag::kTile;
      r.base = ni.data;
    } else if (ni.src == Src::kSegSplat) {
      r.tag = OpRef::Tag::kSegScalar;
      r.base = ni.data;
    } else if (ni.is_vec) {
      r.tag = OpRef::Tag::kFrame;
      r.base = ni.data;
    } else {
      r.tag = OpRef::Tag::kScalar;
      switch (ni.kind) {
        case K::kInt: r.base = &ni.iv; break;
        case K::kReal: r.base = &ni.rv; break;
        default: r.base = &ni.bv; break;
      }
    }
    return r;
  };
  for (std::size_t k = 0; k < n_nodes; ++k) {
    if (e.nodes[k].kind != MicroOp::Kind::kPrim) continue;
    plan[k].a = make_ref(e.nodes[k].a);
    if (plan[k].binary) plan[k].b = make_ref(e.nodes[k].b);
    plan[k].dst_off = scratch_off[k];
    interior.push_back(k);
  }

  // --- the single pass --------------------------------------------------
  const auto resolve = [](const OpRef& r, std::byte* arena,
                          const Blk& at) -> const void* {
    const auto* base = static_cast<const std::byte*>(r.base);
    switch (r.tag) {
      case OpRef::Tag::kFrame:
        return base + static_cast<std::size_t>(at.flat) * r.esize;
      case OpRef::Tag::kTile:
        return base + static_cast<std::size_t>(at.j0) * r.esize;
      case OpRef::Tag::kScalar:
        return base;
      case OpRef::Tag::kSegScalar:
        return base + static_cast<std::size_t>(at.seg) * r.esize;
      case OpRef::Tag::kScratch:
        return arena + r.off;
    }
    return nullptr;
  };
  const auto run_nodes = [&](const Blk& at, std::byte* arena) {
    for (const std::size_t k : interior) {
      const NodePlan& np = plan[k];
      const void* pa = resolve(np.a, arena, at);
      const void* pb = np.binary ? resolve(np.b, arena, at) : nullptr;
      void* pd = k == root && !segmented
                     ? static_cast<void*>(
                           static_cast<std::byte*>(out_base) +
                           static_cast<std::size_t>(at.flat) * out_esize)
                     : static_cast<void*>(arena + np.dst_off);
      run_kern(np.kern, np.a.scalar(), pa, np.b.scalar(), pb, pd, at.len);
    }
  };
  // One work item: a block of the flat chain, or every block of one
  // segment.
  const auto run_item = [&](Size item, std::byte* arena) {
    if (!segmented) {
      Blk at;
      at.flat = item * kBlock;
      at.len = std::min<Size>(kBlock, n - at.flat);
      run_nodes(at, arena);
      return;
    }
    void* acc = static_cast<std::byte*>(out_base) +
                static_cast<std::size_t>(item) * out_esize;
    Blk at;
    at.seg = item;
    do {  // an empty segment folds nothing into the identity
      at.flat = item * m + at.j0;
      at.len = std::min<Size>(kBlock, m - at.j0);
      if (at.len > 0) run_nodes(at, arena);
      fold(arena + scratch_off[root], at.len, at.j0 == 0, acc);
      at.j0 += kBlock;
    } while (at.j0 < m);
  };

  const Size n_items =
      segmented ? nseg : n == 0 ? 0 : (n + kBlock - 1) / kBlock;
  // Governor check points, one per work item: a trap raised inside a
  // threaded block leaves the region like a kernel error (division by
  // zero), rethrown by for_blocks.
  rt::poll("fused");
  vl::detail::for_blocks(
      n_items, vl::detail::block_count(n), [&](Size, Size lo, Size hi) {
        std::vector<std::byte> arena(arena_bytes);
        for (Size b = lo; b < hi; ++b) {
          rt::poll("fused");
          run_item(b, arena.data());
        }
      });
  rt::poll("fused");

  if (segmented) {
    // The reduce: its segment check, then seg_reduce_impl's records.
    if (checks_segments) check_reduce_segments(*e.reduce, sg.lengths());
    st.record(n);
    st.record_segments(nseg);
  }

  switch (out_kind) {
    case K::kInt: return VValue::seq(Array::ints(std::move(out_i)));
    case K::kReal: return VValue::seq(Array::reals(std::move(out_r)));
    case K::kBool: return VValue::seq(Array::bools(std::move(out_b)));
    case K::kOther: break;
  }
  corrupt();
}

}  // namespace proteus::kernels
