#include "seq/ops.hpp"

#include <algorithm>
#include <numeric>

#include "vl/vl.hpp"

namespace proteus::seq {

namespace {

void require_same_structure(const Array& a, const Array& b, const char* op) {
  PROTEUS_REQUIRE(RepresentationError, same_structure(a, b),
                  std::string(op) + ": arrays have different element structure");
}

bool is_leaf(const Array& a) {
  return a.kind() == Array::Kind::kInt || a.kind() == Array::Kind::kReal ||
         a.kind() == Array::Kind::kBool;
}

/// Runs a flat vl kernel on scalar leaves of `kind`: `f` gets the accessor
/// of that kind's value vector and returns the result vector, which comes
/// back wrapped as a leaf of the same kind.
template <typename F>
Array on_leaf(Array::Kind kind, F&& f) {
  switch (kind) {
    case Array::Kind::kInt:
      return Array::ints(
          f([](const Array& x) -> const IntVec& { return x.int_values(); }));
    case Array::Kind::kReal:
      return Array::reals(
          f([](const Array& x) -> const RealVec& { return x.real_values(); }));
    case Array::Kind::kBool:
      return Array::bools(
          f([](const Array& x) -> const BoolVec& { return x.bool_values(); }));
    case Array::Kind::kTuple:
    case Array::Kind::kNested:
      break;
  }
  throw RepresentationError("structural kernel: not a scalar leaf");
}

/// The work the composed nested gather spends on its position vector,
///   positions = seg_dist(starts, lens) + (segment_ranks(lens) - 1),
/// over `n` selected segments holding `total` elements. The direct path
/// copies the segments instead of building it.
void charge_gather_positions(Size n, Size total) {
  vl::VectorStats& st = vl::stats();
  st.record(n);  // seg_dist: lengths_total(lens)
  st.record_segments(n);
  st.record(n);  //           lengths_to_offsets(lens)
  st.record(total);
  st.record(n);  // segment_ranks: lengths_total(lens)
  st.record_segments(n);
  st.record(n);  //                lengths_to_offsets(lens)
  st.record(total);
  st.record_segments(n);
  st.record(total);  // ranks - 1
  st.record(total);  // base + ...
}

Array gather_ranges(const Array& a, const IntVec& starts, const IntVec& lens);

/// One sequence level of a gather: the selected segments have lengths
/// `lens` and start at `starts` in `inner`.
Array gather_level(const Array& inner, IntVec lens, const IntVec& starts) {
  const Size total = std::accumulate(lens.begin(), lens.end(), Size{0});
  charge_gather_positions(lens.size(), total);
  Array elems = gather_ranges(inner, starts, lens);
  return Array::nested(std::move(lens), std::move(elems));
}

/// Elements [starts[i], starts[i] + lens[i]) of `a`, concatenated: the
/// composed gather(a, positions) with those ranges as its positions, and
/// charged as that gather.
Array gather_ranges(const Array& a, const IntVec& starts, const IntVec& lens) {
  switch (a.kind()) {
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) {
        comps.push_back(gather_ranges(c, starts, lens));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      IntVec inner_lens = vl::gather_segments(a.lengths(), starts, lens);
      IntVec inner_starts = vl::gather_segments(
          vl::lengths_to_offsets(a.lengths()), starts, lens);
      return gather_level(a.inner(), std::move(inner_lens), inner_starts);
    }
    default:
      return on_leaf(a.kind(), [&](auto values) {
        return vl::gather_segments(values(a), starts, lens);
      });
  }
}

Size true_count(const BoolVec& mask) {
  return std::count_if(mask.begin(), mask.end(),
                       [](Bool b) { return b != 0; });
}

}  // namespace

Array gather(const Array& a, const IntVec& idx) {
  switch (a.kind()) {
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) comps.push_back(gather(c, idx));
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      // Select whole segments: their lengths and source starts, then copy.
      IntVec lens = vl::gather(a.lengths(), idx);
      IntVec starts = vl::gather(vl::lengths_to_offsets(a.lengths()), idx);
      return gather_level(a.inner(), std::move(lens), starts);
    }
    default:
      return on_leaf(a.kind(),
                     [&](auto values) { return vl::gather(values(a), idx); });
  }
}

Array pack(const Array& a, const BoolVec& mask) {
  PROTEUS_REQUIRE(VectorError, a.length() == mask.size(),
                  "restrict: sequence and mask lengths differ");
  if (!is_leaf(a)) return gather(a, vl::pack_indices(mask));
  // Composed: gather(a, pack_indices(mask)). vl::pack charges the scan and
  // the pass of pack_indices; its iota and the gather are charged here.
  vl::stats().record(mask.size());
  Array out = on_leaf(a.kind(),
                      [&](auto values) { return vl::pack(values(a), mask); });
  vl::stats().record(out.length());
  return out;
}

Array combine(const BoolVec& mask, const Array& t, const Array& f) {
  require_same_structure(t, f, "combine");
  PROTEUS_REQUIRE(VectorError, mask.size() == t.length() + f.length(),
                  "combine: #M must equal #V + #U");
  PROTEUS_REQUIRE(VectorError, true_count(mask) == t.length(),
                  "combine: mask true-count does not match #V");
  if (is_leaf(t)) {
    // Composed: gather(concat(t, f), pos). vl::combine charges the rank
    // scan and the position pass; the concat and the gather are charged
    // here.
    Array out = on_leaf(t.kind(), [&](auto values) {
      return vl::combine(mask, values(t), values(f));
    });
    vl::stats().record(mask.size());
    vl::stats().record(mask.size());
    return out;
  }
  // Source index into concat(t, f), in one branch-free pass with two
  // cursors: a true lane takes t's next element (at `rank`, the true
  // lanes before it), a false lane f's (at #t + the false lanes before
  // it). The model charges the rank scan and then the position pass.
  const Size n = mask.size();
  const Bool* mp = mask.data();
  IntVec pos(n);
  Int* pp = pos.data();
  vl::stats().record(n);
  Int rank = 0;
  for (Size i = 0; i < n; ++i) {
    const Int m = mp[i] != 0 ? 1 : 0;
    const Int from_f = t.length() + (i - rank);
    pp[i] = from_f + m * (rank - from_f);
    rank += m;
  }
  vl::stats().record(n);
  return gather(concat(t, f), pos);
}

Array concat(const Array& a, const Array& b) {
  require_same_structure(a, b, "concat");
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(vl::concat(a.int_values(), b.int_values()));
    case Array::Kind::kReal:
      return Array::reals(vl::concat(a.real_values(), b.real_values()));
    case Array::Kind::kBool:
      return Array::bools(vl::concat(a.bool_values(), b.bool_values()));
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (std::size_t c = 0; c < a.components().size(); ++c) {
        comps.push_back(concat(a.components()[c], b.components()[c]));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return Array::nested(vl::concat(a.lengths(), b.lengths()),
                           concat(a.inner(), b.inner()));
  }
  throw RepresentationError("concat: corrupt array kind");
}

Array empty_like(const Array& a) {
  switch (a.kind()) {
    case Array::Kind::kInt:
      return Array::ints(IntVec{});
    case Array::Kind::kReal:
      return Array::reals(RealVec{});
    case Array::Kind::kBool:
      return Array::bools(BoolVec{});
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (const Array& c : a.components()) comps.push_back(empty_like(c));
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return Array::nested(IntVec{}, empty_like(a.inner()));
  }
  throw RepresentationError("empty_like: corrupt array kind");
}

Array broadcast_element(const Array& a, Size i, Size n) {
  PROTEUS_REQUIRE(VectorError, i >= 0 && i < a.length(),
                  "broadcast_element: index out of range");
  return gather(a, vl::dist(Int{i}, n));
}

void charge_broadcast_row(Size len, Size n) {
  // gather(nested([len], v), dist(0, n)): the nested gather's selection of
  // n lengths and starts, then one level of `len`-element segments.
  vl::VectorStats& st = vl::stats();
  st.record(n);  // dist(0, n)
  st.record(n);  // gather(lengths, idx)
  st.record(1);  // lengths_to_offsets(lengths)
  st.record(n);  // gather(offsets, idx)
  charge_gather_positions(n, n * len);
  st.record(n * len);  // gather_segments
  st.record(n);        // Array::nested checks the n lengths
  st.record_segments(n);
}

Array seg_broadcast(const Array& a, const IntVec& counts) {
  PROTEUS_REQUIRE(VectorError, a.length() == counts.size(),
                  "dist: value and count sequences must have equal length");
  if (!is_leaf(a)) {
    return gather(a, vl::seg_dist(vl::iota(a.length(), 0), counts));
  }
  // Composed: gather(a, seg_dist(iota(#a), counts)). vl::seg_dist charges
  // the distribute; the iota and the gather are charged here.
  vl::stats().record(a.length());
  Array out = on_leaf(a.kind(), [&](auto values) {
    return vl::seg_dist(values(a), counts);
  });
  vl::stats().record(out.length());
  return out;
}

void charge_seg_broadcast(Size n, Size total) {
  // The scalar-leaf path of seg_broadcast: iota, vl::seg_dist (whose
  // lengths_total and lengths_to_offsets charge the counts), the gather.
  vl::VectorStats& st = vl::stats();
  st.record(n);  // iota(#a)
  st.record(n);  // seg_dist: lengths_total(counts)
  st.record_segments(n);
  st.record(n);      //           lengths_to_offsets(counts)
  st.record(total);  //           the distribute
  st.record(total);  // gather
}

Array element(const Array& a, Size i) { return broadcast_element(a, i, 1); }

Array slice(const Array& a, Size lo, Size len) {
  PROTEUS_REQUIRE(VectorError, lo >= 0 && len >= 0 && lo + len <= a.length(),
                  "slice: range out of bounds");
  return gather(a, vl::iota(len, lo));
}

bool same_structure(const Array& a, const Array& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Array::Kind::kInt:
    case Array::Kind::kReal:
    case Array::Kind::kBool:
      return true;
    case Array::Kind::kTuple: {
      if (a.components().size() != b.components().size()) return false;
      for (std::size_t c = 0; c < a.components().size(); ++c) {
        if (!same_structure(a.components()[c], b.components()[c])) {
          return false;
        }
      }
      return true;
    }
    case Array::Kind::kNested:
      return same_structure(a.inner(), b.inner());
  }
  return false;
}

}  // namespace proteus::seq
