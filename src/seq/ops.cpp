#include "seq/ops.hpp"

#include <algorithm>
#include <numeric>

#include "vl/kernel.hpp"
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

/// The same part (a tuple component, the inner array) of each of `arrays`.
template <typename Part>
std::vector<const Array*> each_part(const std::vector<const Array*>& arrays,
                                    Part part) {
  std::vector<const Array*> out;
  out.reserve(arrays.size());
  for (const Array* a : arrays) out.push_back(&part(*a));
  return out;
}

const Array& inner_of(const Array& a) { return a.inner(); }

/// The ranges' elements of the scalar leaves values(base), in output
/// order: one copy per range (off[i] is where range i starts in the
/// output), the ranges of a group on one thread.
template <typename T, typename Values>
vl::Vec<T> copy_ranges(const std::vector<const Array*>& bases,
                       const Ranges& r, const IntVec& off, Values values) {
  std::vector<const T*> src;
  src.reserve(bases.size());
  for (const Array* b : bases) src.push_back(values(*b).data());
  const Size k = static_cast<Size>(r.from.size());
  vl::Vec<T> out(off[r.len.size()]);
  const Int* sp = r.start.data();
  const Int* lp = r.len.data();
  const Int* op = off.data();
  T* dst = out.data();
  vl::detail::parallel_for(r.len.size() / k, [&](Size g) {
    for (Size j = 0; j < k; ++j) {
      const Size at = g * k + j;
      const T* from = src[r.from[static_cast<std::size_t>(j)]] + sp[at];
      if (lp[at] == 1) {  // single elements skip the library call
        dst[op[at]] = *from;
      } else {
        std::copy_n(from, lp[at], dst + op[at]);
      }
    }
  });
  return out;
}

/// The elements of `parts` (one element structure), concatenated and
/// charged as one binary seq::concat of that many elements: the inner
/// level first, then the lengths and their descriptor check.
Array concat_parts(const std::vector<const Array*>& parts) {
  Size total = 0;
  for (const Array* p : parts) total += p->length();
  const auto copy = [&](auto values) {
    std::decay_t<decltype(values(*parts.front()))> out(total);
    Size at = 0;
    for (const Array* p : parts) {
      const auto* vp = values(*p).data();
      auto* dst = out.data() + at;
      vl::detail::parallel_for(p->length(), [&](Size i) { dst[i] = vp[i]; });
      at += p->length();
    }
    vl::stats().record(total);
    return out;
  };
  switch (parts.front()->kind()) {
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      const std::size_t arity = parts.front()->components().size();
      comps.reserve(arity);
      for (std::size_t c = 0; c < arity; ++c) {
        comps.push_back(concat_parts(each_part(
            parts, [c](const Array& p) -> const Array& {
              return p.components()[c];
            })));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      Array inner = concat_parts(each_part(parts, inner_of));
      IntVec lens = copy([](const Array& p) -> const IntVec& {
        return p.lengths();
      });
      return Array::nested(std::move(lens), std::move(inner));
    }
    default:
      return on_leaf(parts.front()->kind(), copy);
  }
}

/// concat_parts's records, with no data moved.
void charge_concat_parts(const std::vector<const Array*>& parts) {
  Size total = 0;
  for (const Array* p : parts) total += p->length();
  vl::VectorStats& st = vl::stats();
  switch (parts.front()->kind()) {
    case Array::Kind::kTuple:
      for (std::size_t c = 0; c < parts.front()->components().size(); ++c) {
        charge_concat_parts(
            each_part(parts, [c](const Array& p) -> const Array& {
              return p.components()[c];
            }));
      }
      return;
    case Array::Kind::kNested:
      charge_concat_parts(each_part(parts, inner_of));
      st.record(total);  // the lengths
      st.record(total);  // Array::nested checks them
      st.record_segments(total);
      return;
    default:
      st.record(total);
      return;
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
      Ranges r{{0}, vl::gather(vl::lengths_to_offsets(a.lengths()), idx), lens};
      charge_gather_positions(lens.size(),
                              std::accumulate(lens.begin(), lens.end(), Size{0}));
      Array elems = gather_ranges({&a.inner()}, r);
      return Array::nested(std::move(lens), std::move(elems));
    }
    default:
      return on_leaf(a.kind(),
                     [&](auto values) { return vl::gather(values(a), idx); });
  }
}

Array gather_ranges(const std::vector<const Array*>& bases, const Ranges& r) {
  const Array& a = *bases.front();
  switch (a.kind()) {
    case Array::Kind::kTuple: {
      std::vector<Array> comps;
      comps.reserve(a.components().size());
      for (std::size_t c = 0; c < a.components().size(); ++c) {
        comps.push_back(gather_ranges(
            each_part(bases, [c](const Array& b) -> const Array& {
              return b.components()[c];
            }),
            r));
      }
      return Array::tuple(std::move(comps));
    }
    case Array::Kind::kNested: {
      // The selected segments' lengths, then the ranges they cover one
      // level down: range [s, s + n) of a base spans its inner elements
      // [offsets[s], offsets[s + n]).
      const IntVec off = vl::detail::exclusive_offsets(r.len);
      const Size sel = off[r.len.size()];
      Size source = 0;
      for (const Array* b : bases) source += b->length();
      vl::VectorStats& st = vl::stats();
      st.record(sel);     // the selected lengths
      st.record(source);  // lengths_to_offsets(lengths)
      st.record(sel);     // the selected starts
      IntVec lens = copy_ranges<Int>(
          bases, r, off,
          [](const Array& b) -> const IntVec& { return b.lengths(); });
      std::vector<IntVec> starts;
      starts.reserve(bases.size());
      for (const Array* b : bases) {
        starts.push_back(vl::detail::exclusive_offsets(b->lengths()));
      }
      const Size k = static_cast<Size>(r.from.size());
      Ranges next{r.from, IntVec(r.len.size()), IntVec(r.len.size())};
      vl::detail::parallel_for(r.len.size() / k, [&](Size g) {
        for (Size j = 0; j < k; ++j) {
          const Size at = g * k + j;
          const Int* o = starts[r.from[static_cast<std::size_t>(j)]].data();
          const Int lo = o[r.start[at]];
          next.start[at] = lo;
          next.len[at] = o[r.start[at] + r.len[at]] - lo;
        }
      });
      charge_gather_positions(
          sel, std::accumulate(lens.begin(), lens.end(), Size{0}));
      Array elems = gather_ranges(each_part(bases, inner_of), next);
      return Array::nested(std::move(lens), std::move(elems));
    }
    default: {
      const IntVec off = vl::detail::exclusive_offsets(r.len);
      Array out = on_leaf(a.kind(), [&](auto values) {
        using V = std::decay_t<decltype(values(a))>;
        return copy_ranges<typename V::value_type>(bases, r, off, values);
      });
      vl::stats().record(out.length());
      return out;
    }
  }
}

void charge_gather_each(const Array& a) {
  const Size n = a.length();
  vl::VectorStats& st = vl::stats();
  switch (a.kind()) {
    case Array::Kind::kTuple:
      for (const Array& c : a.components()) charge_gather_each(c);
      return;
    case Array::Kind::kNested:
      st.record(n);  // the selected lengths
      st.record(n);  // lengths_to_offsets(lengths)
      st.record(n);  // the selected starts
      charge_gather_positions(n, a.inner().length());
      charge_gather_each(a.inner());
      st.record(n);  // Array::nested checks the lengths
      st.record_segments(n);
      return;
    default:
      st.record(n);
      return;
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

Array concat(const Array& a, const Array& b) { return concat({&a, &b}); }

Array concat(const std::vector<const Array*>& parts) {
  for (const Array* p : parts) {
    require_same_structure(*parts.front(), *p, "concat");
  }
  return concat_parts(parts);
}

void charge_concat(const std::vector<const Array*>& parts) {
  require_same_structure(*parts.front(), *parts.back(), "concat");
  charge_concat_parts(parts);
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
  st.record(n * len);  // the selected elements
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
