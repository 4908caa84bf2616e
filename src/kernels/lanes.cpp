#include "kernels/lanes.hpp"

#include <cmath>
#include <string>

#include "vl/elementwise.hpp"

namespace proteus::kernels {

using lang::Prim;
using vl::Bool;
using vl::Int;
using vl::Real;
using vl::Size;

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
      // Bool eq/ne are the vl library's logical_xor (length-checked as
      // "xor"); eq charges the logical_not pass on top.
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

namespace {

/// The lane loops; an operand flagged SA/SB is one value every lane reads.
template <bool SA, bool SB, typename T, typename R, typename F>
inline void loop2(const void* a, const void* b, void* d, Size len, F&& f) {
  const T* x = static_cast<const T*>(a);
  const T* y = static_cast<const T*>(b);
  R* r = static_cast<R*>(d);
  for (Size i = 0; i < len; ++i) r[i] = f(x[SA ? 0 : i], y[SB ? 0 : i]);
}

template <bool SA, typename T, typename R, typename F>
inline void loop1(const void* a, void* d, Size len, F&& f) {
  const T* x = static_cast<const T*>(a);
  R* r = static_cast<R*>(d);
  for (Size i = 0; i < len; ++i) r[i] = f(x[SA ? 0 : i]);
}

template <bool SA, bool SB>
void run_kern(Kern k, const void* a, const void* b, void* d, Size len) {
  using vl::detail::add_wrap;
  using vl::detail::checked_div;
  using vl::detail::checked_mod;
  using vl::detail::mul_wrap;
  using vl::detail::neg_wrap;
  using vl::detail::sub_wrap;
  switch (k) {
    case Kern::kAddI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return add_wrap(x, y); }); return;
    case Kern::kSubI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return sub_wrap(x, y); }); return;
    case Kern::kMulI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return mul_wrap(x, y); }); return;
    case Kern::kDivI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return checked_div(x, y); }); return;
    case Kern::kModI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return checked_mod(x, y); }); return;
    case Kern::kMinI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return x < y ? x : y; }); return;
    case Kern::kMaxI: loop2<SA, SB, Int, Int>(a, b, d, len, [](Int x, Int y) { return x < y ? y : x; }); return;
    case Kern::kEqI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x == y ? 1 : 0); }); return;
    case Kern::kNeI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x != y ? 1 : 0); }); return;
    case Kern::kLtI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x < y ? 1 : 0); }); return;
    case Kern::kLeI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x <= y ? 1 : 0); }); return;
    case Kern::kGtI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x > y ? 1 : 0); }); return;
    case Kern::kGeI: loop2<SA, SB, Int, Bool>(a, b, d, len, [](Int x, Int y) { return Bool(x >= y ? 1 : 0); }); return;
    case Kern::kAddR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x + y; }); return;
    case Kern::kSubR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x - y; }); return;
    case Kern::kMulR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x * y; }); return;
    case Kern::kDivR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x / y; }); return;
    case Kern::kMinR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x < y ? x : y; }); return;
    case Kern::kMaxR: loop2<SA, SB, Real, Real>(a, b, d, len, [](Real x, Real y) { return x < y ? y : x; }); return;
    case Kern::kEqR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x == y ? 1 : 0); }); return;
    case Kern::kNeR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x != y ? 1 : 0); }); return;
    case Kern::kLtR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x < y ? 1 : 0); }); return;
    case Kern::kLeR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x <= y ? 1 : 0); }); return;
    case Kern::kGtR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x > y ? 1 : 0); }); return;
    case Kern::kGeR: loop2<SA, SB, Real, Bool>(a, b, d, len, [](Real x, Real y) { return Bool(x >= y ? 1 : 0); }); return;
    case Kern::kAndB: loop2<SA, SB, Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((x && y) ? 1 : 0); }); return;
    case Kern::kOrB: loop2<SA, SB, Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((x || y) ? 1 : 0); }); return;
    case Kern::kEqB: loop2<SA, SB, Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((!x != !y) ? 0 : 1); }); return;
    case Kern::kNeB: loop2<SA, SB, Bool, Bool>(a, b, d, len, [](Bool x, Bool y) { return Bool((!x != !y) ? 1 : 0); }); return;
    case Kern::kNegI: loop1<SA, Int, Int>(a, d, len, [](Int x) { return neg_wrap(x); }); return;
    case Kern::kNegR: loop1<SA, Real, Real>(a, d, len, [](Real x) { return -x; }); return;
    case Kern::kToReal: loop1<SA, Int, Real>(a, d, len, [](Int x) { return static_cast<Real>(x); }); return;
    case Kern::kToInt: loop1<SA, Real, Int>(a, d, len, [](Real x) { return static_cast<Int>(x); }); return;
    case Kern::kSqrtR: loop1<SA, Real, Real>(a, d, len, [](Real x) { return std::sqrt(x); }); return;
    case Kern::kNotB: loop1<SA, Bool, Bool>(a, d, len, [](Bool x) { return Bool(x ? 0 : 1); }); return;
  }
}

}  // namespace

void run_kern(Kern k, bool scalar_a, const void* a, bool scalar_b,
              const void* b, void* d, Size len) {
  if (scalar_a && scalar_b) {
    run_kern<true, true>(k, a, b, d, len);
  } else if (scalar_a) {
    run_kern<true, false>(k, a, b, d, len);
  } else if (scalar_b) {
    run_kern<false, true>(k, a, b, d, len);
  } else {
    run_kern<false, false>(k, a, b, d, len);
  }
}

void check_lane_lengths(const KernSel& sel, Size la, Size lb) {
  // vl::require_same_length's check of the vl call the kernel stands for,
  // with its text.
  if (la != lb) {
    throw VectorError(std::string(sel.len_name) +
                      ": operand lengths differ (" + std::to_string(la) +
                      " vs " + std::to_string(lb) +
                      ") [failed: a.size() == b.size()]");
  }
}

K leaf_kind(seq::Array::Kind k) {
  switch (k) {
    case seq::Array::Kind::kInt: return K::kInt;
    case seq::Array::Kind::kReal: return K::kReal;
    case seq::Array::Kind::kBool: return K::kBool;
    default: return K::kOther;
  }
}

const void* leaf_data(const seq::Array& a) {
  switch (a.kind()) {
    case seq::Array::Kind::kInt: return a.int_values().data();
    case seq::Array::Kind::kReal: return a.real_values().data();
    case seq::Array::Kind::kBool: return a.bool_values().data();
    default: return nullptr;
  }
}

}  // namespace proteus::kernels
