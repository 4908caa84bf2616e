// elementwise.hpp — elementwise (per-position) vector primitives.
//
// These are the depth-1 parallel extensions of the scalar functions of
// Table 2 of the paper: +, -, *, /, mod, comparisons, boolean connectives,
// min/max, negation, and the three-way select used by flattened
// conditionals. Each comes in vector(x)vector and vector(x)scalar forms —
// the scalar forms implement the Section 4.5 optimization of not
// replicating depth-0 argument frames.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "vl/kernel.hpp"
#include "vl/vec.hpp"

namespace proteus::vl {

namespace detail {

template <typename R, typename T, typename F>
Vec<R> map(const Vec<T>& a, F&& f) {
  Vec<R> out(a.size());
  const T* ap = a.data();
  R* op = out.data();
  parallel_for(a.size(), [&](Size i) { op[i] = f(ap[i]); });
  stats().record(a.size());
  stats().record_alloc();
  return out;
}

template <typename R, typename T, typename U, typename F>
Vec<R> zip(const Vec<T>& a, const Vec<U>& b, const char* name, F&& f) {
  require_same_length(a, b, name);
  Vec<R> out(a.size());
  const T* ap = a.data();
  const U* bp = b.data();
  R* op = out.data();
  parallel_for(a.size(), [&](Size i) { op[i] = f(ap[i], bp[i]); });
  stats().record(a.size());
  stats().record_alloc();
  return out;
}

template <typename R, typename T, typename U, typename F>
Vec<R> zip_vs(const Vec<T>& a, U b, F&& f) {
  Vec<R> out(a.size());
  const T* ap = a.data();
  R* op = out.data();
  parallel_for(a.size(), [&](Size i) { op[i] = f(ap[i], b); });
  stats().record(a.size());
  stats().record_alloc();
  return out;
}

template <typename R, typename T, typename U, typename F>
Vec<R> zip_sv(T a, const Vec<U>& b, F&& f) {
  Vec<R> out(b.size());
  const U* bp = b.data();
  R* op = out.data();
  parallel_for(b.size(), [&](Size i) { op[i] = f(a, bp[i]); });
  stats().record(b.size());
  stats().record_alloc();
  return out;
}

[[noreturn]] void throw_div_by_zero();
[[noreturn]] void throw_mod_by_zero();

/// a / b, truncating. INT64_MIN / -1 wraps to INT64_MIN, as the other
/// overflowing Int operations do; the negation is done unsigned, so the
/// one overflowing quotient is never computed in signed arithmetic.
inline Int checked_div(Int a, Int b) {
  if (b == 0) throw_div_by_zero();
  if (b == -1) {
    return static_cast<Int>(std::uint64_t{0} - static_cast<std::uint64_t>(a));
  }
  return a / b;
}

/// a mod b, with the sign of a. Any a mod -1 is exactly 0 (INT64_MIN % -1
/// would overflow the implied quotient).
inline Int checked_mod(Int a, Int b) {
  if (b == 0) throw_mod_by_zero();
  if (b == -1) return 0;
  return a % b;
}

inline Real checked_div(Real a, Real b) { return a / b; }

}  // namespace detail

// --- arithmetic (Int and Real) ---------------------------------------------

template <typename T>
Vec<T> add(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "add", [](T x, T y) { return x + y; });
}
template <typename T>
Vec<T> add(const Vec<T>& a, T b) {
  return detail::zip_vs<T>(a, b, [](T x, T y) { return x + y; });
}

template <typename T>
Vec<T> sub(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "sub", [](T x, T y) { return x - y; });
}
template <typename T>
Vec<T> sub(const Vec<T>& a, T b) {
  return detail::zip_vs<T>(a, b, [](T x, T y) { return x - y; });
}
template <typename T>
Vec<T> sub(T a, const Vec<T>& b) {
  return detail::zip_sv<T>(a, b, [](T x, T y) { return x - y; });
}

template <typename T>
Vec<T> mul(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "mul", [](T x, T y) { return x * y; });
}
template <typename T>
Vec<T> mul(const Vec<T>& a, T b) {
  return detail::zip_vs<T>(a, b, [](T x, T y) { return x * y; });
}

template <typename T>
Vec<T> div(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "div",
                        [](T x, T y) { return detail::checked_div(x, y); });
}
template <typename T>
Vec<T> div(const Vec<T>& a, T b) {
  return detail::zip_vs<T>(a, b,
                           [](T x, T y) { return detail::checked_div(x, y); });
}

inline IntVec mod(const IntVec& a, const IntVec& b) {
  return detail::zip<Int>(
      a, b, "mod", [](Int x, Int y) { return detail::checked_mod(x, y); });
}
inline IntVec mod(const IntVec& a, Int b) {
  return detail::zip_vs<Int>(
      a, b, [](Int x, Int y) { return detail::checked_mod(x, y); });
}

template <typename T>
Vec<T> neg(const Vec<T>& a) {
  return detail::map<T>(a, [](T x) { return -x; });
}

template <typename T>
Vec<T> abs(const Vec<T>& a) {
  return detail::map<T>(a, [](T x) { return x < 0 ? -x : x; });
}

template <typename T>
Vec<T> min(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "min", [](T x, T y) { return x < y ? x : y; });
}

template <typename T>
Vec<T> max(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<T>(a, b, "max", [](T x, T y) { return x < y ? y : x; });
}

// --- comparisons (yield BoolVec) -------------------------------------------

template <typename T>
BoolVec lt(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "lt",
                           [](T x, T y) { return Bool(x < y ? 1 : 0); });
}
template <typename T>
BoolVec lt(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x < y ? 1 : 0); });
}

template <typename T>
BoolVec le(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "le",
                           [](T x, T y) { return Bool(x <= y ? 1 : 0); });
}
template <typename T>
BoolVec le(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x <= y ? 1 : 0); });
}

template <typename T>
BoolVec gt(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "gt",
                           [](T x, T y) { return Bool(x > y ? 1 : 0); });
}
template <typename T>
BoolVec gt(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x > y ? 1 : 0); });
}

template <typename T>
BoolVec ge(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "ge",
                           [](T x, T y) { return Bool(x >= y ? 1 : 0); });
}
template <typename T>
BoolVec ge(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x >= y ? 1 : 0); });
}

template <typename T>
BoolVec eq(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "eq",
                           [](T x, T y) { return Bool(x == y ? 1 : 0); });
}
template <typename T>
BoolVec eq(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x == y ? 1 : 0); });
}

template <typename T>
BoolVec ne(const Vec<T>& a, const Vec<T>& b) {
  return detail::zip<Bool>(a, b, "ne",
                           [](T x, T y) { return Bool(x != y ? 1 : 0); });
}
template <typename T>
BoolVec ne(const Vec<T>& a, T b) {
  return detail::zip_vs<Bool>(a, b,
                              [](T x, T y) { return Bool(x != y ? 1 : 0); });
}

// --- boolean connectives ----------------------------------------------------

inline BoolVec logical_not(const BoolVec& a) {
  return detail::map<Bool>(a, [](Bool x) { return Bool(x ? 0 : 1); });
}

inline BoolVec logical_and(const BoolVec& a, const BoolVec& b) {
  return detail::zip<Bool>(
      a, b, "and", [](Bool x, Bool y) { return Bool((x && y) ? 1 : 0); });
}

inline BoolVec logical_or(const BoolVec& a, const BoolVec& b) {
  return detail::zip<Bool>(
      a, b, "or", [](Bool x, Bool y) { return Bool((x || y) ? 1 : 0); });
}

inline BoolVec logical_xor(const BoolVec& a, const BoolVec& b) {
  return detail::zip<Bool>(a, b, "xor", [](Bool x, Bool y) {
    return Bool((!x != !y) ? 1 : 0);
  });
}

// --- select ------------------------------------------------------------------

/// select(m, a, b)[i] == m[i] ? a[i] : b[i]; all three conformable.
template <typename T>
Vec<T> select(const BoolVec& m, const Vec<T>& a, const Vec<T>& b) {
  require_same_length(m, a, "select");
  require_same_length(m, b, "select");
  Vec<T> out(m.size());
  const Bool* mp = m.data();
  const T* ap = a.data();
  const T* bp = b.data();
  T* op = out.data();
  detail::parallel_for(m.size(), [&](Size i) { op[i] = mp[i] ? ap[i] : bp[i]; });
  stats().record(m.size());
  stats().record_alloc();
  return out;
}

/// Elementwise square root (Real only).
inline RealVec sqrt(const RealVec& a) {
  return detail::map<Real>(a, [](Real x) { return std::sqrt(x); });
}

/// Int -> Real widening (used by the mixed-arithmetic overloads of P).
inline RealVec to_real(const IntVec& a) {
  return detail::map<Real>(a, [](Int x) { return static_cast<Real>(x); });
}

/// Real -> Int truncation.
inline IntVec to_int(const RealVec& a) {
  return detail::map<Int>(a, [](Real x) { return static_cast<Int>(x); });
}

}  // namespace proteus::vl
