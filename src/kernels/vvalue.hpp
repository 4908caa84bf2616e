// vvalue.hpp — runtime values of the vector-model engine (the bytecode VM
// of vm/).
//
// Where the reference interpreter boxes every element, these engines keep
// each sequence in the flat vector representation of Section 4.1: a VValue
// sequence holds one seq::Array describing all its elements at once. The
// depth-1 primitive kernels of prims.hpp operate on these arrays with vl
// primitives — one vector operation per program operation, which is the
// essence of the vector model.
#pragma once

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "interp/value.hpp"
#include "lang/types.hpp"
#include "seq/seq.hpp"

namespace proteus::kernels {

using seq::Array;
using vl::Int;
using vl::Real;
using vl::Size;

/// A vector-model runtime value.
class VValue {
 public:
  VValue() : node_(Int{0}) {}

  static VValue ints(Int v) { return VValue(std::in_place_type<Int>, v); }
  static VValue reals(Real v) { return VValue(std::in_place_type<Real>, v); }
  static VValue bools(bool v) { return VValue(std::in_place_type<bool>, v); }
  static VValue seq(Array elements) {
    return VValue(std::in_place_type<SeqRep>, std::move(elements));
  }
  static VValue tuple(std::vector<VValue> components) {
    return VValue(std::in_place_type<TupleRep>, std::move(components));
  }
  static VValue fun(std::string name) {
    return VValue(std::in_place_type<FunRep>, std::move(name));
  }

  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<Int>(node_);
  }
  [[nodiscard]] bool is_real() const {
    return std::holds_alternative<Real>(node_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(node_);
  }
  [[nodiscard]] bool is_seq() const {
    return std::holds_alternative<SeqRep>(node_);
  }
  [[nodiscard]] bool is_tuple() const {
    return std::holds_alternative<TupleRep>(node_);
  }
  [[nodiscard]] bool is_fun() const {
    return std::holds_alternative<FunRep>(node_);
  }

  [[nodiscard]] Int as_int() const;
  [[nodiscard]] Real as_real() const;
  [[nodiscard]] bool as_bool() const;
  /// The element array of a sequence value.
  [[nodiscard]] const Array& as_seq() const;
  /// Destructively takes the element array out of a sequence value; the
  /// fused evaluator uses this to consume a dying register's buffer.
  [[nodiscard]] Array take_seq() &&;
  [[nodiscard]] const std::vector<VValue>& as_tuple() const;
  [[nodiscard]] const std::string& fun_name() const;

 private:
  struct SeqRep {
    Array elements;
  };
  struct TupleRep {
    std::vector<VValue> components;
  };
  struct FunRep {
    std::string name;
  };
  using Node = std::variant<Int, Real, bool, SeqRep, TupleRep, FunRep>;

  // Builds the alternative in place: moving a temporary Node instead
  // trips GCC 12's -Wmaybe-uninitialized once inlined under -fsanitize.
  template <class T, class... Args>
  explicit VValue(std::in_place_type_t<T> tag, Args&&... args)
      : node_(tag, std::forward<Args>(args)...) {}

  Node node_;
};

/// The empty element array for elements of static type `elem` (used by
/// empty literals and rule R2d's empty_frame).
[[nodiscard]] Array empty_array_of(const lang::TypePtr& elem);

/// n copies of the depth-0 value `v` as an element array (replication of a
/// broadcast argument; Section 3's depth-0 -> depth-d conversion at the
/// representation level).
[[nodiscard]] Array materialize(const VValue& v, Size n);

/// Element i of `a`, unboxed to a depth-0 VValue.
[[nodiscard]] VValue element_value(const Array& a, Size i);

// --- conversions to/from the interpreter's boxed values -----------------------

/// Boxed -> vector-model, guided by the value's static type.
[[nodiscard]] VValue from_boxed(const interp::Value& v,
                                const lang::TypePtr& type);

/// Vector-model -> boxed, guided by the value's static type.
[[nodiscard]] interp::Value to_boxed(const VValue& v,
                                     const lang::TypePtr& type);

}  // namespace proteus::kernels
