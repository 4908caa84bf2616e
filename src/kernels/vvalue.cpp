#include "kernels/vvalue.hpp"

#include "vl/check.hpp"
#include "vl/vl.hpp"

namespace proteus::kernels {

using lang::TypeKind;
using lang::TypePtr;

Int VValue::as_int() const {
  const Int* v = std::get_if<Int>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not an int");
  return *v;
}

Real VValue::as_real() const {
  const Real* v = std::get_if<Real>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a real");
  return *v;
}

bool VValue::as_bool() const {
  const bool* v = std::get_if<bool>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a bool");
  return *v;
}

const Array& VValue::as_seq() const {
  const SeqRep* v = std::get_if<SeqRep>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a sequence");
  return v->elements;
}

Array VValue::take_seq() && {
  SeqRep* v = std::get_if<SeqRep>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a sequence");
  return std::move(v->elements);
}

const std::vector<VValue>& VValue::as_tuple() const {
  const TupleRep* v = std::get_if<TupleRep>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a tuple");
  return v->components;
}

const std::string& VValue::fun_name() const {
  const FunRep* v = std::get_if<FunRep>(&node_);
  PROTEUS_REQUIRE(EvalError, v != nullptr, "vector value is not a function");
  return v->name;
}

Array empty_array_of(const TypePtr& elem) {
  switch (elem->kind()) {
    case TypeKind::kInt:
      return Array::ints({});
    case TypeKind::kReal:
      return Array::reals({});
    case TypeKind::kBool:
      return Array::bools({});
    case TypeKind::kSeq:
      return Array::nested(vl::IntVec{}, empty_array_of(elem->elem()));
    case TypeKind::kTuple: {
      std::vector<Array> comps;
      for (const TypePtr& c : elem->components()) {
        comps.push_back(empty_array_of(c));
      }
      return Array::tuple(std::move(comps));
    }
    case TypeKind::kFun:
      throw EvalError(
          "sequences of function values have no flat representation");
  }
  throw EvalError("corrupt type in empty_array_of");
}

Array materialize(const VValue& v, Size n) {
  if (v.is_int()) return Array::ints(vl::dist(v.as_int(), n));
  if (v.is_real()) return Array::reals(vl::dist(v.as_real(), n));
  if (v.is_bool()) {
    return Array::bools(vl::dist<vl::Bool>(v.as_bool() ? 1 : 0, n));
  }
  if (v.is_seq()) {
    const Array& arr = v.as_seq();
    Array one = Array::nested(vl::IntVec{arr.length()}, arr);
    return seq::broadcast_element(one, 0, n);
  }
  if (v.is_tuple()) {
    std::vector<Array> comps;
    for (const VValue& c : v.as_tuple()) comps.push_back(materialize(c, n));
    return Array::tuple(std::move(comps));
  }
  throw EvalError("function values cannot be replicated into frames");
}

void charge_materialize_seq(Size len, Size n) {
  vl::stats().record(1);  // Array::nested checks the one length
  vl::stats().record_segments(1);
  seq::charge_broadcast_row(len, n);
}

VValue element_value(const Array& a, Size i) {
  PROTEUS_REQUIRE(EvalError, i >= 0 && i < a.length(),
                  "element index out of range");
  switch (a.kind()) {
    case Array::Kind::kInt:
      return VValue::ints(a.int_values()[i]);
    case Array::Kind::kReal:
      return VValue::reals(a.real_values()[i]);
    case Array::Kind::kBool:
      return VValue::bools(a.bool_values()[i] != 0);
    case Array::Kind::kTuple: {
      std::vector<VValue> comps;
      for (const Array& c : a.components()) {
        comps.push_back(element_value(c, i));
      }
      return VValue::tuple(std::move(comps));
    }
    case Array::Kind::kNested:
      return VValue::seq(seq::element(a, i).inner());
  }
  throw EvalError("corrupt array kind");
}

VValue from_boxed(const interp::Value& v, const TypePtr& type) {
  switch (type->kind()) {
    case TypeKind::kInt:
      return VValue::ints(v.as_int());
    case TypeKind::kReal:
      return VValue::reals(v.as_real());
    case TypeKind::kBool:
      return VValue::bools(v.as_bool());
    case TypeKind::kSeq:
      return VValue::seq(interp::to_array(v, type));
    case TypeKind::kTuple: {
      const auto& comps = type->components();
      const auto& vals = v.as_tuple();
      PROTEUS_REQUIRE(EvalError, comps.size() == vals.size(),
                      "tuple arity mismatch in conversion");
      std::vector<VValue> out;
      for (std::size_t i = 0; i < comps.size(); ++i) {
        out.push_back(from_boxed(vals[i], comps[i]));
      }
      return VValue::tuple(std::move(out));
    }
    case TypeKind::kFun:
      return VValue::fun(v.fun_name());
  }
  throw EvalError("corrupt type in conversion");
}

interp::Value to_boxed(const VValue& v, const TypePtr& type) {
  switch (type->kind()) {
    case TypeKind::kInt:
      return interp::Value::ints(v.as_int());
    case TypeKind::kReal:
      return interp::Value::reals(v.as_real());
    case TypeKind::kBool:
      return interp::Value::bools(v.as_bool());
    case TypeKind::kSeq:
      return interp::from_array(v.as_seq(), type);
    case TypeKind::kTuple: {
      const auto& comps = type->components();
      const auto& vals = v.as_tuple();
      PROTEUS_REQUIRE(EvalError, comps.size() == vals.size(),
                      "tuple arity mismatch in conversion");
      interp::ValueList out;
      for (std::size_t i = 0; i < comps.size(); ++i) {
        out.push_back(to_boxed(vals[i], comps[i]));
      }
      return interp::Value::tuple(std::move(out));
    }
    case TypeKind::kFun:
      return interp::Value::fun(v.fun_name());
  }
  throw EvalError("corrupt type in conversion");
}

}  // namespace proteus::kernels
