#include "interp/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "rt/governor.hpp"
#include "vl/check.hpp"

namespace proteus::interp {

using lang::Expr;
using lang::ExprPtr;
using lang::FunDef;
using lang::Prim;
using lang::TypePtr;

namespace {

/// Lexically scoped environment: a simple binding stack.
class Env {
 public:
  void push(const std::string& name, Value v) {
    bindings_.emplace_back(name, std::move(v));
  }
  void pop(std::size_t count = 1) {
    bindings_.resize(bindings_.size() - count);
  }
  [[nodiscard]] const Value* lookup(const std::string& name) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }
  [[nodiscard]] std::size_t size() const { return bindings_.size(); }
  void truncate(std::size_t n) { bindings_.resize(n); }

 private:
  std::vector<std::pair<std::string, Value>> bindings_;
};

[[noreturn]] void eval_fail(const std::string& msg) { throw EvalError(msg); }

Int checked_index(Int i, Size n) {
  if (i < 1 || i > n) {
    eval_fail("seq_index: index " + std::to_string(i) +
              " out of range for sequence of length " + std::to_string(n));
  }
  return i - 1;  // to 0-origin
}

class Eval {
 public:
  Eval(const lang::Program& program, InterpStats& stats, int& call_depth,
       int& eval_depth)
      : program_(program), stats_(stats), call_depth_(call_depth),
        eval_depth_(eval_depth) {}

  Value expr(const ExprPtr& e, Env& env) {
    // Cooperative governor check per node (cancellation/deadline), plus a
    // structural-nesting bound so adversarially deep ASTs trap instead of
    // overrunning the C++ stack.
    rt::poll("interp");
    rt::NestingGuard nesting(&eval_depth_, "interp");
    return std::visit([&](const auto& node) { return eval_node(node, e, env); },
                      e->node);
  }

  Value call(const std::string& name, const ValueList& args) {
    const FunDef* f = program_.find(name);
    if (f == nullptr) eval_fail("call to unknown function '" + name + "'");
    if (f->params.size() != args.size()) {
      eval_fail("'" + name + "' expects " + std::to_string(f->params.size()) +
                " arguments, got " + std::to_string(args.size()));
    }
    if (++call_depth_ > rt::depth_limit()) {
      --call_depth_;
      rt::raise(rt::Trap::kDepth, "call depth limit exceeded in '" + name +
                                      "' (runaway recursion?)",
                "interp");
    }
    stats_.calls += 1;
    Env env;
    for (std::size_t i = 0; i < args.size(); ++i) {
      env.push(f->params[i].name, args[i]);
    }
    // Nesting is per function body (see exec.cpp: the C++ stack burned is
    // bounded by call_depth * per-body nesting).
    const int outer_nesting = std::exchange(eval_depth_, 0);
    Value result = expr(f->body, env);
    eval_depth_ = outer_nesting;
    --call_depth_;
    return result;
  }

 private:
  // --- node cases -------------------------------------------------------------

  Value eval_node(const lang::IntLit& n, const ExprPtr&, Env&) {
    return Value::ints(n.value);
  }
  Value eval_node(const lang::RealLit& n, const ExprPtr&, Env&) {
    return Value::reals(n.value);
  }
  Value eval_node(const lang::BoolLit& n, const ExprPtr&, Env&) {
    return Value::bools(n.value);
  }

  Value eval_node(const lang::VarRef& n, const ExprPtr&, Env& env) {
    if (!n.is_function) {
      const Value* v = env.lookup(n.name);
      if (v != nullptr) return *v;
    }
    if (program_.contains(n.name)) return Value::fun(n.name);
    eval_fail("unbound variable '" + n.name + "'");
  }

  Value eval_node(const lang::Let& n, const ExprPtr&, Env& env) {
    Value init = expr(n.init, env);
    env.push(n.var, std::move(init));
    Value result = expr(n.body, env);
    env.pop();
    return result;
  }

  Value eval_node(const lang::If& n, const ExprPtr&, Env& env) {
    return expr(n.cond, env).as_bool() ? expr(n.then_expr, env)
                                       : expr(n.else_expr, env);
  }

  Value eval_node(const lang::Iterator& n, const ExprPtr&, Env& env) {
    const ValueList domain = expr(n.domain, env).as_seq();
    ValueList out;
    out.reserve(domain.size());
    // Parallel semantics: every element evaluates independently, so the
    // iterator's contribution to the critical path is the MAX over its
    // bodies, not the sum.
    const std::uint64_t base_steps = stats_.steps;
    std::uint64_t deepest = base_steps;
    for (const Value& elem : domain) {
      stats_.steps = base_steps;
      env.push(n.var, elem);
      bool keep = true;
      if (n.filter != nullptr) keep = expr(n.filter, env).as_bool();
      if (keep) {
        stats_.iterations += 1;
        out.push_back(expr(n.body, env));
      }
      env.pop();
      deepest = std::max(deepest, stats_.steps);
    }
    stats_.steps = deepest + 1;  // +1: assembling the result
    return Value::seq(std::move(out));
  }

  Value eval_node(const lang::Call&, const ExprPtr&, Env&) {
    eval_fail("interpreter given an unresolved Call node; type-check first");
  }

  Value eval_node(const lang::LambdaExpr&, const ExprPtr&, Env&) {
    eval_fail("interpreter given an unlifted lambda; type-check first");
  }

  Value eval_node(const lang::TupleExpr& n, const ExprPtr&, Env& env) {
    ValueList elems = eval_args(n.elems, env);
    return map_depth(n.depth, {}, elems, [](const ValueList& sub) {
      return Value::tuple(sub);
    });
  }

  Value eval_node(const lang::TupleGet& n, const ExprPtr&, Env& env) {
    ValueList args{expr(n.tuple, env)};
    const std::size_t index = static_cast<std::size_t>(n.index - 1);
    return map_depth(n.depth, {}, args, [&](const ValueList& sub) {
      return sub[0].as_tuple()[index];
    });
  }

  Value eval_node(const lang::SeqExpr& n, const ExprPtr&, Env& env) {
    ValueList elems = eval_args(n.elems, env);
    return map_depth(n.depth, {}, elems, [](const ValueList& sub) {
      return Value::seq(sub);
    });
  }

  Value eval_node(const lang::PrimCall& n, const ExprPtr& e, Env& env) {
    ValueList args = eval_args(n.args, env);
    if (n.op == Prim::kEmptyFrame) {
      // For empty_frame the depth field records the frame depth j of rule
      // R2d (not a parallel-extension depth): the result preserves the
      // mask's structure above the deepest level and empties that level.
      stats_.scalar_ops += 1;
      return empty_frame(args[0], n.depth);
    }
    return apply_prim_at_depth(n.op, n.depth, n.lifted, args, e->type);
  }

  Value eval_node(const lang::FunCall& n, const ExprPtr&, Env& env) {
    ValueList args = eval_args(n.args, env);
    return apply_fun_at_depth(n.name, n.depth, n.lifted, args);
  }

  Value eval_node(const lang::IndirectCall& n, const ExprPtr&, Env& env) {
    Value fn = expr(n.fn, env);
    ValueList args = eval_args(n.args, env);
    return apply_fun_at_depth(fn.fun_name(), n.depth, n.lifted, args);
  }

  ValueList eval_args(const std::vector<ExprPtr>& args, Env& env) {
    ValueList out;
    out.reserve(args.size());
    for (const ExprPtr& a : args) out.push_back(expr(a, env));
    return out;
  }

  // --- depth-extended application ----------------------------------------------

  static bool is_lifted(const std::vector<std::uint8_t>& lifted,
                        std::size_t i) {
    return lifted.empty() || lifted[i] != 0;
  }

  /// Applies `base` elementwise through `depth` levels of frame nesting;
  /// non-lifted arguments are broadcast unchanged.
  Value map_depth(int depth, const std::vector<std::uint8_t>& lifted,
                  const ValueList& args,
                  const std::function<Value(const ValueList&)>& base) {
    if (depth == 0) return base(args);
    Size n = -1;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (is_lifted(lifted, i)) {
        Size len = static_cast<Size>(args[i].as_seq().size());
        if (n < 0) n = len;
        if (len != n) {
          eval_fail("parallel extension applied to non-conformable frames (" +
                    std::to_string(n) + " vs " + std::to_string(len) + ")");
        }
      }
    }
    if (n < 0) eval_fail("parallel extension with no frame argument");
    ValueList out;
    out.reserve(static_cast<std::size_t>(n));
    for (Size k = 0; k < n; ++k) {
      ValueList sub;
      sub.reserve(args.size());
      for (std::size_t i = 0; i < args.size(); ++i) {
        sub.push_back(is_lifted(lifted, i)
                          ? args[i].as_seq()[static_cast<std::size_t>(k)]
                          : args[i]);
      }
      out.push_back(map_depth(depth - 1, lifted, sub, base));
    }
    return Value::seq(std::move(out));
  }

  Value apply_prim_at_depth(Prim op, int depth,
                            const std::vector<std::uint8_t>& lifted,
                            const ValueList& args, const TypePtr& type) {
    if (depth == 0) return apply_prim(op, args, type);
    // The element type annotation for kEmptyFrame at depth d is the
    // annotation with d Seq wrappers removed.
    TypePtr elem_type = type;
    return map_depth(depth, lifted, args, [&](const ValueList& sub) {
      return apply_prim(op, sub, elem_type);
    });
  }

  Value apply_fun_at_depth(const std::string& name, int depth,
                           const std::vector<std::uint8_t>& lifted,
                           const ValueList& args) {
    if (depth == 0) return call(name, args);
    return map_depth(depth, lifted, args,
                     [&](const ValueList& sub) { return call(name, sub); });
  }

  // --- primitive semantics -------------------------------------------------------

  Value apply_prim(Prim op, const ValueList& a, const TypePtr& type) {
    stats_.scalar_ops += 1;
    stats_.steps += 1;
    switch (op) {
      case Prim::kAdd:
        return numeric2(a, [](Int x, Int y) { return x + y; },
                        [](Real x, Real y) { return x + y; });
      case Prim::kSub:
        return numeric2(a, [](Int x, Int y) { return x - y; },
                        [](Real x, Real y) { return x - y; });
      case Prim::kMul:
        return numeric2(a, [](Int x, Int y) { return x * y; },
                        [](Real x, Real y) { return x * y; });
      case Prim::kDiv:
        if (a[0].is_int()) {
          const Int y = a[1].as_int();
          if (y == 0) eval_fail("division by zero");
          // x / -1 is -x, negated unsigned so INT64_MIN wraps to itself.
          if (y == -1) {
            return Value::ints(static_cast<Int>(
                0 - static_cast<std::uint64_t>(a[0].as_int())));
          }
          return Value::ints(a[0].as_int() / y);
        }
        return Value::reals(a[0].as_real() / a[1].as_real());
      case Prim::kMod: {
        const Int y = a[1].as_int();
        if (y == 0) eval_fail("mod by zero");
        if (y == -1) return Value::ints(0);  // INT64_MIN % -1 overflows
        return Value::ints(a[0].as_int() % y);
      }
      case Prim::kNeg:
        return a[0].is_int() ? Value::ints(-a[0].as_int())
                             : Value::reals(-a[0].as_real());
      case Prim::kMin:
        return numeric2(a, [](Int x, Int y) { return x < y ? x : y; },
                        [](Real x, Real y) { return x < y ? x : y; });
      case Prim::kMax:
        return numeric2(a, [](Int x, Int y) { return x < y ? y : x; },
                        [](Real x, Real y) { return x < y ? y : x; });
      case Prim::kEq:
        return Value::bools(a[0] == a[1]);
      case Prim::kNe:
        return Value::bools(!(a[0] == a[1]));
      case Prim::kLt:
        return compare(a, [](auto x, auto y) { return x < y; });
      case Prim::kLe:
        return compare(a, [](auto x, auto y) { return x <= y; });
      case Prim::kGt:
        return compare(a, [](auto x, auto y) { return x > y; });
      case Prim::kGe:
        return compare(a, [](auto x, auto y) { return x >= y; });
      case Prim::kAnd:
        return Value::bools(a[0].as_bool() && a[1].as_bool());
      case Prim::kOr:
        return Value::bools(a[0].as_bool() || a[1].as_bool());
      case Prim::kNot:
        return Value::bools(!a[0].as_bool());
      case Prim::kSqrt:
        return Value::reals(std::sqrt(a[0].as_real()));
      case Prim::kToReal:
        return Value::reals(static_cast<Real>(a[0].as_int()));
      case Prim::kToInt:
        return Value::ints(static_cast<Int>(a[0].as_real()));
      case Prim::kLength:
        return Value::ints(static_cast<Int>(a[0].as_seq().size()));
      case Prim::kRange: {
        Int lo = a[0].as_int();
        Int hi = a[1].as_int();
        ValueList out;
        for (Int v = lo; v <= hi; ++v) out.push_back(Value::ints(v));
        stats_.scalar_ops += out.size();
        return Value::seq(std::move(out));
      }
      case Prim::kRange1: {
        Int n = a[0].as_int();
        ValueList out;
        for (Int v = 1; v <= n; ++v) out.push_back(Value::ints(v));
        stats_.scalar_ops += out.size();
        return Value::seq(std::move(out));
      }
      case Prim::kRestrict: {
        const ValueList& v = a[0].as_seq();
        const ValueList& m = a[1].as_seq();
        if (v.size() != m.size()) {
          eval_fail("restrict: sequence and mask lengths differ");
        }
        ValueList out;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (m[i].as_bool()) out.push_back(v[i]);
        }
        stats_.scalar_ops += v.size();
        return Value::seq(std::move(out));
      }
      case Prim::kCombine: {
        const ValueList& m = a[0].as_seq();
        const ValueList& t = a[1].as_seq();
        const ValueList& f = a[2].as_seq();
        if (m.size() != t.size() + f.size()) {
          eval_fail("combine: #M must equal #V + #U");
        }
        if (std::count_if(m.begin(), m.end(), [](const Value& b) {
              return b.as_bool();
            }) != static_cast<std::ptrdiff_t>(t.size())) {
          eval_fail("combine: #V must equal the number of true elements of M");
        }
        ValueList out;
        std::size_t ti = 0;
        std::size_t fi = 0;
        for (const Value& flag : m) {
          out.push_back(flag.as_bool() ? t[ti++] : f[fi++]);
        }
        stats_.scalar_ops += m.size();
        return Value::seq(std::move(out));
      }
      case Prim::kDist: {
        Int r = a[1].as_int();
        if (r < 0) r = 0;
        ValueList out(static_cast<std::size_t>(r), a[0]);
        stats_.scalar_ops += out.size();
        return Value::seq(std::move(out));
      }
      case Prim::kSeqIndex: {
        const ValueList& s = a[0].as_seq();
        Int i = checked_index(a[1].as_int(), static_cast<Size>(s.size()));
        return s[static_cast<std::size_t>(i)];
      }
      case Prim::kSeqIndexInner: {
        // [v[i] : i in is] — the shared-row gather of Section 4.5.
        const ValueList& s = a[0].as_seq();
        const ValueList& is = a[1].as_seq();
        ValueList out;
        out.reserve(is.size());
        for (const Value& iv : is) {
          Int i = checked_index(iv.as_int(), static_cast<Size>(s.size()));
          out.push_back(s[static_cast<std::size_t>(i)]);
        }
        stats_.scalar_ops += is.size();
        return Value::seq(std::move(out));
      }
      case Prim::kSeqUpdate: {
        ValueList s = a[0].as_seq();
        Int i = checked_index(a[1].as_int(), static_cast<Size>(s.size()));
        s[static_cast<std::size_t>(i)] = a[2];
        stats_.scalar_ops += s.size();
        return Value::seq(std::move(s));
      }
      case Prim::kFlatten: {
        const ValueList& v = a[0].as_seq();
        ValueList out;
        for (const Value& inner : v) {
          const ValueList& xs = inner.as_seq();
          out.insert(out.end(), xs.begin(), xs.end());
        }
        stats_.scalar_ops += out.size();
        return Value::seq(std::move(out));
      }
      case Prim::kConcat: {
        ValueList out = a[0].as_seq();
        const ValueList& w = a[1].as_seq();
        out.insert(out.end(), w.begin(), w.end());
        stats_.scalar_ops += out.size();
        return Value::seq(std::move(out));
      }
      case Prim::kSum: {
        const ValueList& v = a[0].as_seq();
        stats_.scalar_ops += v.size();
        if (!v.empty() && v.front().is_real()) {
          Real acc = 0;
          for (const Value& x : v) acc += x.as_real();
          return Value::reals(acc);
        }
        Int acc = 0;
        for (const Value& x : v) acc += x.as_int();
        return Value::ints(acc);
      }
      case Prim::kMaxVal:
      case Prim::kMinVal: {
        const ValueList& v = a[0].as_seq();
        if (v.empty()) eval_fail("maxval/minval of an empty sequence");
        stats_.scalar_ops += v.size();
        const bool want_max = op == Prim::kMaxVal;
        if (v.front().is_real()) {
          Real best = v.front().as_real();
          for (const Value& x : v) {
            Real r = x.as_real();
            best = want_max ? (r > best ? r : best) : (r < best ? r : best);
          }
          return Value::reals(best);
        }
        Int best = v.front().as_int();
        for (const Value& x : v) {
          Int r = x.as_int();
          best = want_max ? (r > best ? r : best) : (r < best ? r : best);
        }
        return Value::ints(best);
      }
      case Prim::kReverse: {
        const ValueList& v = a[0].as_seq();
        ValueList out(v.rbegin(), v.rend());
        stats_.scalar_ops += v.size();
        return Value::seq(std::move(out));
      }
      case Prim::kZip: {
        const ValueList& x = a[0].as_seq();
        const ValueList& y = a[1].as_seq();
        if (x.size() != y.size()) {
          eval_fail("zip: sequences have different lengths");
        }
        ValueList out;
        out.reserve(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          out.push_back(Value::tuple({x[i], y[i]}));
        }
        stats_.scalar_ops += x.size();
        return Value::seq(std::move(out));
      }
      case Prim::kAnyV: {
        const ValueList& v = a[0].as_seq();
        stats_.scalar_ops += v.size();
        for (const Value& x : v) {
          if (x.as_bool()) return Value::bools(true);
        }
        return Value::bools(false);
      }
      case Prim::kAllV: {
        const ValueList& v = a[0].as_seq();
        stats_.scalar_ops += v.size();
        for (const Value& x : v) {
          if (!x.as_bool()) return Value::bools(false);
        }
        return Value::bools(true);
      }
      case Prim::kExtract: {
        Int d = a[1].as_int();
        Value cur = a[0];
        for (Int k = 0; k < d; ++k) cur = flatten_once(cur);
        return cur;
      }
      case Prim::kInsert: {
        Int d = a[2].as_int();
        if (d == 0) return a[0];
        std::size_t cursor = 0;
        const ValueList& flat = a[0].as_seq();
        Value shaped = reshape(flat, a[1], static_cast<int>(d), cursor);
        if (cursor != flat.size()) {
          eval_fail("insert: result length does not match frame");
        }
        return shaped;
      }
      case Prim::kEmptyFrame: {
        PROTEUS_REQUIRE(EvalError, type != nullptr,
                        "empty_frame without a type annotation");
        return empty_frame(a[0], lang::seq_depth(type));
      }
      case Prim::kAnyTrue:
        return Value::bools(any_leaf(a[0]));
    }
    eval_fail("corrupt primitive opcode");
  }

  template <typename FInt, typename FReal>
  Value numeric2(const ValueList& a, FInt fi, FReal fr) {
    if (a[0].is_int()) return Value::ints(fi(a[0].as_int(), a[1].as_int()));
    return Value::reals(fr(a[0].as_real(), a[1].as_real()));
  }

  template <typename F>
  Value compare(const ValueList& a, F f) {
    if (a[0].is_int()) return Value::bools(f(a[0].as_int(), a[1].as_int()));
    return Value::bools(f(a[0].as_real(), a[1].as_real()));
  }

  Value flatten_once(const Value& v) {
    ValueList out;
    for (const Value& inner : v.as_seq()) {
      const ValueList& xs = inner.as_seq();
      out.insert(out.end(), xs.begin(), xs.end());
    }
    return Value::seq(std::move(out));
  }

  /// Rebuilds the top `d` levels of `skeleton` around the elements of
  /// `flat` (the boxed semantics of insert, d >= 1): the result copies the
  /// skeleton's descriptors down to depth d and partitions `flat` by the
  /// skeleton's depth-d segment lengths.
  Value reshape(const ValueList& flat, const Value& skeleton, int d,
                std::size_t& cursor) {
    ValueList out;
    if (d == 1) {
      for (const Value& child : skeleton.as_seq()) {
        ValueList segment;
        for (std::size_t k = 0; k < child.as_seq().size(); ++k) {
          if (cursor >= flat.size()) {
            eval_fail("insert: result has fewer elements than the frame");
          }
          segment.push_back(flat[cursor++]);
        }
        out.push_back(Value::seq(std::move(segment)));
      }
      return Value::seq(std::move(out));
    }
    for (const Value& child : skeleton.as_seq()) {
      out.push_back(reshape(flat, child, d - 1, cursor));
    }
    return Value::seq(std::move(out));
  }

  /// Same structure as `frame` down to depth-1, empty sequences at the
  /// deepest level (rule R2d's empty_frame).
  Value empty_frame(const Value& frame, int depth) {
    if (depth <= 1) return Value::seq({});
    ValueList out;
    for (const Value& child : frame.as_seq()) {
      out.push_back(empty_frame(child, depth - 1));
    }
    return Value::seq(std::move(out));
  }

  bool any_leaf(const Value& v) {
    if (v.is_bool()) return v.as_bool();
    for (const Value& child : v.as_seq()) {
      if (any_leaf(child)) return true;
    }
    return false;
  }

  const lang::Program& program_;
  InterpStats& stats_;
  int& call_depth_;
  int& eval_depth_;
};

}  // namespace

Value Interpreter::call_function(const std::string& name,
                                 const ValueList& args) {
  Eval e(program_, stats_, call_depth_, eval_depth_);
  return e.call(name, args);
}

Value Interpreter::eval(const lang::ExprPtr& expr) {
  Eval e(program_, stats_, call_depth_, eval_depth_);
  Env env;
  return e.expr(expr, env);
}

}  // namespace proteus::interp
