#include "xform/freevars.hpp"

#include <algorithm>
#include <iterator>

namespace proteus::xform {

using namespace lang;

namespace {

void collect(const ExprPtr& e, std::set<std::string>& bound,
             std::set<std::string>& free) {
  if (e == nullptr) return;
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, VarRef>) {
          if (!node.is_function && !bound.contains(node.name)) {
            free.insert(node.name);
          }
        } else if constexpr (std::is_same_v<T, Let>) {
          collect(node.init, bound, free);
          const bool was_bound = bound.contains(node.var);
          bound.insert(node.var);
          collect(node.body, bound, free);
          if (!was_bound) bound.erase(node.var);
        } else if constexpr (std::is_same_v<T, If>) {
          collect(node.cond, bound, free);
          collect(node.then_expr, bound, free);
          collect(node.else_expr, bound, free);
        } else if constexpr (std::is_same_v<T, Iterator>) {
          collect(node.domain, bound, free);
          const bool was_bound = bound.contains(node.var);
          bound.insert(node.var);
          collect(node.filter, bound, free);
          collect(node.body, bound, free);
          if (!was_bound) bound.erase(node.var);
        } else if constexpr (std::is_same_v<T, Call>) {
          collect(node.callee, bound, free);
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          collect(node.fn, bound, free);
          for (const ExprPtr& a : node.args) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          for (const ExprPtr& a : node.elems) collect(a, bound, free);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          collect(node.tuple, bound, free);
        } else if constexpr (std::is_same_v<T, LambdaExpr>) {
          // Fully parameterized: a lambda's body can reference only its own
          // parameters, so it contributes no free variables.
        }
        // Literals contribute nothing.
      },
      e->node);
}

}  // namespace

std::set<std::string> free_vars(const ExprPtr& e) {
  std::set<std::string> bound;
  std::set<std::string> free;
  collect(e, bound, free);
  return free;
}

Sym Symbols::intern(const std::string& name) {
  auto [it, inserted] = ids_.try_emplace(name, static_cast<Sym>(names_.size()));
  if (inserted) names_.push_back(&it->first);
  return it->second;
}

bool contains_var(const VarSet& set, Sym s) {
  return std::binary_search(set.begin(), set.end(), s);
}

void add_vars(VarSet& into, const VarSet& from) {
  if (from.empty()) return;
  if (into.empty()) {
    into = from;
    return;
  }
  VarSet merged;
  merged.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
}

void drop_var(VarSet& set, Sym s) {
  auto it = std::lower_bound(set.begin(), set.end(), s);
  if (it != set.end() && *it == s) set.erase(it);
}

const VarSet& FreeVarMemo::of(const ExprPtr& e) {
  static const VarSet kNone;
  if (e == nullptr) return kNone;
  auto it = memo_.find(e);
  if (it != memo_.end()) return it->second;
  VarSet set = summarize(*e);
  return memo_.emplace(e, std::move(set)).first->second;
}

VarSet FreeVarMemo::summarize(const Expr& e) {
  VarSet out;
  const auto add_all = [&](const std::vector<ExprPtr>& items) {
    for (const ExprPtr& a : items) add_vars(out, of(a));
  };
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, VarRef>) {
          if (!node.is_function) out.push_back(symbols_.intern(node.name));
        } else if constexpr (std::is_same_v<T, Let>) {
          out = of(node.body);
          drop_var(out, symbols_.intern(node.var));
          add_vars(out, of(node.init));
        } else if constexpr (std::is_same_v<T, If>) {
          out = of(node.cond);
          add_vars(out, of(node.then_expr));
          add_vars(out, of(node.else_expr));
        } else if constexpr (std::is_same_v<T, Iterator>) {
          out = of(node.body);
          add_vars(out, of(node.filter));
          drop_var(out, symbols_.intern(node.var));
          add_vars(out, of(node.domain));
        } else if constexpr (std::is_same_v<T, Call>) {
          out = of(node.callee);
          add_all(node.args);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          add_all(node.args);
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          out = of(node.fn);
          add_all(node.args);
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          add_all(node.elems);
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          out = of(node.tuple);
        }
        // Literals and (fully parameterized) lambdas contribute nothing.
      },
      e.node);
  return out;
}

}  // namespace proteus::xform
