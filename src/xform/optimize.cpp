#include "xform/optimize.hpp"

#include <utility>

#include "vl/check.hpp"
#include "xform/freevars.hpp"

namespace proteus::xform {

using namespace lang;

namespace {

/// Is `init` the replication pattern `dist^j(v, ib)` with a variable
/// source? Returns the source VarRef and depth through the out-params.
bool is_dist_of_var(const ExprPtr& init, ExprPtr* source, ExprPtr* counts,
                    int* depth) {
  const auto* call = as<PrimCall>(init);
  if (call == nullptr || call->op != Prim::kDist || call->depth < 1) {
    return false;
  }
  const auto* src = as<VarRef>(call->args[0]);
  const auto* cnt = as<VarRef>(call->args[1]);
  if (src == nullptr || src->is_function || cnt == nullptr ||
      cnt->is_function) {
    return false;
  }
  *source = call->args[0];
  *counts = call->args[1];
  *depth = call->depth;
  return true;
}

/// Rebuilds `e` with every child replaced by `f(child)`, in source order,
/// and returns `e` itself when no child changed. Covers the node kinds of
/// a flattened program except Let, which each pass treats itself; a Let,
/// Iterator, Call or LambdaExpr comes back as it is.
template <typename F>
ExprPtr map_children(const ExprPtr& e, F&& f) {
  bool changed = false;
  const auto map = [&](const ExprPtr& c) {
    ExprPtr r = c == nullptr ? nullptr : f(c);
    changed = changed || r != c;
    return r;
  };
  const auto map_all = [&](const std::vector<ExprPtr>& items) {
    std::vector<ExprPtr> out;
    out.reserve(items.size());
    for (const ExprPtr& it : items) out.push_back(map(it));
    return out;
  };
  const auto rebuilt = [&](auto node) {
    return changed ? make_expr(std::move(node), e->type, e->loc) : e;
  };
  return std::visit(
      [&](const auto& node) -> ExprPtr {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, If>) {
          return rebuilt(
              If{map(node.cond), map(node.then_expr), map(node.else_expr)});
        } else if constexpr (std::is_same_v<T, PrimCall>) {
          return rebuilt(
              PrimCall{node.op, node.depth, map_all(node.args), node.lifted});
        } else if constexpr (std::is_same_v<T, FunCall>) {
          return rebuilt(
              FunCall{node.name, node.depth, map_all(node.args), node.lifted});
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          return rebuilt(IndirectCall{map(node.fn), node.depth,
                                      map_all(node.args), node.lifted});
        } else if constexpr (std::is_same_v<T, TupleExpr>) {
          return rebuilt(TupleExpr{map_all(node.elems), node.depth});
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          return rebuilt(TupleGet{map(node.tuple), node.index, node.depth});
        } else if constexpr (std::is_same_v<T, SeqExpr>) {
          return rebuilt(
              SeqExpr{map_all(node.elems), node.elem_type, node.depth});
        } else {
          return e;
        }
      },
      e->node);
}

/// The uses of a replicated variable `name` = dist^d(source, counts):
/// rewrites every `seq_index^{d+1}(name, idx)` to
/// `seq_index_inner^d(source, idx)` and every `length^{d+1}(name)` to
/// `dist^d(length^d(source), counts)`. Any other use clears `ok`.
/// Scope-aware: a binder shadowing `name` ends its uses, and below a
/// binder shadowing the source or the counts any use clears `ok`.
struct SharedRowUses {
  const std::string& name;
  const ExprPtr& source;  // a VarRef
  const ExprPtr& counts;  // a VarRef
  int dist_depth;
  bool ok = true;

  ExprPtr rewrite(const ExprPtr& e, bool blocked) {
    if (e == nullptr || !ok) return e;
    if (const auto* var = as<VarRef>(e)) {
      if (!var->is_function && var->name == name) ok = false;  // bare use
      return e;
    }
    if (const auto* call = as<PrimCall>(e);
        call != nullptr && !blocked && call->depth == dist_depth + 1 &&
        !call->args.empty() && is_name(call->args[0])) {
      if (call->op == Prim::kSeqIndex && call->args.size() == 2) {
        ExprPtr idx = rewrite(call->args[1], blocked);
        return make_expr(PrimCall{Prim::kSeqIndexInner, dist_depth,
                                  {source, std::move(idx)},
                                  {1, 1}},
                         e->type, e->loc);
      }
      if (call->op == Prim::kLength && call->args.size() == 1) {
        // lengths of replicated rows == replicated lengths of the rows
        ExprPtr row_lengths = make_expr(
            PrimCall{Prim::kLength, dist_depth, {source}, {1}},
            Type::seq_n(Type::int_(), dist_depth), e->loc);
        return make_expr(PrimCall{Prim::kDist, dist_depth,
                                  {std::move(row_lengths), counts},
                                  {1, 1}},
                         e->type, e->loc);
      }
    }
    if (const auto* let = as<Let>(e)) {
      ExprPtr init = rewrite(let->init, blocked);
      ExprPtr body = let->body;
      if (let->var != name) {
        body = rewrite(body, blocked ||
                                 let->var == as<VarRef>(source)->name ||
                                 let->var == as<VarRef>(counts)->name);
      }
      if (init == let->init && body == let->body) return e;
      return make_expr(Let{let->var, std::move(init), std::move(body)},
                       e->type, e->loc);
    }
    return map_children(
        e, [&](const ExprPtr& c) { return rewrite(c, blocked); });
  }

  bool is_name(const ExprPtr& e) const {
    const auto* var = as<VarRef>(e);
    return var != nullptr && !var->is_function && var->name == name;
  }
};

class SharedRows {
 public:
  ExprPtr rewrite(const ExprPtr& e) {
    if (const auto* let = as<Let>(e)) return rewrite_let(*let, e);
    if (as<Iterator>(e) != nullptr || as<Call>(e) != nullptr ||
        as<LambdaExpr>(e) != nullptr) {
      throw TransformError(
          "optimizer expects flattened input (Iterator/Call/Lambda found)");
    }
    return map_children(e, [&](const ExprPtr& c) { return rewrite(c); });
  }

 private:
  ExprPtr rewrite_let(const Let& node, const ExprPtr& e) {
    ExprPtr init = rewrite(node.init);
    ExprPtr body = rewrite(node.body);

    ExprPtr source;
    ExprPtr counts;
    int dist_depth = 0;
    if (is_dist_of_var(init, &source, &counts, &dist_depth)) {
      SharedRowUses uses{node.var, source, counts, dist_depth};
      ExprPtr replaced = uses.rewrite(body, false);
      if (uses.ok) {
        // Every use became a shared-row gather; the replication is dead.
        return replaced;
      }
    }
    if (init == node.init && body == node.body) return e;
    return make_expr(Let{node.var, std::move(init), std::move(body)}, e->type,
                     e->loc);
  }
};

/// Removes dead lets in one descent: each call also returns the free set
/// of what it returns, and a let is dead when its variable is not in the
/// set of its (already cleaned) body.
class DeadLets {
 public:
  ExprPtr rewrite(const ExprPtr& e, VarSet& free) {
    if (e == nullptr) {
      free.clear();
      return e;
    }
    if (const auto* let = as<Let>(e)) {
      ExprPtr body = rewrite(let->body, free);
      const Sym var = symbols_.intern(let->var);
      if (!contains_var(free, var)) return body;
      drop_var(free, var);
      VarSet init_free;
      ExprPtr init = rewrite(let->init, init_free);
      add_vars(free, init_free);
      if (init == let->init && body == let->body) return e;
      return make_expr(Let{let->var, std::move(init), std::move(body)},
                       e->type, e->loc);
    }
    if (const auto* var = as<VarRef>(e)) {
      free.clear();
      if (!var->is_function) free.push_back(symbols_.intern(var->name));
      return e;
    }
    if (as<Iterator>(e) != nullptr || as<Call>(e) != nullptr ||
        as<LambdaExpr>(e) != nullptr) {
      // These may legitimately appear when the pass is used on
      // un-flattened trees; leave them intact.
      free = untouched_.of(e);
      return e;
    }
    free.clear();
    return map_children(e, [&](const ExprPtr& c) {
      VarSet child;
      ExprPtr r = rewrite(c, child);
      add_vars(free, child);
      return r;
    });
  }

 private:
  Symbols symbols_;
  FreeVarMemo untouched_{symbols_};
};

}  // namespace

ExprPtr optimize_shared_rows(const ExprPtr& e) {
  return SharedRows().rewrite(e);
}

ExprPtr remove_dead_lets(const ExprPtr& e) {
  VarSet free;
  return DeadLets().rewrite(e, free);
}

Program remove_dead_lets(const Program& program) {
  Program out;
  out.functions.reserve(program.functions.size());
  DeadLets pass;
  VarSet free;
  for (const FunDef& f : program.functions) {
    FunDef g = f;
    g.body = pass.rewrite(f.body, free);
    out.functions.push_back(std::move(g));
  }
  return out;
}

Program optimize_shared_rows(const Program& flattened) {
  Program out;
  out.functions.reserve(flattened.functions.size());
  for (const FunDef& f : flattened.functions) {
    FunDef g = f;
    g.body = optimize_shared_rows(f.body);
    out.functions.push_back(std::move(g));
  }
  return out;
}

}  // namespace proteus::xform
