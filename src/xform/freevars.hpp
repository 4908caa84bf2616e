// freevars.hpp — free-variable analysis used by the transformation rules.
//
// Rule R2c dist's, and rule R2d restricts, exactly the iterator-bound
// variables that occur free in the subexpression at hand; this module
// computes those occurrence sets. The passes use the memoized summaries
// of FreeVarMemo; free_vars is the direct definition they are tested
// against.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"

namespace proteus::xform {

/// Names of the variables occurring free in `e` (function names referenced
/// through resolved VarRef/FunCall nodes are excluded — they are global).
[[nodiscard]] std::set<std::string> free_vars(const lang::ExprPtr& e);

/// An interned variable name.
using Sym = std::uint32_t;

/// Interns variable names as dense ids, numbered in first-seen order.
class Symbols {
 public:
  Sym intern(const std::string& name);
  [[nodiscard]] const std::string& name(Sym s) const { return *names_[s]; }

 private:
  std::unordered_map<std::string, Sym> ids_;
  std::vector<const std::string*> names_;  // the keys of ids_
};

/// A set of interned names: ascending ids, no duplicates.
using VarSet = std::vector<Sym>;

[[nodiscard]] bool contains_var(const VarSet& set, Sym s);
/// into := into ∪ from.
void add_vars(VarSet& into, const VarSet& from);
/// set := set \ {s}.
void drop_var(VarSet& set, Sym s);

/// The free set of every node, each built once from its children's
/// sets. However often a pass asks about nested subtrees, summarizing a
/// tree costs one descent. Entries hold their node alive, so a recycled
/// allocation can never alias a stale entry.
class FreeVarMemo {
 public:
  explicit FreeVarMemo(Symbols& symbols) : symbols_(symbols) {}

  /// The free set of `e` (empty for nullptr). The reference stays valid
  /// for the memo's lifetime.
  const VarSet& of(const lang::ExprPtr& e);

 private:
  VarSet summarize(const lang::Expr& e);

  Symbols& symbols_;
  std::unordered_map<lang::ExprPtr, VarSet> memo_;
};

}  // namespace proteus::xform
