// printer.hpp — renders expressions and programs back to concrete syntax.
//
// Transformed (V-form) programs print depth-extended calls with the
// paper's notation, e.g. `mult^2(j, j)` and `range1^1(n)`, so the worked
// example of Section 5 can be compared textually against the paper.
#pragma once

#include <string>

#include "lang/ast.hpp"

namespace proteus::lang {

/// Renders one expression on a single line.
[[nodiscard]] std::string to_text(const ExprPtr& expr);

/// The first `max_chars` characters of to_text(expr). Rendering stops
/// once they are out, so the cost is bounded by the prefix, not the tree.
[[nodiscard]] std::string to_text(const ExprPtr& expr, std::size_t max_chars);

/// Renders a function definition (multi-line, indented body).
[[nodiscard]] std::string to_text(const FunDef& fun);

/// Renders a whole program.
[[nodiscard]] std::string to_text(const Program& program);

}  // namespace proteus::lang
