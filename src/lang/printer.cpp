#include "lang/printer.hpp"

#include <sstream>

#include "rt/governor.hpp"

namespace proteus::lang {

namespace {

bool is_infix(Prim p) {
  switch (p) {
    case Prim::kAdd:
    case Prim::kSub:
    case Prim::kMul:
    case Prim::kDiv:
    case Prim::kMod:
    case Prim::kEq:
    case Prim::kNe:
    case Prim::kLt:
    case Prim::kLe:
    case Prim::kGt:
    case Prim::kGe:
    case Prim::kAnd:
    case Prim::kOr:
      return true;
    default:
      return false;
  }
}

class Printer {
 public:
  std::string expr_text(const ExprPtr& e) {
    os_.str("");
    render(e);
    return os_.str();
  }

  /// Stops descending once `max_chars` characters are out: everything
  /// written after that lies past the prefix the caller keeps.
  std::string expr_prefix(const ExprPtr& e, std::size_t max_chars) {
    limit_ = max_chars;
    std::string text = expr_text(e);
    if (text.size() > max_chars) text.resize(max_chars);
    return text;
  }

  std::string fun_text(const FunDef& f) {
    os_.str("");
    os_ << "fun " << f.name << '(';
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      if (i > 0) os_ << ", ";
      os_ << f.params[i].name << ": " << to_string(f.params[i].type);
    }
    os_ << ')';
    if (f.result != nullptr) os_ << ": " << to_string(f.result);
    os_ << " =\n  ";
    render(f.body);
    os_ << '\n';
    return os_.str();
  }

 private:
  void render(const ExprPtr& e) {
    if (limit_ != std::string::npos &&
        static_cast<std::size_t>(os_.tellp()) >= limit_) {
      return;
    }
    // Rendering recurses with the AST; deep (possibly synthesized) trees
    // trap (T003) rather than overrun the C++ stack mid-print.
    rt::NestingGuard nesting(&depth_, "printer");
    std::visit([&](const auto& node) { render_node(node, e); }, e->node);
  }

  void render_list(const std::vector<ExprPtr>& items) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) os_ << ", ";
      render(items[i]);
    }
  }

  void render_node(const IntLit& n, const ExprPtr&) { os_ << n.value; }
  void render_node(const RealLit& n, const ExprPtr&) { os_ << n.value; }
  void render_node(const BoolLit& n, const ExprPtr&) {
    os_ << (n.value ? "true" : "false");
  }
  void render_node(const VarRef& n, const ExprPtr&) { os_ << n.name; }

  void render_node(const Let& n, const ExprPtr&) {
    os_ << "let " << n.var << " = ";
    render(n.init);
    os_ << " in ";
    render(n.body);
  }

  void render_node(const If& n, const ExprPtr&) {
    os_ << "if ";
    render(n.cond);
    os_ << " then ";
    render(n.then_expr);
    os_ << " else ";
    render(n.else_expr);
  }

  void render_node(const Iterator& n, const ExprPtr&) {
    os_ << '[' << n.var << " <- ";
    render(n.domain);
    if (n.filter != nullptr) {
      os_ << " | ";
      render(n.filter);
    }
    os_ << " : ";
    render(n.body);
    os_ << ']';
  }

  void render_node(const Call& n, const ExprPtr&) {
    // Unresolved calls: render operator names infix and simple names as
    // ordinary calls so pre-typecheck trees read like source.
    if (const auto* var = as<VarRef>(n.callee)) {
      Prim p;
      if (n.args.size() == 2 && lookup_prim(var->name, &p) && is_infix(p)) {
        os_ << '(';
        render(n.args[0]);
        os_ << ' ' << var->name << ' ';
        render(n.args[1]);
        os_ << ')';
        return;
      }
      os_ << var->name << '(';
      render_list(n.args);
      os_ << ')';
      return;
    }
    os_ << '(';
    render(n.callee);
    os_ << ")(";
    render_list(n.args);
    os_ << ')';
  }

  void render_node(const PrimCall& n, const ExprPtr&) {
    if (n.depth == 0 && is_infix(n.op) && n.args.size() == 2) {
      os_ << '(';
      render(n.args[0]);
      os_ << ' ' << prim_name(n.op) << ' ';
      render(n.args[1]);
      os_ << ')';
      return;
    }
    os_ << spelled_name(prim_name(n.op)) << suffix(n.depth) << '(';
    render_list(n.args);
    os_ << ')';
  }

  void render_node(const FunCall& n, const ExprPtr&) {
    os_ << n.name << suffix(n.depth) << '(';
    render_list(n.args);
    os_ << ')';
  }

  void render_node(const IndirectCall& n, const ExprPtr&) {
    if (n.depth == 0) {
      // (f)(args): parseable application of a function value.
      os_ << '(';
      render(n.fn);
      os_ << ")(";
      render_list(n.args);
      os_ << ')';
      return;
    }
    os_ << "apply" << suffix(n.depth) << '(';
    render(n.fn);
    if (!n.args.empty()) {
      os_ << ", ";
      render_list(n.args);
    }
    os_ << ')';
  }

  void render_node(const TupleExpr& n, const ExprPtr&) {
    if (n.depth > 0) {
      os_ << "tuple_cons" << suffix(n.depth) << '(';
      render_list(n.elems);
      os_ << ')';
      return;
    }
    os_ << '(';
    render_list(n.elems);
    os_ << ')';
  }

  void render_node(const TupleGet& n, const ExprPtr&) {
    if (n.depth > 0) {
      os_ << "tuple_extract" << suffix(n.depth) << '(';
      render(n.tuple);
      os_ << ", " << n.index << ')';
      return;
    }
    render(n.tuple);
    os_ << '.' << n.index;
  }

  void render_node(const SeqExpr& n, const ExprPtr& e) {
    if (n.depth > 0) {
      os_ << "seq_cons" << suffix(n.depth) << '(';
      render_list(n.elems);
      os_ << ')';
      return;
    }
    if (n.elems.empty()) {
      if (e->type != nullptr) {
        os_ << "([] : " << to_string(e->type) << ')';
      } else {
        os_ << "[]";  // untyped literal: type comes from context
      }
      return;
    }
    os_ << '[';
    render_list(n.elems);
    os_ << ']';
  }

  void render_node(const LambdaExpr& n, const ExprPtr&) {
    os_ << "fun(";
    for (std::size_t i = 0; i < n.params.size(); ++i) {
      if (i > 0) os_ << ", ";
      os_ << n.params[i] << ": " << to_string(n.param_types[i]);
    }
    os_ << ") => ";
    render(n.body);
  }

  /// Infix primitive names need a spellable form in prefix position
  /// (e.g. the depth-1 extension of + prints as `add^1`).
  static std::string spelled_name(const std::string& name) {
    if (name == "+") return "add";
    if (name == "-") return "sub";
    if (name == "*") return "mult";
    if (name == "/") return "div";
    if (name == "==") return "eq";
    if (name == "!=") return "ne";
    if (name == "<") return "lt";
    if (name == "<=") return "le";
    if (name == ">") return "gt";
    if (name == ">=") return "ge";
    return name;
  }

  static std::string suffix(int depth) {
    // Built up via += (not `"^" + to_string(...)`): the temporary-insert
    // form trips GCC 12's -Werror=restrict false positive (PR105651)
    // under -O2 and higher.
    std::string out;
    if (depth != 0) {
      out += '^';
      out += std::to_string(depth);
    }
    return out;
  }

  std::ostringstream os_;
  std::size_t limit_ = std::string::npos;  ///< see expr_prefix
  int depth_ = 0;  ///< current AST-recursion depth
};

}  // namespace

std::string to_text(const ExprPtr& expr) { return Printer().expr_text(expr); }

std::string to_text(const ExprPtr& expr, std::size_t max_chars) {
  return Printer().expr_prefix(expr, max_chars);
}

std::string to_text(const FunDef& fun) { return Printer().fun_text(fun); }

std::string to_text(const Program& program) {
  std::string out;
  for (const FunDef& f : program.functions) {
    out += to_text(f);
    out += '\n';
  }
  return out;
}

}  // namespace proteus::lang
