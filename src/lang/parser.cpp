#include "lang/parser.hpp"

#include <charconv>
#include <string_view>
#include <utility>

#include "lang/lexer.hpp"
#include "rt/governor.hpp"
#include "vl/check.hpp"

namespace proteus::lang {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view source) : tokens_(lex(source)) {}

  Program program() {
    Program p;
    while (!at(Tok::kEnd)) {
      p.functions.push_back(fundef());
    }
    return p;
  }

  ExprPtr expression_only() {
    ExprPtr e = expr();
    expect(Tok::kEnd, "after expression");
    return e;
  }

  TypePtr type_only() {
    TypePtr t = type();
    expect(Tok::kEnd, "after type");
    return t;
  }

 private:
  // --- token plumbing --------------------------------------------------------

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    std::size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;  // the kEnd token
    return tokens_[i];
  }

  [[nodiscard]] bool at(Tok t) const { return peek().kind == t; }

  const Token& advance() { return tokens_[pos_++]; }

  bool accept(Tok t) {
    if (at(t)) {
      advance();
      return true;
    }
    return false;
  }

  const Token& expect(Tok t, const char* context) {
    if (!at(t)) {
      fail("expected " + token_name(t) + " " + context + ", found " +
           token_name(peek().kind));
    }
    return advance();
  }

  [[noreturn]] void fail(const std::string& msg) const {
    const Token& t = peek();
    throw SyntaxError("parse error at " + std::to_string(t.loc.line) + ":" +
                      std::to_string(t.loc.column) + ": " + msg);
  }

  /// A tuple component index written as decimal digits; one that does not
  /// fit an int is an error rather than a wrapped or truncated index.
  int component_index(std::string_view digits) const {
    int value = 0;
    const char* end = digits.data() + digits.size();
    auto [ptr, ec] = std::from_chars(digits.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
      fail("tuple component index out of range: " + std::string(digits));
    }
    return value;
  }

  // --- types -----------------------------------------------------------------

  TypePtr type() {
    // Recursive descent mirrors source nesting; bound it so adversarially
    // deep inputs trap (T003) instead of overrunning the C++ stack.
    rt::NestingGuard nesting(&depth_, "parser");
    if (at(Tok::kIdent)) {
      const std::string& name = peek().text;
      if (name == "int") {
        advance();
        return Type::int_();
      }
      if (name == "real") {
        advance();
        return Type::real();
      }
      if (name == "bool") {
        advance();
        return Type::bool_();
      }
      if (name == "seq") {
        advance();
        expect(Tok::kLParen, "after 'seq'");
        TypePtr elem = type();
        expect(Tok::kRParen, "to close 'seq('");
        return Type::seq(std::move(elem));
      }
      fail("unknown type name '" + name + "'");
    }
    if (accept(Tok::kLParen)) {
      std::vector<TypePtr> items;
      if (!at(Tok::kRParen)) {
        items.push_back(type());
        while (accept(Tok::kComma)) items.push_back(type());
      }
      expect(Tok::kRParen, "to close type list");
      if (accept(Tok::kArrow)) {
        TypePtr result = type();
        return Type::fun(std::move(items), std::move(result));
      }
      if (items.size() == 1) return items[0];
      if (items.empty()) fail("empty tuple type");
      return Type::tuple(std::move(items));
    }
    fail("expected a type");
  }

  // --- function definitions --------------------------------------------------

  std::vector<Param> params() {
    std::vector<Param> ps;
    expect(Tok::kLParen, "to open parameter list");
    if (!at(Tok::kRParen)) {
      do {
        Param p;
        p.name = expect(Tok::kIdent, "as parameter name").text;
        expect(Tok::kColon, "after parameter name");
        p.type = type();
        ps.push_back(std::move(p));
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "to close parameter list");
    return ps;
  }

  FunDef fundef() {
    FunDef f;
    f.loc = peek().loc;
    expect(Tok::kFun, "to begin a function definition");
    f.name = expect(Tok::kIdent, "as function name").text;
    f.params = params();
    if (accept(Tok::kColon)) f.result = type();
    expect(Tok::kAssign, "before function body");
    f.body = expr();
    return f;
  }

  // --- expressions -----------------------------------------------------------

  ExprPtr expr() {
    // Same stack-depth bound as type(): parse depth tracks source nesting.
    rt::NestingGuard nesting(&depth_, "parser");
    SourceLoc loc = peek().loc;
    if (at(Tok::kFun)) return lambda(loc);
    if (accept(Tok::kLet)) {
      // Destructuring form: let (a, b, ...) = e in body
      if (accept(Tok::kLParen)) {
        std::vector<std::string> names;
        do {
          names.push_back(expect(Tok::kIdent, "in destructuring let").text);
        } while (accept(Tok::kComma));
        expect(Tok::kRParen, "to close destructuring pattern");
        expect(Tok::kAssign, "after destructuring pattern");
        ExprPtr init = expr();
        expect(Tok::kIn, "after let initializer");
        ExprPtr body = expr();
        // let _tdst = e in let a = _tdst.1 in let b = _tdst.2 in ... body
        std::string tmp = "_tdst" + std::to_string(++update_counter_);
        for (std::size_t k = names.size(); k-- > 0;) {
          ExprPtr comp = make_expr(
              TupleGet{make_expr(VarRef{tmp, false}, nullptr, loc),
                       static_cast<int>(k) + 1},
              nullptr, loc);
          body = make_expr(Let{names[k], std::move(comp), std::move(body)},
                           nullptr, loc);
        }
        return make_expr(Let{tmp, std::move(init), std::move(body)}, nullptr,
                         loc);
      }
      std::string var = expect(Tok::kIdent, "after 'let'").text;
      expect(Tok::kAssign, "after let variable");
      ExprPtr init = expr();
      expect(Tok::kIn, "after let initializer");
      ExprPtr body = expr();
      return make_expr(Let{std::move(var), std::move(init), std::move(body)},
                       nullptr, loc);
    }
    if (accept(Tok::kIf)) {
      ExprPtr cond = expr();
      expect(Tok::kThen, "after if condition");
      ExprPtr then_e = expr();
      expect(Tok::kElse, "after then branch");
      ExprPtr else_e = expr();
      return make_expr(
          If{std::move(cond), std::move(then_e), std::move(else_e)}, nullptr,
          loc);
    }
    return or_expr();
  }

  ExprPtr lambda(SourceLoc loc) {
    expect(Tok::kFun, "to begin a lambda");
    std::vector<Param> ps = params();
    expect(Tok::kFatArrow, "after lambda parameters");
    ExprPtr body = expr();
    LambdaExpr lam;
    for (Param& p : ps) {
      lam.params.push_back(std::move(p.name));
      lam.param_types.push_back(std::move(p.type));
    }
    lam.body = std::move(body);
    return make_expr(std::move(lam), nullptr, loc);
  }

  ExprPtr prim_call(const char* name, std::vector<ExprPtr> args,
                    SourceLoc loc) {
    ExprPtr callee = make_expr(VarRef{name, false}, nullptr, loc);
    return make_expr(Call{std::move(callee), std::move(args)}, nullptr, loc);
  }

  ExprPtr or_expr() {
    ExprPtr lhs = and_expr();
    while (at(Tok::kOr)) {
      SourceLoc loc = advance().loc;
      lhs = prim_call("or", {lhs, and_expr()}, loc);
    }
    return lhs;
  }

  ExprPtr and_expr() {
    ExprPtr lhs = not_expr();
    while (at(Tok::kAnd)) {
      SourceLoc loc = advance().loc;
      lhs = prim_call("and", {lhs, not_expr()}, loc);
    }
    return lhs;
  }

  ExprPtr not_expr() {
    if (at(Tok::kNot)) {
      SourceLoc loc = advance().loc;
      return prim_call("not", {not_expr()}, loc);
    }
    return cmp_expr();
  }

  ExprPtr cmp_expr() {
    ExprPtr lhs = add_expr();
    const char* op = nullptr;
    switch (peek().kind) {
      case Tok::kEqEq:
        op = "==";
        break;
      case Tok::kBangEq:
        op = "!=";
        break;
      case Tok::kLt:
        op = "<";
        break;
      case Tok::kLe:
        op = "<=";
        break;
      case Tok::kGt:
        op = ">";
        break;
      case Tok::kGe:
        op = ">=";
        break;
      default:
        return lhs;
    }
    SourceLoc loc = advance().loc;
    return prim_call(op, {lhs, add_expr()}, loc);  // comparisons non-assoc
  }

  ExprPtr add_expr() {
    ExprPtr lhs = mul_expr();
    for (;;) {
      if (at(Tok::kPlus)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("+", {lhs, mul_expr()}, loc);
      } else if (at(Tok::kMinus)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("-", {lhs, mul_expr()}, loc);
      } else if (at(Tok::kPlusPlus)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("concat", {lhs, mul_expr()}, loc);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr mul_expr() {
    ExprPtr lhs = unary_expr();
    for (;;) {
      if (at(Tok::kStar)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("*", {lhs, unary_expr()}, loc);
      } else if (at(Tok::kSlash)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("/", {lhs, unary_expr()}, loc);
      } else if (at(Tok::kMod)) {
        SourceLoc loc = advance().loc;
        lhs = prim_call("mod", {lhs, unary_expr()}, loc);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr unary_expr() {
    if (at(Tok::kMinus)) {
      SourceLoc loc = advance().loc;
      return prim_call("neg", {unary_expr()}, loc);
    }
    if (at(Tok::kHash)) {
      SourceLoc loc = advance().loc;
      return prim_call("length", {unary_expr()}, loc);
    }
    return postfix_expr();
  }

  ExprPtr postfix_expr() {
    ExprPtr e = primary_expr();
    for (;;) {
      if (at(Tok::kLParen)) {
        SourceLoc loc = advance().loc;
        std::vector<ExprPtr> args;
        if (!at(Tok::kRParen)) {
          args.push_back(expr());
          while (accept(Tok::kComma)) args.push_back(expr());
        }
        expect(Tok::kRParen, "to close argument list");
        e = make_expr(Call{std::move(e), std::move(args)}, nullptr, loc);
      } else if (at(Tok::kLBracket)) {
        SourceLoc loc = advance().loc;
        ExprPtr index = expr();
        expect(Tok::kRBracket, "to close index");
        e = prim_call("seq_index", {std::move(e), std::move(index)}, loc);
      } else if (at(Tok::kDot)) {
        SourceLoc loc = advance().loc;
        // "t.2.1" lexes the trailing "2.1" as a real literal; reinterpret
        // it as two chained component indices.
        if (at(Tok::kRealLit)) {
          const Token& k = advance();
          std::size_t dot = k.text.find('.');
          if (dot == std::string::npos ||
              k.text.find_first_not_of("0123456789.") != std::string::npos ||
              k.text.find('.', dot + 1) != std::string::npos) {
            fail("expected integer tuple component indices");
          }
          int first = component_index(k.text.substr(0, dot));
          int second = component_index(k.text.substr(dot + 1));
          e = make_expr(TupleGet{std::move(e), first}, nullptr, loc);
          e = make_expr(TupleGet{std::move(e), second}, nullptr, loc);
        } else {
          const Token& k = expect(Tok::kIntLit, "as tuple component index");
          e = make_expr(TupleGet{std::move(e), component_index(k.text)},
                        nullptr, loc);
        }
      } else {
        return e;
      }
    }
  }

  ExprPtr primary_expr() {
    SourceLoc loc = peek().loc;
    if (at(Tok::kIntLit)) {
      return make_expr(IntLit{advance().int_value}, nullptr, loc);
    }
    if (at(Tok::kRealLit)) {
      return make_expr(RealLit{advance().real_value}, nullptr, loc);
    }
    if (accept(Tok::kTrue)) return make_expr(BoolLit{true}, nullptr, loc);
    if (accept(Tok::kFalse)) return make_expr(BoolLit{false}, nullptr, loc);
    if (at(Tok::kIdent)) {
      return make_expr(VarRef{advance().text, false}, nullptr, loc);
    }
    if (accept(Tok::kLParen)) return paren_expr(loc);
    if (accept(Tok::kLBracket)) return bracket_expr(loc);
    fail("expected an expression, found " + token_name(peek().kind));
  }

  /// '(' already consumed: grouping, tuple, or ascribed sequence literal.
  ExprPtr paren_expr(SourceLoc loc) {
    ExprPtr first = expr();
    // Deep functional update, Table 2: (s; [i1][i2]...[ik] : v).
    if (accept(Tok::kSemicolon)) {
      std::vector<ExprPtr> path;
      while (accept(Tok::kLBracket)) {
        path.push_back(expr());
        expect(Tok::kRBracket, "to close update index");
      }
      if (path.empty()) fail("expected '[index]' after ';' in update form");
      expect(Tok::kColon, "before update value");
      ExprPtr value = expr();
      expect(Tok::kRParen, "to close update form");
      return build_update(first, path, 0, std::move(value), loc);
    }
    // Sequence-literal ascription: ( [..] : seq(T) ). Needed to type empty
    // literals; propagates elementwise into nested literals.
    if (accept(Tok::kColon)) {
      TypePtr t = type();
      expect(Tok::kRParen, "to close ascribed literal");
      return propagate_seq_type(first, t, loc);
    }
    if (accept(Tok::kComma)) {
      std::vector<ExprPtr> elems;
      elems.push_back(std::move(first));
      do {
        elems.push_back(expr());
      } while (accept(Tok::kComma));
      expect(Tok::kRParen, "to close tuple");
      return make_expr(TupleExpr{std::move(elems)}, nullptr, loc);
    }
    expect(Tok::kRParen, "to close parenthesized expression");
    return first;
  }

  /// '[' already consumed: range, iterator, or sequence literal.
  ExprPtr bracket_expr(SourceLoc loc) {
    // Iterator: [ IDENT <- ... ]
    if (peek().kind == Tok::kIdent && peek(1).kind == Tok::kLeftArrow) {
      std::string var = advance().text;
      advance();  // <-
      ExprPtr domain = expr();
      ExprPtr filter;
      if (accept(Tok::kBar)) filter = expr();
      expect(Tok::kColon, "before iterator body");
      ExprPtr body = expr();
      expect(Tok::kRBracket, "to close iterator");
      return make_expr(Iterator{std::move(var), std::move(domain),
                                std::move(filter), std::move(body)},
                       nullptr, loc);
    }
    if (accept(Tok::kRBracket)) {
      // Untyped empty literal: legal when the element type is inferable
      // from siblings or an ascription; the checker rejects it otherwise.
      return make_expr(SeqExpr{}, nullptr, loc);
    }
    ExprPtr first = expr();
    if (accept(Tok::kDotDot)) {
      ExprPtr hi = expr();
      expect(Tok::kRBracket, "to close range");
      return prim_call("range", {std::move(first), std::move(hi)}, loc);
    }
    std::vector<ExprPtr> elems;
    elems.push_back(std::move(first));
    while (accept(Tok::kComma)) elems.push_back(expr());
    expect(Tok::kRBracket, "to close sequence literal");
    SeqExpr lit;
    lit.elems = std::move(elems);
    return make_expr(std::move(lit), nullptr, loc);
  }

  /// Desugars the deep update (s; [i1]...[ik] : v) of Table 2 into nested
  /// single-level updates:
  ///   (s; [i] : v)    = update(s, i, v)
  ///   (s; [i]p : v)   = let a = s in let b = i in
  ///                     update(a, b, (a[b]; p : v))
  ExprPtr build_update(ExprPtr seq, const std::vector<ExprPtr>& path,
                       std::size_t k, ExprPtr value, SourceLoc loc) {
    if (k + 1 == path.size()) {
      return prim_call("update", {std::move(seq), path[k], std::move(value)},
                       loc);
    }
    std::string a = "_tupd" + std::to_string(++update_counter_);
    std::string b = "_tupi" + std::to_string(update_counter_);
    ExprPtr avar = make_expr(VarRef{a, false}, nullptr, loc);
    ExprPtr bvar = make_expr(VarRef{b, false}, nullptr, loc);
    ExprPtr elem = prim_call("seq_index", {avar, bvar}, loc);
    ExprPtr inner =
        build_update(std::move(elem), path, k + 1, std::move(value), loc);
    ExprPtr updated = prim_call("update", {avar, bvar, std::move(inner)}, loc);
    ExprPtr with_b = make_expr(Let{b, path[k], std::move(updated)}, nullptr,
                               loc);
    return make_expr(Let{a, std::move(seq), std::move(with_b)}, nullptr, loc);
  }

  int update_counter_ = 0;

  /// Pushes an ascribed sequence type down into a (possibly nested)
  /// sequence literal, filling elem_type fields.
  ExprPtr propagate_seq_type(const ExprPtr& e, const TypePtr& t,
                             SourceLoc loc) {
    const auto* lit = as<SeqExpr>(e);
    if (lit == nullptr) {
      fail("type ascription is only supported on sequence literals");
    }
    if (!t->is_seq()) {
      fail("sequence literal ascribed the non-sequence type " + to_string(t));
    }
    SeqExpr out;
    out.elem_type = t->elem();
    out.elems.reserve(lit->elems.size());
    for (const ExprPtr& elem : lit->elems) {
      if (as<SeqExpr>(elem) != nullptr && t->elem()->is_seq()) {
        out.elems.push_back(propagate_seq_type(elem, t->elem(), elem->loc));
      } else {
        out.elems.push_back(elem);
      }
    }
    return make_expr(std::move(out), t, loc);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< current grammar-recursion depth (expr/type)
};

}  // namespace

Program parse_program(std::string_view source) {
  return Parser(source).program();
}

ExprPtr parse_expression(std::string_view source) {
  return Parser(source).expression_only();
}

TypePtr parse_type(std::string_view source) {
  return Parser(source).type_only();
}

}  // namespace proteus::lang
