#include "lang/lexer.hpp"

#include <cctype>
#include <charconv>
#include <unordered_map>

#include "vl/check.hpp"

namespace proteus::lang {

namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kw{
      {"fun", Tok::kFun},   {"let", Tok::kLet},     {"in", Tok::kIn},
      {"if", Tok::kIf},     {"then", Tok::kThen},   {"else", Tok::kElse},
      {"true", Tok::kTrue}, {"false", Tok::kFalse}, {"and", Tok::kAnd},
      {"or", Tok::kOr},     {"not", Tok::kNot},     {"mod", Tok::kMod},
  };
  return kw;
}

class Scanner {
 public:
  explicit Scanner(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skip_trivia();
      Token t = next();
      const bool done = t.kind == Tok::kEnd;
      out.push_back(std::move(t));
      if (done) return out;
    }
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_trivia() {
    for (;;) {
      while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
        advance();
      }
      if (peek() == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
        continue;
      }
      return;
    }
  }

  [[nodiscard]] SourceLoc here() const { return {line_, col_}; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw SyntaxError("lex error at " + std::to_string(line_) + ":" +
                      std::to_string(col_) + ": " + msg);
  }

  Token make(Tok kind, SourceLoc loc, std::string text = {}) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.loc = loc;
    return t;
  }

  Token next() {
    SourceLoc loc = here();
    if (at_end()) return make(Tok::kEnd, loc);

    char c = peek();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return identifier(loc);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return number(loc);
    }

    advance();
    switch (c) {
      case '(':
        return make(Tok::kLParen, loc);
      case ')':
        return make(Tok::kRParen, loc);
      case '[':
        return make(Tok::kLBracket, loc);
      case ']':
        return make(Tok::kRBracket, loc);
      case ',':
        return make(Tok::kComma, loc);
      case ':':
        return make(Tok::kColon, loc);
      case ';':
        return make(Tok::kSemicolon, loc);
      case '#':
        return make(Tok::kHash, loc);
      case '|':
        return make(Tok::kBar, loc);
      case '.':
        if (peek() == '.') {
          advance();
          return make(Tok::kDotDot, loc);
        }
        return make(Tok::kDot, loc);
      case '+':
        if (peek() == '+') {
          advance();
          return make(Tok::kPlusPlus, loc);
        }
        return make(Tok::kPlus, loc);
      case '-':
        if (peek() == '>') {
          advance();
          return make(Tok::kArrow, loc);
        }
        return make(Tok::kMinus, loc);
      case '*':
        return make(Tok::kStar, loc);
      case '/':
        return make(Tok::kSlash, loc);
      case '=':
        if (peek() == '=') {
          advance();
          return make(Tok::kEqEq, loc);
        }
        if (peek() == '>') {
          advance();
          return make(Tok::kFatArrow, loc);
        }
        return make(Tok::kAssign, loc);
      case '!':
        if (peek() == '=') {
          advance();
          return make(Tok::kBangEq, loc);
        }
        fail("expected '=' after '!'");
      case '<':
        if (peek() == '-') {
          advance();
          return make(Tok::kLeftArrow, loc);
        }
        if (peek() == '=') {
          advance();
          return make(Tok::kLe, loc);
        }
        return make(Tok::kLt, loc);
      case '>':
        if (peek() == '=') {
          advance();
          return make(Tok::kGe, loc);
        }
        return make(Tok::kGt, loc);
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Token identifier(SourceLoc loc) {
    std::size_t start = pos_;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                         peek() == '_' || peek() == '^')) {
      advance();
    }
    std::string text(src_.substr(start, pos_ - start));
    auto it = keywords().find(text);
    if (it != keywords().end()) return make(it->second, loc);
    Token t = make(Tok::kIdent, loc, std::move(text));
    return t;
  }

  Token number(SourceLoc loc) {
    const NumberExtent n = scan_number(src_.substr(pos_));
    std::string text(src_.substr(pos_, n.length));
    for (std::size_t i = 0; i < n.length; ++i) advance();
    Token t = make(n.is_real ? Tok::kRealLit : Tok::kIntLit, loc, text);
    if (n.is_real) {
      std::optional<double> value = real_literal_value(text);
      if (!value.has_value()) fail("real literal out of range: " + text);
      t.real_value = *value;
    } else {
      std::optional<std::int64_t> value = int_literal_value(text);
      if (!value.has_value()) fail("integer literal out of range: " + text);
      t.int_value = *value;
    }
    return t;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  return Scanner(source).run();
}

NumberExtent scan_number(std::string_view s) {
  auto digit = [&](std::size_t i) {
    return i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]));
  };
  NumberExtent n;
  std::size_t i = 0;
  while (digit(i)) ++i;
  if (i < s.size() && s[i] == '.' && digit(i + 1)) {
    n.is_real = true;
    for (++i; digit(i);) ++i;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    std::size_t j = i + 1;
    if (j < s.size() && (s[j] == '+' || s[j] == '-')) ++j;
    if (digit(j)) {
      n.is_real = true;
      for (i = j; digit(i);) ++i;
    }
  }
  n.length = i;
  return n;
}

std::optional<std::int64_t> int_literal_value(std::string_view token) {
  std::int64_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

namespace {

/// The powers of ten a double holds exactly.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};

/// Clinger's fast path: a literal whose significant digits form an
/// integer w < 2^53 and whose decimal exponent q has |q| <= 22 is w * 10^q
/// (or w / 10^-q), one IEEE operation on two exact operands and so
/// correctly rounded. Short literals like "1.250" all take it.
std::optional<double> exact_small_real(std::string_view token) {
  std::uint64_t w = 0;
  int digits = 0;     // significant digits in w
  int q = 0;          // decimal exponent of w's last digit
  bool fraction = false;
  std::size_t i = 0;
  for (; i < token.size(); ++i) {
    const char c = token[i];
    if (c == '.') {
      fraction = true;
      continue;
    }
    if (c == 'e' || c == 'E') break;
    if (c < '0' || c > '9') return std::nullopt;
    if (w == 0 && c == '0') {
      if (fraction) --q;  // leading zero: no significant digit yet
      continue;
    }
    if (++digits > 15) return std::nullopt;
    w = w * 10 + static_cast<std::uint64_t>(c - '0');
    if (fraction) --q;
  }
  if (i < token.size()) {  // exponent: [eE][+-]digits
    ++i;
    bool negative = false;
    if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
      negative = token[i++] == '-';
    }
    int e = 0;
    if (i == token.size()) return std::nullopt;
    for (; i < token.size(); ++i) {
      if (token[i] < '0' || token[i] > '9' || e > 1000) return std::nullopt;
      e = e * 10 + (token[i] - '0');
    }
    q += negative ? -e : e;
  }
  if (w == 0) return 0.0;
  if (q < -22 || q > 22) return std::nullopt;
  const double x = static_cast<double>(w);
  return q >= 0 ? x * kExactPow10[q] : x / kExactPow10[-q];
}

}  // namespace

std::optional<double> real_literal_value(std::string_view token) {
  if (std::optional<double> v = exact_small_real(token)) return v;
  double value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value,
                                   std::chars_format::general);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string token_name(Tok t) {
  switch (t) {
    case Tok::kEnd:
      return "end of input";
    case Tok::kIdent:
      return "identifier";
    case Tok::kIntLit:
      return "integer literal";
    case Tok::kRealLit:
      return "real literal";
    case Tok::kFun:
      return "'fun'";
    case Tok::kLet:
      return "'let'";
    case Tok::kIn:
      return "'in'";
    case Tok::kIf:
      return "'if'";
    case Tok::kThen:
      return "'then'";
    case Tok::kElse:
      return "'else'";
    case Tok::kTrue:
      return "'true'";
    case Tok::kFalse:
      return "'false'";
    case Tok::kAnd:
      return "'and'";
    case Tok::kOr:
      return "'or'";
    case Tok::kNot:
      return "'not'";
    case Tok::kMod:
      return "'mod'";
    case Tok::kLParen:
      return "'('";
    case Tok::kRParen:
      return "')'";
    case Tok::kLBracket:
      return "'['";
    case Tok::kRBracket:
      return "']'";
    case Tok::kComma:
      return "','";
    case Tok::kColon:
      return "':'";
    case Tok::kSemicolon:
      return "';'";
    case Tok::kDot:
      return "'.'";
    case Tok::kDotDot:
      return "'..'";
    case Tok::kHash:
      return "'#'";
    case Tok::kBar:
      return "'|'";
    case Tok::kAssign:
      return "'='";
    case Tok::kArrow:
      return "'->'";
    case Tok::kFatArrow:
      return "'=>'";
    case Tok::kLeftArrow:
      return "'<-'";
    case Tok::kPlus:
      return "'+'";
    case Tok::kPlusPlus:
      return "'++'";
    case Tok::kMinus:
      return "'-'";
    case Tok::kStar:
      return "'*'";
    case Tok::kSlash:
      return "'/'";
    case Tok::kEqEq:
      return "'=='";
    case Tok::kBangEq:
      return "'!='";
    case Tok::kLt:
      return "'<'";
    case Tok::kLe:
      return "'<='";
    case Tok::kGt:
      return "'>'";
    case Tok::kGe:
      return "'>='";
  }
  return "<token>";
}

}  // namespace proteus::lang
