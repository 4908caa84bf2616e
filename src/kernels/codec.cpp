#include "kernels/codec.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lang/lexer.hpp"
#include "vl/check.hpp"

namespace proteus::kernels {

using lang::TypeKind;
using lang::TypePtr;

namespace {

// --- decode -------------------------------------------------------------------

/// The builder of one type node: the vectors of every element decoded so
/// far at that level of the literal.
struct Column {
  std::vector<Int> ints;      ///< int values, or a seq node's lengths
  std::vector<Real> reals;
  std::vector<vl::Bool> bools;
  std::vector<Column> slots;  ///< seq: the element node; tuple: one per slot
};

Column column_for(const TypePtr& t) {
  Column c;
  if (t->is_seq()) {
    c.slots.push_back(column_for(t->elem()));
  } else if (t->is_tuple()) {
    for (const TypePtr& comp : t->components()) {
      c.slots.push_back(column_for(comp));
    }
  }
  return c;
}

/// The lexer's whitespace (std::isspace in the C locale).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Reads the fast grammar, one element at a time, onto the builders.
class Reader {
 public:
  explicit Reader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Appends one element of type `t` to `c`. False when the input is
  /// outside the fast grammar or not of type `t`.
  bool element(const TypePtr& t, Column& c) {
    switch (t->kind()) {
      case TypeKind::kInt: {
        Int v = 0;
        if (!integer(v)) return false;
        c.ints.push_back(v);
        return true;
      }
      case TypeKind::kReal: {
        Real v = 0;
        if (!real(v)) return false;
        c.reals.push_back(v);
        return true;
      }
      case TypeKind::kBool: {
        bool v = false;
        if (!boolean(v)) return false;
        c.bools.push_back(static_cast<vl::Bool>(v));
        return true;
      }
      case TypeKind::kSeq: {
        if (!eat('[')) return false;
        Int n = 0;
        if (!eat(']')) {
          do {
            if (!element(t->elem(), c.slots[0])) return false;
            ++n;
          } while (eat(','));
          if (!eat(']')) return false;
        }
        c.ints.push_back(n);
        return true;
      }
      case TypeKind::kTuple: {
        if (!eat('(')) return false;
        const auto& comps = t->components();
        for (std::size_t j = 0; j < comps.size(); ++j) {
          if (j > 0 && !eat(',')) return false;
          if (!element(comps[j], c.slots[j])) return false;
        }
        return eat(')');
      }
      case TypeKind::kFun:
        return false;
    }
    return false;
  }

  bool at_end() {
    skip_space();
    return p_ == end_;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  bool eat(char ch) {
    skip_space();
    if (p_ == end_ || *p_ != ch) return false;
    ++p_;
    return true;
  }

  /// A scalar token must end where the grammar can continue: "1..3",
  /// "1+2", "5.x" and "truex" are not literals of the subset.
  [[nodiscard]] bool delimited() const {
    return p_ == end_ || is_space(*p_) || *p_ == ',' || *p_ == ']' ||
           *p_ == ')';
  }

  /// Scans an optionally negated number token of the wanted form; on
  /// success `token` holds its digits and p_ is past it.
  bool number(bool want_real, bool& negative, std::string_view& token) {
    skip_space();
    negative = p_ != end_ && *p_ == '-';
    const char* start = p_ + (negative ? 1 : 0);
    if (start == end_ || !is_digit(*start)) return false;
    const lang::NumberExtent n = lang::scan_number(
        std::string_view(start, static_cast<std::size_t>(end_ - start)));
    if (n.is_real != want_real) return false;
    token = std::string_view(start, n.length);
    p_ = start + n.length;
    return delimited();
  }

  bool integer(Int& out) {
    bool negative = false;
    std::string_view token;
    if (!number(false, negative, token)) return false;
    std::optional<Int> v = lang::int_literal_value(token);
    if (!v.has_value()) return false;
    out = negative ? -*v : *v;
    return true;
  }

  bool real(Real& out) {
    bool negative = false;
    std::string_view token;
    if (!number(true, negative, token)) return false;
    std::optional<Real> v = lang::real_literal_value(token);
    if (!v.has_value()) return false;
    out = negative ? -*v : *v;
    return true;
  }

  bool boolean(bool& out) {
    skip_space();
    const std::string_view rest(p_, static_cast<std::size_t>(end_ - p_));
    for (const bool v : {true, false}) {
      const std::string_view word = v ? "true" : "false";
      if (rest.substr(0, word.size()) == word) {
        p_ += word.size();
        out = v;
        return delimited();
      }
    }
    return false;
  }

  const char* p_;
  const char* end_;
};

/// The element array of every element decoded onto `c`, whose elements
/// have type `elem`. Exact-size buffers, outer level before inner levels
/// and tuple slots left to right: interp::to_array's allocation order.
Array finish(const Column& c, const TypePtr& elem) {
  switch (elem->kind()) {
    case TypeKind::kInt:
      return Array::ints(vl::IntVec(c.ints.begin(), c.ints.end()));
    case TypeKind::kReal:
      return Array::reals(vl::RealVec(c.reals.begin(), c.reals.end()));
    case TypeKind::kBool:
      return Array::bools(vl::BoolVec(c.bools.begin(), c.bools.end()));
    case TypeKind::kSeq: {
      vl::IntVec lengths(c.ints.begin(), c.ints.end());
      // Array::nested checks #V_{i+1} == sum(V_i).
      return Array::nested(std::move(lengths),
                           finish(c.slots[0], elem->elem()));
    }
    case TypeKind::kTuple: {
      const auto& comps = elem->components();
      std::vector<Array> slots;
      slots.reserve(comps.size());
      for (std::size_t j = 0; j < comps.size(); ++j) {
        slots.push_back(finish(c.slots[j], comps[j]));
      }
      return Array::tuple(std::move(slots));
    }
    case TypeKind::kFun:
      break;
  }
  throw EvalError("sequences of function values have no flat representation");
}

/// The one element decoded onto the root builder `c`, of type `t`.
VValue root_value(const Column& c, const TypePtr& t) {
  switch (t->kind()) {
    case TypeKind::kInt:
      return VValue::ints(c.ints[0]);
    case TypeKind::kReal:
      return VValue::reals(c.reals[0]);
    case TypeKind::kBool:
      return VValue::bools(c.bools[0] != 0);
    case TypeKind::kSeq:
      return VValue::seq(finish(c.slots[0], t->elem()));
    case TypeKind::kTuple: {
      const auto& comps = t->components();
      std::vector<VValue> out;
      out.reserve(comps.size());
      for (std::size_t j = 0; j < comps.size(); ++j) {
        out.push_back(root_value(c.slots[j], comps[j]));
      }
      return VValue::tuple(std::move(out));
    }
    case TypeKind::kFun:
      break;
  }
  throw EvalError("function values have no literal form");
}

// --- encode -------------------------------------------------------------------

/// The read position in one Array node of a value: the pointer of the
/// node's own vector advances past each element as it is written. In a
/// left-to-right walk every node is read in order, so one position per
/// node replaces the descriptor prefix sums random access would need.
struct Cursor {
  const Int* ints = nullptr;  ///< int values, or a seq node's lengths
  const Real* reals = nullptr;
  const vl::Bool* bools = nullptr;
  std::vector<Cursor> slots;  ///< seq: the element node; tuple: one per slot
};

Cursor cursor_for(const Array& a, const TypePtr& elem) {
  Cursor c;
  switch (elem->kind()) {
    case TypeKind::kInt:
      c.ints = a.int_values().data();
      return c;
    case TypeKind::kReal:
      c.reals = a.real_values().data();
      return c;
    case TypeKind::kBool:
      c.bools = a.bool_values().data();
      return c;
    case TypeKind::kSeq:
      c.ints = a.lengths().data();
      c.slots.push_back(cursor_for(a.inner(), elem->elem()));
      return c;
    case TypeKind::kTuple: {
      const auto& comps = elem->components();
      PROTEUS_REQUIRE(EvalError, a.components().size() == comps.size(),
                      "tuple arity mismatch in conversion");
      for (std::size_t j = 0; j < comps.size(); ++j) {
        c.slots.push_back(cursor_for(a.components()[j], comps[j]));
      }
      return c;
    }
    case TypeKind::kFun:
      break;
  }
  throw EvalError("sequences of function values have no flat representation");
}

/// The powers of ten a double holds exactly (up to those put_g6 needs).
constexpr Real kPow10[] = {1e0, 1e1, 1e2, 1e3,  1e4,  1e5,  1e6,  1e7,
                           1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void value(const VValue& v, const TypePtr& t) {
    switch (t->kind()) {
      case TypeKind::kInt:
        put(v.as_int());
        return;
      case TypeKind::kReal:
        put(v.as_real());
        return;
      case TypeKind::kBool:
        put(v.as_bool());
        return;
      case TypeKind::kSeq: {
        const Array& a = v.as_seq();
        Cursor c = cursor_for(a, t->elem());
        out_ += '[';
        for (Size i = 0; i < a.length(); ++i) {
          if (i > 0) out_ += ',';
          element(c, t->elem());
        }
        out_ += ']';
        return;
      }
      case TypeKind::kTuple: {
        const auto& comps = t->components();
        const auto& vals = v.as_tuple();
        PROTEUS_REQUIRE(EvalError, comps.size() == vals.size(),
                        "tuple arity mismatch in conversion");
        out_ += '(';
        for (std::size_t j = 0; j < comps.size(); ++j) {
          if (j > 0) out_ += ',';
          value(vals[j], comps[j]);
        }
        out_ += ')';
        return;
      }
      case TypeKind::kFun:
        out_ += '<';
        out_ += v.fun_name();
        out_ += '>';
        return;
    }
  }

 private:
  /// Writes the next element of the node under `c` and advances it.
  void element(Cursor& c, const TypePtr& t) {
    switch (t->kind()) {
      case TypeKind::kInt:
        put(*c.ints++);
        return;
      case TypeKind::kReal:
        put(*c.reals++);
        return;
      case TypeKind::kBool:
        put(*c.bools++ != 0);
        return;
      case TypeKind::kSeq: {
        const Int n = *c.ints++;
        out_ += '[';
        for (Int k = 0; k < n; ++k) {
          if (k > 0) out_ += ',';
          element(c.slots[0], t->elem());
        }
        out_ += ']';
        return;
      }
      case TypeKind::kTuple: {
        const auto& comps = t->components();
        out_ += '(';
        for (std::size_t j = 0; j < comps.size(); ++j) {
          if (j > 0) out_ += ',';
          element(c.slots[j], comps[j]);
        }
        out_ += ')';
        return;
      }
      case TypeKind::kFun:
        return;  // cursor_for rejected function elements
    }
  }

  void put(Int v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, r.ptr);
  }

  /// `std::ostream << double` with the default flags, which is printf's
  /// "%.6g": written directly where that is provably exact, and by the
  /// boxed renderer (a stream) otherwise.
  void put(Real v) {
    if (put_g6(v)) return;
    out_ += interp::to_text(interp::Value::reals(v));
  }

  /// "%.6g" for zero and for |v| in [1e-5, 1e15). The six significant
  /// digits are y = |v| * 10^(5-X) rounded to an integer, X the decimal
  /// exponent of the leading digit. 10^|5-X| is exact, so y is one
  /// correctly rounded operation on exact operands: it is off by less
  /// than 2^-34 (y < 2^20), and its nearest integer is the exact one
  /// unless y lies within 1e-6 of a half, where this declines. Neither
  /// std::to_chars (whose tables would add ~200 KB to a small daemon's
  /// resident set) nor the locale is involved.
  bool put_g6(Real v) {
    if (v == 0) {
      out_ += std::signbit(v) ? "-0" : "0";
      return true;
    }
    const Real a = v < 0 ? -v : v;
    if (!(a >= 1e-5 && a < 1e15)) return false;  // also NaN and inf
    int x = 0;
    if (a >= 1) {
      while (a >= kPow10[x + 1]) ++x;
    } else {
      while (a * kPow10[-x] < 1) --x;
    }
    auto scaled = [a](int e) {
      const int k = 5 - e;
      return k >= 0 ? a * kPow10[k] : a / kPow10[-k];
    };
    Real y = scaled(x);
    if (y >= 1e6) {
      y = scaled(++x);
    } else if (y < 1e5) {
      y = scaled(--x);
    }
    if (!(y >= 99999.5 && y < 1e6)) return false;
    const auto whole = static_cast<std::int64_t>(y);
    const Real frac = y - static_cast<Real>(whole);
    if (frac > 0.5 - 1e-6 && frac < 0.5 + 1e-6) return false;
    std::int64_t m = whole + (frac > 0.5 ? 1 : 0);
    if (m == 1000000) {  // 999999.5 and up: one more digit of exponent
      m = 100000;
      ++x;
    }
    char digits[6];
    for (int i = 5; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + m % 10);
      m /= 10;
    }
    std::size_t n = 6;  // %g drops trailing zeros
    while (n > 1 && digits[n - 1] == '0') --n;
    if (v < 0) out_ += '-';
    if (x < -4 || x >= 6) {
      out_ += digits[0];
      if (n > 1) {
        out_ += '.';
        out_.append(digits + 1, n - 1);
      }
      out_ += x < 0 ? "e-" : "e+";
      const int e = x < 0 ? -x : x;
      out_ += static_cast<char>('0' + e / 10);
      out_ += static_cast<char>('0' + e % 10);
    } else if (x >= 0) {
      const auto point = static_cast<std::size_t>(x) + 1;
      for (std::size_t i = 0; i < point; ++i) {
        out_ += i < n ? digits[i] : '0';
      }
      if (n > point) {
        out_ += '.';
        out_.append(digits + point, n - point);
      }
    } else {
      out_ += "0.";
      out_.append(static_cast<std::size_t>(-x - 1), '0');
      out_.append(digits, n);
    }
    return true;
  }

  void put(bool v) { out_ += v ? "true" : "false"; }

  std::string& out_;
};

}  // namespace

std::optional<VValue> decode(std::string_view text, const TypePtr& type) {
  Column root = column_for(type);
  Reader reader(text);
  if (!reader.element(type, root) || !reader.at_end()) return std::nullopt;
  return root_value(root, type);
}

void encode(const VValue& v, const TypePtr& type, std::string& out) {
  Writer(out).value(v, type);
}

}  // namespace proteus::kernels
