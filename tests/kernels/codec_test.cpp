// codec_test.cpp — the signature-driven literal codec (kernels/codec.hpp)
// against the boxed path it replaces on the serving path:
//
//   decode(s, T) == from_boxed(parse_value(s), T)
//   encode(v, T) == to_text(to_boxed(v, T))
//
// for seeded random literals of every parameter and result type of the
// example programs and the spmv benchmark program, plus the edge cases of
// the literal grammar: signed zeros, huge, subnormal and out-of-range
// reals, the most negative int, NaN/inf results, whitespace, and the
// expressions the codec leaves to the general evaluator.
#include "kernels/codec.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/proteus.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "rt/trap.hpp"

namespace proteus::kernels {
namespace {

using interp::Value;
using lang::Type;
using lang::TypeKind;
using lang::TypePtr;

/// Bit-exact equality of boxed values (operator== treats -0.0 == 0.0 and
/// NaN != NaN; the codec must preserve the bits).
bool same(const Value& a, const Value& b) {
  if (a.is_int()) return b.is_int() && a.as_int() == b.as_int();
  if (a.is_bool()) return b.is_bool() && a.as_bool() == b.as_bool();
  if (a.is_real()) {
    if (!b.is_real()) return false;
    const double x = a.as_real();
    const double y = b.as_real();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  if (a.is_fun()) return b.is_fun() && a.fun_name() == b.fun_name();
  if (a.is_seq() != b.is_seq() || a.is_tuple() != b.is_tuple()) return false;
  const auto& xs = a.is_seq() ? a.as_seq() : a.as_tuple();
  const auto& ys = b.is_seq() ? b.as_seq() : b.as_tuple();
  if (xs.size() != ys.size()) return false;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!same(xs[i], ys[i])) return false;
  }
  return true;
}

bool same(const VValue& a, const VValue& b, const TypePtr& t) {
  return same(to_boxed(a, t), to_boxed(b, t));
}

/// Every parameter and result type of the example programs and the spmv
/// benchmark program.
std::vector<TypePtr> corpus_types() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& e :
       fs::directory_iterator(fs::path(PROTEUS_SOURCE_DIR) / "examples" /
                              "programs")) {
    if (e.path().extension() == ".p") files.push_back(e.path());
  }
  files.push_back(fs::path(PROTEUS_SOURCE_DIR) / "bench" / "e2e" /
                  "programs" / "spmv.p");
  std::vector<TypePtr> types;
  auto add = [&](const TypePtr& t) {
    for (const TypePtr& have : types) {
      if (lang::equal(have, t)) return;
    }
    types.push_back(t);
  };
  for (const fs::path& f : files) {
    std::ifstream in(f);
    std::stringstream src;
    src << in.rdbuf();
    const lang::Program checked =
        lang::typecheck(lang::parse_program(src.str()));
    for (const lang::FunDef& fn : checked.functions) {
      for (const auto& p : fn.params) add(p.type);
      add(fn.result);
    }
  }
  return types;
}

/// Random literal text of type `t` inside the codec's grammar, with the
/// spellings a client may use: padding, exponents, signs, leading zeros.
class LiteralGen {
 public:
  explicit LiteralGen(std::uint64_t seed) : rng_(seed) {}

  std::string literal(const TypePtr& t, int depth = 0) {
    std::string s = pad();
    switch (t->kind()) {
      case TypeKind::kInt:
        s += int_text();
        break;
      case TypeKind::kReal:
        s += real_text();
        break;
      case TypeKind::kBool:
        s += pick(2) == 0 ? "true" : "false";
        break;
      case TypeKind::kSeq: {
        // Never empty: parse_value rejects an all-empty `[]` as untyped,
        // and the oracle must accept every generated literal.
        const int n = 1 + pick(depth == 0 ? 12 : 4);
        s += '[';
        for (int i = 0; i < n; ++i) {
          if (i > 0) s += pad() + ',';
          s += literal(t->elem(), depth + 1);
        }
        s += pad() + ']';
        break;
      }
      case TypeKind::kTuple: {
        s += '(';
        const auto& comps = t->components();
        for (std::size_t j = 0; j < comps.size(); ++j) {
          if (j > 0) s += pad() + ',';
          s += literal(comps[j], depth + 1);
        }
        s += pad() + ')';
        break;
      }
      case TypeKind::kFun:
        break;
    }
    return s + pad();
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  std::string pad() {
    static const char* const kPads[] = {"", "", "", " ", "\t", "\n  "};
    return kPads[pick(6)];
  }

  std::string int_text() {
    switch (pick(4)) {
      case 0:
        return std::to_string(pick(10));
      case 1:
        return "-" + std::to_string(pick(1000));
      case 2:
        return "00" + std::to_string(pick(100));
      default:
        return std::to_string(
            std::uniform_int_distribution<vl::Int>(
                std::numeric_limits<vl::Int>::min() + 1,
                std::numeric_limits<vl::Int>::max())(rng_));
    }
  }

  std::string real_text() {
    const std::string sign = pick(3) == 0 ? "-" : "";
    const std::string whole = std::to_string(pick(100000));
    const std::string frac = std::to_string(pick(1000));
    switch (pick(5)) {
      case 0:
        return sign + whole + "." + frac;
      case 1:
        return sign + whole + "e" + std::to_string(pick(40) - 20);
      case 2:
        return sign + whole + "." + frac + "E+" + std::to_string(pick(300));
      case 3:
        return sign + "0.0";
      default: {
        std::ostringstream os;
        os.precision(17);
        os << std::uniform_real_distribution<double>(-1e6, 1e6)(rng_);
        std::string s = os.str();
        // A shortest rendering may lack the '.' that makes it a real.
        if (s.find_first_of(".e") == std::string::npos) s += ".5";
        return s;
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(Codec, DecodeMatchesTheBoxedPathOnRandomCorpusLiterals) {
  const std::vector<TypePtr> types = corpus_types();
  ASSERT_GE(types.size(), 10U);
  LiteralGen gen(20260417);
  int checked = 0;
  for (const TypePtr& t : types) {
    if (t->is_fun()) continue;
    for (int round = 0; round < 40; ++round) {
      const std::string s = gen.literal(t);
      const std::optional<VValue> fast = decode(s, t);
      ASSERT_TRUE(fast.has_value()) << lang::to_string(t) << ": " << s;
      const VValue slow = from_boxed(parse_value(s), t);
      ASSERT_TRUE(same(*fast, slow, t)) << lang::to_string(t) << ": " << s;
      ++checked;
    }
  }
  EXPECT_GE(checked, 400);
}

TEST(Codec, EncodeMatchesTheBoxedPathOnRandomCorpusValues) {
  const std::vector<TypePtr> types = corpus_types();
  LiteralGen gen(7);
  for (const TypePtr& t : types) {
    if (t->is_fun()) continue;
    for (int round = 0; round < 40; ++round) {
      const VValue v = from_boxed(parse_value(gen.literal(t)), t);
      std::string text;
      encode(v, t, text);
      ASSERT_EQ(text, interp::to_text(to_boxed(v, t))) << lang::to_string(t);
    }
  }
}

TEST(Codec, RealEdgeCasesDecodeLikeTheParserAndEncodeLikeOstream) {
  const TypePtr real = Type::real();
  for (const char* s : {"-0.0", "0.0", "1e300", "-1e300", "1e-310", "4.9e-324",
                        "1.7976931348623157e308", "123456.5", "0.000001"}) {
    const std::optional<VValue> fast = decode(s, real);
    ASSERT_TRUE(fast.has_value()) << s;
    EXPECT_TRUE(same(*fast, from_boxed(parse_value(s), real), real)) << s;
  }
  EXPECT_TRUE(std::signbit(decode("-0.0", real)->as_real()));

  const double specials[] = {-0.0,
                             0.0,
                             1e300,
                             1e-310,
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min(),
                             1234567.0,
                             0.0001,
                             0.00001};
  const TypePtr seq_real = Type::seq(real);
  vl::RealVec all;
  for (const double d : specials) {
    std::string text;
    encode(VValue::reals(d), real, text);
    EXPECT_EQ(text, interp::to_text(Value::reals(d)));
    all.push_back(d);
  }
  std::string text;
  encode(VValue::seq(Array::reals(all)), seq_real, text);
  EXPECT_EQ(text, interp::to_text(to_boxed(VValue::seq(Array::reals(all)),
                                           seq_real)));
}

TEST(Codec, RealsRenderExactlyAsTheStreamDoes) {
  // The direct %.6g writer against std::ostream << double: random bit
  // patterns, every decade of the direct range, short decimals, and the
  // doubles nearest to six-digit rounding ties and to powers of ten.
  std::vector<double> values;
  std::mt19937_64 rng(31);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
  }
  std::uniform_real_distribution<double> unit(1.0, 10.0);
  for (int e = -8; e <= 17; ++e) {
    for (int i = 0; i < 4000; ++i) {
      values.push_back(unit(rng) * std::pow(10.0, e));
      values.push_back(-static_cast<double>(rng() % 1000000) *
                       std::pow(10.0, e - 6));
    }
  }
  for (int e = -7; e <= 16; ++e) {
    for (const char* digits : {"1234565", "9999995", "1000005", "9999994999",
                               "1", "99999949", "999999500001", "1000000"}) {
      const std::string text = std::string(digits) + "e" + std::to_string(e);
      values.push_back(std::stod(text));
      values.push_back(std::nextafter(values.back(), 0.0));
      values.push_back(std::nextafter(values.back(), 1e300));
    }
  }
  std::string text;
  for (const double d : values) {
    text.clear();
    encode(VValue::reals(d), Type::real(), text);
    std::ostringstream os;
    os << d;
    ASSERT_EQ(text, os.str()) << std::hexfloat << d;
  }
}

TEST(Codec, ShortRealLiteralsConvertExactly) {
  // The lexer's fast path for short literals (Clinger) against from_chars
  // on literals of the shapes clients send.
  std::mt19937_64 rng(5);
  for (int i = 0; i < 200000; ++i) {
    std::string s = std::to_string(rng() % 100000000);
    const std::size_t point = rng() % s.size();
    if (point > 0) s.insert(s.begin() + static_cast<std::ptrdiff_t>(point), '.');
    if (point == 0 || rng() % 2 == 0) {
      s += 'e';
      s += std::to_string(static_cast<int>(rng() % 50) - 25);
    }
    double expected = 0;
    std::from_chars(s.data(), s.data() + s.size(), expected);
    const std::optional<double> got = lang::real_literal_value(s);
    ASSERT_TRUE(got.has_value()) << s;
    ASSERT_EQ(std::memcmp(&*got, &expected, sizeof expected), 0) << s;
  }
}

TEST(Codec, OutOfRangeNumbersFallBackToTheParsersErrors) {
  // The codec declines; the general evaluator produces today's error.
  const TypePtr integer = Type::int_();
  EXPECT_FALSE(decode("-9223372036854775808", integer).has_value());
  EXPECT_THROW((void)parse_value("-9223372036854775808"), SyntaxError);
  EXPECT_TRUE(decode("-9223372036854775807", integer).has_value());

  const TypePtr real = Type::real();
  for (const char* s : {"1e999", "-1e999", "1e-400"}) {
    EXPECT_FALSE(decode(s, real).has_value()) << s;
    try {
      (void)parse_value(s);
      ADD_FAILURE() << s << " parsed";
    } catch (const SyntaxError& e) {
      EXPECT_NE(std::string(e.what()).find("real literal out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Codec, TextOutsideTheLiteralSubsetFallsBack) {
  const TypePtr integer = Type::int_();
  const TypePtr seq_int = Type::seq(integer);
  const TypePtr pair = Type::tuple({integer, Type::real()});
  struct Case {
    const char* text;
    TypePtr type;
  };
  const Case cases[] = {
      {"(5)", integer},          // grouping parentheses
      {"1+2", integer},          // arithmetic
      {"- 5", integer},          // unary minus as an operator
      {"--5", integer},
      {"2.0", integer},          // a literal of another type
      {"2", Type::real()},
      {"x", integer},            // identifier
      {"5 // five", integer},    // comment
      {"[1..3]", seq_int},       // range
      {"[1,2,]", seq_int},
      {"[1 -2]", seq_int},       // [1 - 2]
      {"([] : seq(int))", seq_int},
      {"((1, 2.0))", pair},
      {"(1, 2.0, 3)", pair},
      {"1.e5", Type::real()},    // 1 . e5
      {"truex", Type::bool_()},
      {"", integer},
      {"5 6", integer},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(decode(c.text, c.type).has_value()) << c.text;
  }
  // Where the general evaluator accepts the text, it still yields the
  // value the boxed path always did.
  EXPECT_EQ(from_boxed(parse_value("(5)"), integer).as_int(), 5);
  EXPECT_EQ(to_boxed(from_boxed(parse_value("[1..3]"), seq_int), seq_int),
            parse_value("[1,2,3]"));
}

TEST(Codec, EmptySequencesAreTypedByTheSignature) {
  const TypePtr nested = Type::seq(Type::seq(Type::int_()));
  // parse_value needs an ascription; the signature supplies the type.
  EXPECT_THROW((void)parse_value("[]"), TypeError);
  const std::optional<VValue> empty = decode(" [ ] ", nested);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(same(*empty, from_boxed(parse_value("([] : seq(seq(int)))"),
                                      nested),
                   nested));
  const std::optional<VValue> inner = decode("[[],[1],[]]", nested);
  ASSERT_TRUE(inner.has_value());
  EXPECT_TRUE(same(*inner, from_boxed(parse_value("[[],[1],[]]"), nested),
                   nested));
  std::string text;
  encode(*inner, nested, text);
  EXPECT_EQ(text, "[[],[1],[]]");
}

TEST(Codec, DeepInputIsAMismatchAndTheParserGuardTraps) {
  // The decoder recurses over the type, so 100k brackets cost it one
  // level; the general evaluator's NestingGuard then traps T003 instead
  // of overflowing the stack.
  const std::string deep(100000, '[');
  const TypePtr seq_int = Type::seq(Type::int_());
  EXPECT_FALSE(decode(deep, seq_int).has_value());
  try {
    (void)parse_value(deep);
    ADD_FAILURE() << "deep literal parsed";
  } catch (const rt::RuntimeTrap& trap) {
    EXPECT_EQ(trap.trap(), rt::Trap::kDepth);
  }
}

TEST(Codec, DescriptorInvariantHoldsOnDecodedArrays) {
  const TypePtr t = Type::seq(Type::seq(
      Type::tuple({Type::int_(), Type::seq(Type::bool_())})));
  const std::optional<VValue> v =
      decode("[[(1,[true]),(2,[])],[],[(3,[false,true,false])]]", t);
  ASSERT_TRUE(v.has_value());
  v->as_seq().validate();
  EXPECT_EQ(v->as_seq().length(), 3);
  EXPECT_EQ(v->as_seq().leaf_count(), 3 + 4);
  std::string text;
  encode(*v, t, text);
  EXPECT_EQ(text, "[[(1,[true]),(2,[])],[],[(3,[false,true,false])]]");
}

}  // namespace
}  // namespace proteus::kernels
