// Tests for the scanner.
#include <gtest/gtest.h>

#include <limits>

#include "lang/lexer.hpp"
#include "vl/check.hpp"

namespace proteus::lang {
namespace {

std::vector<Tok> kinds(std::string_view src) {
  std::vector<Tok> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInput) {
  EXPECT_EQ(kinds(""), (std::vector<Tok>{Tok::kEnd}));
  EXPECT_EQ(kinds("   \n\t  "), (std::vector<Tok>{Tok::kEnd}));
}

TEST(Lexer, Keywords) {
  EXPECT_EQ(kinds("fun let in if then else true false and or not mod"),
            (std::vector<Tok>{Tok::kFun, Tok::kLet, Tok::kIn, Tok::kIf,
                              Tok::kThen, Tok::kElse, Tok::kTrue, Tok::kFalse,
                              Tok::kAnd, Tok::kOr, Tok::kNot, Tok::kMod,
                              Tok::kEnd}));
}

TEST(Lexer, Identifiers) {
  auto toks = lex("foo _bar baz2 sqs^1");
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[1].text, "_bar");
  EXPECT_EQ(toks[2].text, "baz2");
  EXPECT_EQ(toks[3].text, "sqs^1");  // '^' allowed for extension names
}

TEST(Lexer, IntLiterals) {
  auto toks = lex("0 42 123456789012345");
  EXPECT_EQ(toks[0].int_value, 0);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].int_value, 123456789012345LL);
}

TEST(Lexer, RealLiterals) {
  auto toks = lex("1.5 2.0e3 7e-2");
  EXPECT_EQ(toks[0].kind, Tok::kRealLit);
  EXPECT_DOUBLE_EQ(toks[0].real_value, 1.5);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 2000.0);
  EXPECT_DOUBLE_EQ(toks[2].real_value, 0.07);
}

TEST(Lexer, RealLiteralsKeepSubnormalsAndRejectOverflow) {
  // Out-of-range literals are syntax errors, never an escaping
  // std::out_of_range (which would terminate a serving process).
  EXPECT_EQ(lex("1e-310")[0].real_value, 1e-310);
  EXPECT_EQ(lex("4.9e-324")[0].real_value,
            std::numeric_limits<double>::denorm_min());
  for (const char* src : {"1e999", "1.8e308", "1e-400"}) {
    try {
      (void)lex(src);
      ADD_FAILURE() << src << " lexed";
    } catch (const SyntaxError& e) {
      EXPECT_NE(std::string(e.what()).find("real literal out of range"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)lex("9223372036854775808"), SyntaxError);
}

TEST(Lexer, ScanNumberIsTheLexersTokenRule) {
  EXPECT_EQ(scan_number("12..3").length, 2U);
  EXPECT_FALSE(scan_number("12..3").is_real);
  EXPECT_EQ(scan_number("1.5e-3]").length, 6U);
  EXPECT_TRUE(scan_number("1.5e-3]").is_real);
  EXPECT_EQ(scan_number("2e").length, 1U);
  EXPECT_EQ(scan_number("2e+x").length, 1U);
  EXPECT_TRUE(scan_number("7E2").is_real);
  EXPECT_EQ(int_literal_value("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(int_literal_value("9223372036854775808").has_value());
  EXPECT_FALSE(real_literal_value("1e999").has_value());
}

TEST(Lexer, RangeDotsDoNotEatInt) {
  // "1..n" must lex as INT DOTDOT IDENT, not a real literal.
  EXPECT_EQ(kinds("[1..n]"),
            (std::vector<Tok>{Tok::kLBracket, Tok::kIntLit, Tok::kDotDot,
                              Tok::kIdent, Tok::kRBracket, Tok::kEnd}));
}

TEST(Lexer, IdentifierEAfterNumber) {
  // "2e" is 2 followed by identifier e (no exponent digits).
  EXPECT_EQ(kinds("2e"),
            (std::vector<Tok>{Tok::kIntLit, Tok::kIdent, Tok::kEnd}));
}

TEST(Lexer, MultiCharOperators) {
  EXPECT_EQ(kinds("<- -> => == != <= >= ++ .."),
            (std::vector<Tok>{Tok::kLeftArrow, Tok::kArrow, Tok::kFatArrow,
                              Tok::kEqEq, Tok::kBangEq, Tok::kLe, Tok::kGe,
                              Tok::kPlusPlus, Tok::kDotDot, Tok::kEnd}));
}

TEST(Lexer, SingleCharOperators) {
  EXPECT_EQ(kinds("( ) [ ] , : ; . # | = + - * / < >"),
            (std::vector<Tok>{Tok::kLParen, Tok::kRParen, Tok::kLBracket,
                              Tok::kRBracket, Tok::kComma, Tok::kColon,
                              Tok::kSemicolon, Tok::kDot, Tok::kHash,
                              Tok::kBar, Tok::kAssign, Tok::kPlus, Tok::kMinus,
                              Tok::kStar, Tok::kSlash, Tok::kLt, Tok::kGt,
                              Tok::kEnd}));
}

TEST(Lexer, Comments) {
  EXPECT_EQ(kinds("1 // comment to end of line\n 2"),
            (std::vector<Tok>{Tok::kIntLit, Tok::kIntLit, Tok::kEnd}));
}

TEST(Lexer, SourceLocations) {
  auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[0].loc.column, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[1].loc.column, 3);
}

TEST(Lexer, BadCharacterThrows) {
  EXPECT_THROW((void)lex("a @ b"), SyntaxError);
  EXPECT_THROW((void)lex("a ! b"), SyntaxError);  // '!' needs '='
}

TEST(Lexer, IteratorExample) {
  // The paper's notation in ASCII.
  EXPECT_EQ(kinds("[i <- [1 .. n] : i * i]"),
            (std::vector<Tok>{Tok::kLBracket, Tok::kIdent, Tok::kLeftArrow,
                              Tok::kLBracket, Tok::kIntLit, Tok::kDotDot,
                              Tok::kIdent, Tok::kRBracket, Tok::kColon,
                              Tok::kIdent, Tok::kStar, Tok::kIdent,
                              Tok::kRBracket, Tok::kEnd}));
}

}  // namespace
}  // namespace proteus::lang
