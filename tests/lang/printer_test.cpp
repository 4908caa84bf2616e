// Tests for the pretty printer, including the depth-extension notation of
// transformed programs.
#include <gtest/gtest.h>

#include <string>

#include "lang/lang.hpp"
#include "rt/rt.hpp"

namespace proteus::lang {
namespace {

TEST(Printer, ParsePrintFixpoint) {
  // print(parse(print(parse(s)))) == print(parse(s)) for P programs.
  const char* src = R"(
    fun f(v: seq(int), b: bool): seq(int) =
      [x <- v | x > 0 : if b then x else -x]
  )";
  Program p1 = parse_program(src);
  std::string t1 = to_text(p1);
  Program p2 = parse_program(t1);
  EXPECT_EQ(to_text(p2), t1);
}

TEST(Printer, DepthSuffixes) {
  ExprPtr arg = make_expr(VarRef{"v", false}, Type::seq(Type::int_()));
  ExprPtr call = make_expr(PrimCall{Prim::kMul, 2, {arg, arg}, {1, 1}},
                           Type::seq(Type::int_()));
  EXPECT_EQ(to_text(call), "mult^2(v, v)");
  ExprPtr fcall = make_expr(FunCall{"sqs", 1, {arg}, {1}},
                            Type::seq(Type::seq(Type::int_())));
  EXPECT_EQ(to_text(fcall), "sqs^1(v)");
}

TEST(Printer, InfixOnlyAtDepthZero) {
  ExprPtr a = make_expr(IntLit{1}, Type::int_());
  ExprPtr plain = make_expr(PrimCall{Prim::kAdd, 0, {a, a}, {}}, Type::int_());
  EXPECT_EQ(to_text(plain), "(1 + 1)");
  ExprPtr lifted = make_expr(PrimCall{Prim::kAdd, 1, {a, a}, {}},
                             Type::seq(Type::int_()));
  EXPECT_EQ(to_text(lifted), "add^1(1, 1)");
}

TEST(Printer, SpelledNamesForInfixOps) {
  ExprPtr a = make_expr(IntLit{1}, Type::int_());
  auto text = [&](Prim op) {
    return to_text(
        make_expr(PrimCall{op, 1, {a, a}, {}}, Type::seq(Type::bool_())));
  };
  EXPECT_EQ(text(Prim::kEq), "eq^1(1, 1)");
  EXPECT_EQ(text(Prim::kLe), "le^1(1, 1)");
  EXPECT_EQ(text(Prim::kDiv), "div^1(1, 1)");
  EXPECT_EQ(text(Prim::kSub), "sub^1(1, 1)");
}

TEST(Printer, FunctionDefinition) {
  Program p = parse_program("fun f(x: int): int = x + 1");
  EXPECT_EQ(to_text(p.functions[0]), "fun f(x: int): int =\n  (x + 1)\n");
}

TEST(Printer, IteratorWithFilter) {
  EXPECT_EQ(to_text(parse_expression("[x <- v | p(x) : f(x)]")),
            "[x <- v | p(x) : f(x)]");
}

TEST(Printer, PrefixStopsAtTheLimit) {
  std::string src;
  for (int i = 0; i < 100; ++i) src += "let x" + std::to_string(i) + " = 1 in ";
  src += "0";
  ExprPtr e = parse_expression(src);
  const std::string full = to_text(e);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                        std::size_t{65}, full.size(), full.size() + 10}) {
    EXPECT_EQ(to_text(e, n), full.substr(0, n)) << n;
  }
  // The whole tree is 100 lets deep, so rendering it all traps under a
  // depth-30 budget (DepthGuard.PrinterTrapsUnderTightDepthBudget); the
  // 65-character prefix ends a few lets in.
  rt::ExecBudget b;
  b.max_depth = 30;
  rt::GovernorScope scope(b);
  EXPECT_EQ(to_text(e, 65), full.substr(0, 65));
}

TEST(Printer, PrimNameTable) {
  EXPECT_STREQ(prim_name(Prim::kRange1), "range1");
  EXPECT_STREQ(prim_name(Prim::kEmptyFrame), "empty_frame");
  Prim p;
  EXPECT_TRUE(lookup_prim("restrict", &p));
  EXPECT_EQ(p, Prim::kRestrict);
  EXPECT_TRUE(lookup_prim("any_true", &p));
  EXPECT_EQ(p, Prim::kAnyTrue);
  EXPECT_FALSE(lookup_prim("nonesuch", &p));
}

TEST(Printer, ExtensionNames) {
  EXPECT_EQ(extension_name("f", 0), "f");
  EXPECT_EQ(extension_name("f", 1), "f^1");
  EXPECT_EQ(extension_name("sqs", 3), "sqs^3");
}

}  // namespace
}  // namespace proteus::lang
