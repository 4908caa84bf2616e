// Tests for the recursive-descent parser (structure and precedence).
#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "lang/printer.hpp"

namespace proteus::lang {
namespace {

std::string round(std::string_view src) {
  return to_text(parse_expression(src));
}

TEST(Parser, Literals) {
  EXPECT_EQ(round("42"), "42");
  EXPECT_EQ(round("true"), "true");
  EXPECT_EQ(round("false"), "false");
  EXPECT_EQ(round("1.5"), "1.5");
}

TEST(Parser, ArithmeticPrecedence) {
  EXPECT_EQ(round("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(round("(1 + 2) * 3"), "((1 + 2) * 3)");
  EXPECT_EQ(round("1 - 2 - 3"), "((1 - 2) - 3)");  // left assoc
  EXPECT_EQ(round("6 / 3 * 2"), "((6 / 3) * 2)");
  EXPECT_EQ(round("7 mod 2 + 1"), "((7 mod 2) + 1)");
}

TEST(Parser, ComparisonAndLogic) {
  EXPECT_EQ(round("1 < 2 and 3 >= 2"), "((1 < 2) and (3 >= 2))");
  EXPECT_EQ(round("not a or b"), "(not(a) or b)");
  EXPECT_EQ(round("a == b"), "(a == b)");
  EXPECT_EQ(round("a != b"), "(a != b)");
}

TEST(Parser, UnaryOperators) {
  EXPECT_EQ(round("-x + 1"), "(neg(x) + 1)");
  EXPECT_EQ(round("#v"), "length(v)");
  EXPECT_EQ(round("#v + 1"), "(length(v) + 1)");
}

TEST(Parser, IndexingAndCalls) {
  EXPECT_EQ(round("v[1]"), "seq_index(v, 1)");
  EXPECT_EQ(round("v[1][2]"), "seq_index(seq_index(v, 1), 2)");
  EXPECT_EQ(round("f(x, y)"), "f(x, y)");
  EXPECT_EQ(round("f(x)[2]"), "seq_index(f(x), 2)");
}

TEST(Parser, TupleAndExtract) {
  EXPECT_EQ(round("(a, b, c)"), "(a, b, c)");
  EXPECT_EQ(round("t.1"), "t.1");
  EXPECT_EQ(round("t.2.1"), "t.2.1");
  EXPECT_EQ(round("(a)"), "a");  // grouping, not tuple
}

TEST(Parser, TupleIndicesThatDoNotFitAnIntAreErrors) {
  // Once an escaping std::out_of_range (x.99999999999999.1), once a
  // silent truncation (x.4294967297 read as x.1).
  EXPECT_THROW((void)parse_expression("x.99999999999999.1"), SyntaxError);
  EXPECT_THROW((void)parse_expression("x.1.99999999999999"), SyntaxError);
  EXPECT_THROW((void)parse_expression("x.4294967297"), SyntaxError);
  EXPECT_EQ(round("x.2147483647"), "x.2147483647");
}

TEST(Parser, SequenceForms) {
  EXPECT_EQ(round("[1, 2, 3]"), "[1, 2, 3]");
  EXPECT_EQ(round("[1 .. n]"), "range(1, n)");
  EXPECT_EQ(round("[x]"), "[x]");
  EXPECT_EQ(round("a ++ b"), "concat(a, b)");
}

TEST(Parser, TypedEmptySequence) {
  ExprPtr e = parse_expression("([] : seq(int))");
  const auto* lit = as<SeqExpr>(e);
  ASSERT_NE(lit, nullptr);
  EXPECT_TRUE(lit->elems.empty());
  EXPECT_TRUE(equal(lit->elem_type, Type::int_()));
}

TEST(Parser, UntypedEmptyLiteralParsesButNeedsContext) {
  // `[]` parses (so it can take its type from siblings) but a lone one is
  // rejected by the checker.
  ExprPtr e = parse_expression("[]");
  EXPECT_NE(as<SeqExpr>(e), nullptr);
  Program empty;
  EXPECT_THROW((void)typecheck_expression(empty, e), TypeError);
}

TEST(Parser, Iterator) {
  EXPECT_EQ(round("[i <- [1 .. n] : i * i]"),
            "[i <- range(1, n) : (i * i)]");
  EXPECT_EQ(round("[x <- v | x > 0 : x + 1]"),
            "[x <- v | (x > 0) : (x + 1)]");
}

TEST(Parser, LetAndIf) {
  EXPECT_EQ(round("let x = 1 in x + 2"), "let x = 1 in (x + 2)");
  EXPECT_EQ(round("if a then 1 else 2"), "if a then 1 else 2");
  EXPECT_EQ(round("let x = 1 in let y = 2 in x"),
            "let x = 1 in let y = 2 in x");
}

TEST(Parser, Lambda) {
  EXPECT_EQ(round("fun(x: int) => x + 1"), "fun(x: int) => (x + 1)");
  EXPECT_EQ(round("(fun(x: int) => x)(3)"), "(fun(x: int) => x)(3)");
}

TEST(Parser, FunctionDefinitions) {
  Program p = parse_program(R"(
    fun one(): int = 1
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
    fun infer(x: int) = x
  )");
  ASSERT_EQ(p.functions.size(), 3u);
  EXPECT_EQ(p.functions[0].name, "one");
  EXPECT_TRUE(p.functions[0].params.empty());
  EXPECT_EQ(p.functions[1].params.size(), 1u);
  EXPECT_TRUE(equal(p.functions[1].result, Type::seq(Type::int_())));
  EXPECT_EQ(p.functions[2].result, nullptr);  // inferred later
}

TEST(Parser, Errors) {
  EXPECT_THROW((void)parse_expression("1 +"), SyntaxError);
  EXPECT_THROW((void)parse_expression("(1, 2"), SyntaxError);
  EXPECT_THROW((void)parse_expression("[x <- v : ]"), SyntaxError);
  EXPECT_THROW((void)parse_expression("let x 1 in x"), SyntaxError);
  EXPECT_THROW((void)parse_expression("if a then 1"), SyntaxError);
  EXPECT_THROW((void)parse_expression("t.x"), SyntaxError);  // needs int index
  EXPECT_THROW((void)parse_program("fun f(x) = x"), SyntaxError);  // missing type
  EXPECT_THROW((void)parse_expression("1 2"), SyntaxError);  // trailing tokens
}

TEST(Parser, ComparisonNonAssociative) {
  EXPECT_THROW((void)parse_expression("1 < 2 < 3"), SyntaxError);
}

TEST(Parser, DestructuringLet) {
  std::string t = round("let (a, b) = p in a + b");
  EXPECT_NE(t.find(".1"), std::string::npos) << t;
  EXPECT_NE(t.find(".2"), std::string::npos) << t;
  EXPECT_THROW((void)parse_expression("let (a) = p"), SyntaxError);
}

TEST(Parser, DeepUpdateForm) {
  // Table 2: seq_update with an index path.
  EXPECT_EQ(round("(s; [2] : 9)"), "update(s, 2, 9)");
  std::string two = round("(s; [1][2] : 9)");
  EXPECT_NE(two.find("update("), std::string::npos);
  EXPECT_NE(two.find("seq_index("), std::string::npos);
  EXPECT_THROW((void)parse_expression("(s; : 9)"), SyntaxError);
  EXPECT_THROW((void)parse_expression("(s; [1] 9)"), SyntaxError);
}

TEST(Parser, PaperExamples) {
  // Definitions from Section 2, reformatted into the ASCII syntax.
  EXPECT_NO_THROW(parse_program(R"(
    fun odd(a: int): bool = 1 == (a mod 2)
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
    fun concat2(v: seq(int), w: seq(int)): seq(int) =
      [i <- [1 .. #v + #w] :
        if i <= #v then v[i] else w[i - #v]]
    fun oddsq(n: int): seq(seq(int)) =
      [i <- [1 .. n] | odd(i) : sqs(i)]
  )"));
}

}  // namespace
}  // namespace proteus::lang
