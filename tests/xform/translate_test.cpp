// Tests for the T1 translation (Section 4.3 / Figure 3): every depth >= 2
// call is reduced to extract / depth-1 / insert, and semantics are
// preserved (interpreter oracle again).
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "interp/interp.hpp"
#include "lang/lang.hpp"
#include "xform/xform.hpp"

namespace proteus::xform {
namespace {

using namespace lang;

/// Maximum parallel-extension depth occurring anywhere in `e`
/// (kEmptyFrame's depth marker is exempt — it is not an extension).
int max_call_depth(const ExprPtr& e) {
  if (e == nullptr) return 0;
  return std::visit(
      [&](const auto& node) -> int {
        using T = std::decay_t<decltype(node)>;
        int deepest = 0;
        auto take = [&](int d) { deepest = std::max(deepest, d); };
        if constexpr (std::is_same_v<T, Let>) {
          take(max_call_depth(node.init));
          take(max_call_depth(node.body));
        } else if constexpr (std::is_same_v<T, If>) {
          take(max_call_depth(node.cond));
          take(max_call_depth(node.then_expr));
          take(max_call_depth(node.else_expr));
        } else if constexpr (std::is_same_v<T, PrimCall>) {
          if (node.op != Prim::kEmptyFrame && node.op != Prim::kAnyTrue) {
            take(node.depth);
          }
          for (const auto& a : node.args) take(max_call_depth(a));
        } else if constexpr (std::is_same_v<T, FunCall>) {
          take(node.depth);
          for (const auto& a : node.args) take(max_call_depth(a));
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          take(node.depth);
          take(max_call_depth(node.fn));
          for (const auto& a : node.args) take(max_call_depth(a));
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          take(node.depth);
          for (const auto& a : node.elems) take(max_call_depth(a));
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          take(node.depth);
          take(max_call_depth(node.tuple));
        }
        return deepest;
      },
      e->node);
}

TEST(Translate, EverythingReducesToDepthOne) {
  Compiled c = compile(R"(
    fun triple(n: int): seq(seq(seq(int))) =
      [i <- [1 .. n] : [j <- [1 .. i] : [k <- [1 .. j] : i + j + k]]]
    fun quad(n: int): seq(seq(seq(seq(int)))) =
      [a <- [1 .. n] : [b <- [1 .. a] : [c <- [1 .. b] : [d <- [1 .. c] :
        a * b + c * d]]]]
  )");
  for (const FunDef& f : c.vec.functions) {
    EXPECT_LE(max_call_depth(f.body), 1) << f.name << ":\n" << to_text(f);
  }
  // and before translation the depths really were deeper:
  EXPECT_GE(max_call_depth(c.flat.find("quad")->body), 4);
}

TEST(Translate, UserCallsRenamedToExtensions) {
  Compiled c = compile(R"(
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
    fun use(n: int): seq(seq(int)) = [k <- [1 .. n] : sqs(k)]
  )");
  std::string text = to_text(*c.vec.find("use"));
  EXPECT_NE(text.find("sqs^1("), std::string::npos) << text;
  // the flat form still says depth-1 FunCall on the base name, printed the
  // same way; but the vec form must contain a real definition:
  EXPECT_NE(c.vec.find("sqs^1"), nullptr);
}

TEST(Translate, T1IntroducesExtractInsert) {
  Compiled c = compile(R"(
    fun f(n: int): seq(seq(int)) = [i <- [1 .. n] : [j <- [1 .. i] : j * j]]
  )");
  std::string text = to_text(*c.vec.find("f"));
  EXPECT_NE(text.find("extract("), std::string::npos) << text;
  EXPECT_NE(text.find("insert("), std::string::npos) << text;
}

TEST(Translate, FrameSourceBoundOnce) {
  // T1 binds the frame argument in a let so extract and insert share it.
  Compiled c = compile(R"(
    fun f(n: int): seq(seq(int)) = [i <- [1 .. n] : [j <- [1 .. i] : j * j]]
  )");
  std::string text = to_text(*c.vec.find("f"));
  EXPECT_NE(text.find("_f"), std::string::npos) << text;
}

/// Interpreter oracle: the fully translated program still evaluates
/// identically under boxed semantics.
struct TCase {
  const char* name;
  const char* program;
  const char* fn;
  const char* arg;
};

// Print a case by name: the default byte dump shows the string pointers,
// which move with every run and would make the listed test names unstable.
void PrintTo(const TCase& c, std::ostream* os) { *os << c.name; }

class TranslateSemantics : public ::testing::TestWithParam<TCase> {};

TEST_P(TranslateSemantics, InterpreterOracle) {
  const TCase& p = GetParam();
  Compiled c = compile(p.program);
  interp::Interpreter ref(c.checked);
  interp::Interpreter oracle(c.vec);
  interp::ValueList args{parse_value(p.arg)};
  EXPECT_EQ(ref.call_function(p.fn, args), oracle.call_function(p.fn, args))
      << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TranslateSemantics,
    ::testing::Values(
        TCase{"depth2",
              "fun f(n: int): seq(seq(int)) = "
              "[i <- [1 .. n] : [j <- [1 .. i] : i * j]]",
              "f", "6"},
        TCase{"depth3",
              "fun f(n: int): seq(seq(seq(int))) = "
              "[i <- [1 .. n] : [j <- [1 .. i] : [k <- [1 .. j] : k]]]",
              "f", "4"},
        TCase{"deep_conditional",
              "fun f(n: int): seq(seq(int)) = "
              "[i <- [1 .. n] : [j <- [1 .. i] : "
              "if j mod 2 == 0 then j else 0]]",
              "f", "5"},
        TCase{"deep_filter",
              "fun f(n: int): seq(seq(int)) = "
              "[i <- [1 .. n] : [j <- [1 .. i] | j != i : j]]",
              "f", "5"}),
    [](const ::testing::TestParamInfo<TCase>& pinfo) {
      return pinfo.param.name;
    });

}  // namespace
}  // namespace proteus::xform
