// FreeVarMemo's per-node summaries against free_vars, the direct
// definition, on every node of the checked, canonical and flattened forms
// of the example programs and of random programs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lang/printer.hpp"
#include "program_gen.hpp"
#include "xform/freevars.hpp"
#include "xform/pipeline.hpp"

namespace proteus::xform {
namespace {

using lang::ExprPtr;

/// Every child of `e`, in source order.
std::vector<ExprPtr> children(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  const auto add = [&](const ExprPtr& c) {
    if (c != nullptr) out.push_back(c);
  };
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, lang::Let>) {
          add(node.init);
          add(node.body);
        } else if constexpr (std::is_same_v<T, lang::If>) {
          add(node.cond);
          add(node.then_expr);
          add(node.else_expr);
        } else if constexpr (std::is_same_v<T, lang::Iterator>) {
          add(node.domain);
          add(node.filter);
          add(node.body);
        } else if constexpr (std::is_same_v<T, lang::Call>) {
          add(node.callee);
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, lang::PrimCall> ||
                             std::is_same_v<T, lang::FunCall>) {
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, lang::IndirectCall>) {
          add(node.fn);
          for (const ExprPtr& a : node.args) add(a);
        } else if constexpr (std::is_same_v<T, lang::TupleExpr> ||
                             std::is_same_v<T, lang::SeqExpr>) {
          for (const ExprPtr& a : node.elems) add(a);
        } else if constexpr (std::is_same_v<T, lang::TupleGet>) {
          add(node.tuple);
        } else if constexpr (std::is_same_v<T, lang::LambdaExpr>) {
          add(node.body);
        }
      },
      e->node);
  return out;
}

/// Checks the memo against the oracle at `e` and every node below it.
/// Parents are asked before their children, so each summary the memo
/// builds comes from children it had not summarized yet.
void check_tree(FreeVarMemo& memo, const Symbols& symbols, const ExprPtr& e,
                std::size_t* nodes) {
  std::set<std::string> got;
  for (Sym s : memo.of(e)) got.insert(symbols.name(s));
  ASSERT_EQ(got, free_vars(e)) << lang::to_text(e);
  ASSERT_EQ(got.size(), memo.of(e).size()) << lang::to_text(e);
  ++*nodes;
  for (const ExprPtr& c : children(e)) check_tree(memo, symbols, c, nodes);
}

std::size_t check_program(const std::string& source) {
  const Compiled c = compile(source);
  Symbols symbols;
  FreeVarMemo memo(symbols);
  std::size_t nodes = 0;
  for (const lang::Program* p : {&c.checked, &c.canonical, &c.flat}) {
    for (const lang::FunDef& f : p->functions) {
      SCOPED_TRACE(f.name);
      check_tree(memo, symbols, f.body, &nodes);
    }
  }
  return nodes;
}

TEST(FreeVarMemo, MatchesTheOracleOnTheExamplePrograms) {
  namespace fs = std::filesystem;
  std::size_t programs = 0;
  for (const auto& entry : fs::directory_iterator(
           fs::path(PROTEUS_SOURCE_DIR) / "examples" / "programs")) {
    if (entry.path().extension() != ".p") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_GT(check_program(ss.str()), 0u);
    ++programs;
  }
  EXPECT_GE(programs, 6u);
}

TEST(FreeVarMemo, MatchesTheOracleOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      const std::string program = testing::fuzz_program(seed, variant);
      SCOPED_TRACE(program);
      check_program(program);
    }
  }
}

TEST(FreeVarMemo, LetAndIteratorBindersAndShadowing) {
  const Compiled c = compile(
      "fun f(x: int, v: seq(int)): seq(int) = "
      "let y = x + 1 in [x <- v : let x = x + y in x * y]");
  Symbols symbols;
  FreeVarMemo memo(symbols);
  std::set<std::string> got;
  for (Sym s : memo.of(c.checked.find("f")->body)) {
    got.insert(symbols.name(s));
  }
  EXPECT_EQ(got, (std::set<std::string>{"v", "x"}));
}

}  // namespace
}  // namespace proteus::xform
