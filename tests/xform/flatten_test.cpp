// Tests for iterator elimination (rules R2a–R2f): structural properties of
// the flattened form plus semantic preservation via the interpreter's
// generic depth-extension oracle.
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "interp/interp.hpp"
#include "lang/lang.hpp"
#include "xform/xform.hpp"

namespace proteus::xform {
namespace {

using namespace lang;

/// True when the expression contains no Iterator node.
bool iterator_free(const ExprPtr& e) {
  if (e == nullptr) return true;
  return std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, Iterator>) {
          return false;
        } else if constexpr (std::is_same_v<T, Let>) {
          return iterator_free(node.init) && iterator_free(node.body);
        } else if constexpr (std::is_same_v<T, If>) {
          return iterator_free(node.cond) && iterator_free(node.then_expr) &&
                 iterator_free(node.else_expr);
        } else if constexpr (std::is_same_v<T, PrimCall> ||
                             std::is_same_v<T, FunCall>) {
          for (const auto& a : node.args) {
            if (!iterator_free(a)) return false;
          }
          return true;
        } else if constexpr (std::is_same_v<T, IndirectCall>) {
          if (!iterator_free(node.fn)) return false;
          for (const auto& a : node.args) {
            if (!iterator_free(a)) return false;
          }
          return true;
        } else if constexpr (std::is_same_v<T, TupleExpr> ||
                             std::is_same_v<T, SeqExpr>) {
          for (const auto& a : node.elems) {
            if (!iterator_free(a)) return false;
          }
          return true;
        } else if constexpr (std::is_same_v<T, TupleGet>) {
          return iterator_free(node.tuple);
        } else {
          return true;
        }
      },
      e->node);
}

struct FlatCase {
  Program checked;
  Program canonical;
  FlattenedProgram flat;
  ExprPtr entry_checked;
  ExprPtr entry_flat;
};

FlatCase flatten_case(std::string_view program,
                      std::string_view expr = {}) {
  FlatCase out;
  out.checked = typecheck(parse_program(program));
  NameGen names;
  if (!expr.empty()) {
    out.entry_checked =
        typecheck_expression(out.checked, parse_expression(expr));
    out.canonical = canonicalize(out.checked, names);
    ExprPtr entry_canon = canonicalize(out.entry_checked, names);
    out.entry_flat = flatten_expression(out.canonical, entry_canon, names,
                                        &out.flat);
  } else {
    out.canonical = canonicalize(out.checked, names);
    out.flat = flatten(out.canonical, names);
  }
  return out;
}

TEST(Flatten, RemovesEveryIterator) {
  FlatCase c = flatten_case(R"(
    fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
    fun nested(n: int): seq(seq(seq(int))) =
      [i <- [1 .. n] : [j <- [1 .. i] : [k <- [1 .. j] : k]]]
  )",
                            "[k <- [1 .. 5] : sqs(k)]");
  for (const FunDef& f : c.flat.program.functions) {
    EXPECT_TRUE(iterator_free(f.body)) << f.name;
  }
  EXPECT_TRUE(iterator_free(c.entry_flat));
}

TEST(Flatten, GeneratesRequestedExtensions) {
  FlatCase c = flatten_case(
      "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]",
      "[k <- [1 .. 5] : sqs(k)]");
  const FunDef* ext = c.flat.program.find("sqs^1");
  ASSERT_NE(ext, nullptr);
  EXPECT_EQ(ext->extension_of, "sqs");
  EXPECT_EQ(ext->extension_depth, 1);
  ASSERT_EQ(ext->params.size(), 1u);
  EXPECT_TRUE(equal(ext->params[0].type, Type::seq(Type::int_())));
  EXPECT_TRUE(equal(ext->result, Type::seq(Type::seq(Type::int_()))));
}

TEST(Flatten, NoExtensionWhenNotNeeded) {
  FlatCase c = flatten_case(
      "fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]", "sqs(5)");
  EXPECT_EQ(c.flat.program.find("sqs^1"), nullptr);
}

TEST(Flatten, FunctionValuesGetExtensions) {
  // add2 is only used as a *value*; its depth-1 extension must still exist
  // (static property of the program).
  FlatCase c = flatten_case(R"(
    fun add2(a: int, b: int): int = a + b
    fun fold(f: (int,int) -> int, v: seq(int)): int =
      if #v == 1 then v[1] else f(fold(f, [i <- [1 .. #v - 1] : v[i]]), v[#v])
    fun use(m: seq(seq(int))): seq(int) = [row <- m : fold(add2, row)]
  )");
  EXPECT_NE(c.flat.program.find("add2^1"), nullptr);
  EXPECT_NE(c.flat.program.find("fold^1"), nullptr);
}

TEST(Flatten, InvariantSubexpressionsHoisted) {
  // The whole `sum(w)` is invariant w.r.t. the iterator and must appear at
  // depth 0 (no sum^... extension, no replication).
  FlatCase c = flatten_case(
      "fun f(v: seq(int), w: seq(int)): seq(int) = [x <- v : x + sum(w)]");
  std::string text = to_text(*c.flat.program.find("f"));
  EXPECT_NE(text.find("sum(w)"), std::string::npos) << text;
  EXPECT_EQ(text.find("sum^1"), std::string::npos) << text;
}

TEST(Flatten, SharedSourceIndexingStaysBroadcast) {
  // Section 4.5: v is a fixed source; seq_index^1 must receive it
  // unreplicated (lifted flag 0), with no dist of v in the output.
  FlatCase c = flatten_case(
      "fun f(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[i]]");
  std::string text = to_text(*c.flat.program.find("f"));
  EXPECT_NE(text.find("seq_index^1(v, i)"), std::string::npos) << text;
  EXPECT_EQ(text.find("dist(v"), std::string::npos) << text;
}

TEST(Flatten, AblationReplicatesSequenceArgs) {
  FlattenOptions naive;
  naive.broadcast_invariant_seq_args = false;
  Program checked = typecheck(parse_program(
      "fun f(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[i]]"));
  NameGen names;
  Program canon = canonicalize(checked, names);
  FlattenedProgram flat = flatten(canon, names, naive);
  std::string text = to_text(*flat.program.find("f"));
  // v must now be replicated (a dist appears feeding seq_index^1).
  EXPECT_NE(text.find("dist(v"), std::string::npos) << text;
}

TEST(Flatten, ConditionalUsesMaskRestrictCombine) {
  FlatCase c = flatten_case(
      "fun f(v: seq(int)): seq(int) = [x <- v : if x > 0 then x else -x]");
  std::string text = to_text(*c.flat.program.find("f"));
  EXPECT_NE(text.find("restrict("), std::string::npos) << text;
  EXPECT_NE(text.find("combine("), std::string::npos) << text;
  EXPECT_NE(text.find("any_true("), std::string::npos) << text;
  EXPECT_NE(text.find("empty_frame"), std::string::npos) << text;
}

TEST(Flatten, UniformConditionStaysScalar) {
  // b is invariant: the conditional must remain an ordinary if on a
  // scalar bool, not a mask/combine.
  FlatCase c = flatten_case(
      "fun f(v: seq(int), b: bool): seq(int) = "
      "[x <- v : if b then x else -x]");
  std::string text = to_text(*c.flat.program.find("f"));
  EXPECT_EQ(text.find("combine("), std::string::npos) << text;
  EXPECT_NE(text.find("if b then"), std::string::npos) << text;
}

/// Differential property: flattened programs (pre-T1!) evaluated with the
/// interpreter's generic depth-extension semantics match the source
/// program. This isolates R2 from T1 and from the vector kernels.
struct DiffCase {
  const char* name;
  const char* program;
  const char* fn;
  const char* arg;
};

// Print a case by name: the default byte dump shows the string pointers,
// which move with every run and would make the listed test names unstable.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class FlattenSemantics : public ::testing::TestWithParam<DiffCase> {};

TEST_P(FlattenSemantics, InterpreterOracle) {
  const DiffCase& p = GetParam();
  Program checked = typecheck(parse_program(p.program));
  NameGen names;
  Program canon = canonicalize(checked, names);
  FlattenedProgram flat = flatten(canon, names);

  interp::Interpreter ref(checked);
  interp::Interpreter oracle(flat.program);
  interp::ValueList args{parse_value(p.arg)};
  EXPECT_EQ(ref.call_function(p.fn, args),
            oracle.call_function(p.fn, args))
      << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FlattenSemantics,
    ::testing::Values(
        DiffCase{"sqs", "fun f(n: int): seq(int) = [i <- [1 .. n] : i * i]",
                 "f", "7"},
        DiffCase{"nested",
                 "fun f(n: int): seq(seq(int)) = "
                 "[i <- [1 .. n] : [j <- [1 .. i] : i * 10 + j]]",
                 "f", "5"},
        DiffCase{"filter",
                 "fun f(v: seq(int)): seq(int) = [x <- v | x > 2 : x * x]",
                 "f", "[3,1,4,1,5]"},
        DiffCase{"conditional",
                 "fun f(v: seq(int)): seq(int) = "
                 "[x <- v : if x mod 2 == 0 then x / 2 else 3 * x + 1]",
                 "f", "[1,2,3,4,5,6,7,8]"},
        DiffCase{"gather",
                 "fun f(v: seq(int)): seq(int) = [i <- [1 .. #v] : v[#v + 1 - i]]",
                 "f", "[5,6,7,8]"},
        DiffCase{"rowsums",
                 "fun f(m: seq(seq(int))): seq(int) = [row <- m : sum(row)]",
                 "f", "[[1,2],([] : seq(int)),[3,4,5]]"}),
    [](const ::testing::TestParamInfo<DiffCase>& pinfo) {
      return pinfo.param.name;
    });

}  // namespace
}  // namespace proteus::xform
