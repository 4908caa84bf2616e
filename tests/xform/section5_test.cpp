// Golden test: the worked example of Section 5 of the paper.
//
// The paper transforms
//     [k <- [1..5] : sqs(k)]     with  fun sqs(n) = [j <- [1..n] : mult(j,j)]
// into (paper notation):
//     fun sqs^1(V) =
//       let ib = #V
//           i  = range1(ib)
//           n  = seq_index(V, i)     -- seq_index^1, shared source
//           jb = n
//           j  = range1^1(jb)
//       in  insert(mult^1(extract(j,1), extract(j,1)), j, 1)
// and the top level into  sqs^1(range1(5)).
// These tests pin the same structure in our output.
#include <gtest/gtest.h>

#include "core/proteus.hpp"
#include "lang/printer.hpp"

namespace proteus {
namespace {

class Section5 : public ::testing::Test {
 protected:
  Section5()
      : session_("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]",
                 "[k <- [1 .. 5] : sqs(k)]") {}

  Session session_;
};

TEST_F(Section5, EntryBecomesRange1ThenSqs1) {
  std::string text = lang::to_text(session_.compiled().entry_vec);
  // kb = 5; k = range1(kb); sqs^1(k)
  EXPECT_NE(text.find("range1("), std::string::npos) << text;
  EXPECT_NE(text.find("sqs^1(k)"), std::string::npos) << text;
  EXPECT_EQ(text.find("["), std::string::npos) << "iterator survived: " << text;
}

TEST_F(Section5, Sqs1HasThePaperShape) {
  const lang::FunDef* ext = session_.compiled().vec.find("sqs^1");
  ASSERT_NE(ext, nullptr);
  std::string text = lang::to_text(*ext);
  // let ib = #V
  EXPECT_NE(text.find("length("), std::string::npos) << text;
  // i = range1(ib)
  EXPECT_NE(text.find("range1("), std::string::npos) << text;
  // n = seq_index^1(V, i) — the Section 4.5 shared-source gather
  EXPECT_NE(text.find("seq_index^1("), std::string::npos) << text;
  // j = range1^1(n)
  EXPECT_NE(text.find("range1^1("), std::string::npos) << text;
  // T1: insert(mult^1(extract(.,1), extract(.,1)), ., 1)
  EXPECT_NE(text.find("insert(mult^1(extract("), std::string::npos) << text;
}

TEST_F(Section5, NumberOfExtensionsIsStatic) {
  // Exactly one extension is needed for this program: sqs^1.
  int extensions = 0;
  for (const lang::FunDef& f : session_.compiled().vec.functions) {
    if (!f.extension_of.empty()) {
      ++extensions;
      EXPECT_EQ(f.name, "sqs^1");
    }
  }
  EXPECT_EQ(extensions, 1);
}

TEST_F(Section5, BothEnginesProduceThePaperResult) {
  interp::Value expected =
      parse_value("[[1],[1,4],[1,4,9],[1,4,9,16],[1,4,9,16,25]]");
  EXPECT_EQ(session_.run_entry_reference(), expected);
  EXPECT_EQ(session_.run_entry_vm(), expected);
}

TEST_F(Section5, VectorWorkMatchesTriangularSize) {
  (void)session_.run_entry_vm();
  const auto& cost = session_.last_cost();
  // 1+2+3+4+5 = 15 leaf values; the executor touches each a small constant
  // number of times.
  EXPECT_GE(cost.vector_work.element_work, 15u);
  EXPECT_LE(cost.vector_work.element_work, 15u * 12u);
  // A fixed number of vector primitives regardless of n — that is the point
  // of the vector model (measured again at larger n in bench_sec5_sqs).
  EXPECT_LE(cost.vector_work.primitive_calls, 40u);
}

TEST_F(Section5, PrimitiveCountIndependentOfProblemSize) {
  Session big("fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]",
              "[k <- [1 .. 300] : sqs(k)]");
  (void)big.run_entry_vm();
  std::uint64_t big_prims = big.last_cost().vector_work.primitive_calls;
  (void)session_.run_entry_vm();
  std::uint64_t small_prims =
      session_.last_cost().vector_work.primitive_calls;
  EXPECT_EQ(big_prims, small_prims);
}

}  // namespace
}  // namespace proteus
