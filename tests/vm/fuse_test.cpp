// The VCODE optimizer (vm/fuse.hpp): fusion actually fires on
// elementwise chains, -O1 and -O0 agree on results AND on the emulated
// cost model (only the physical buffer_allocs counter may drop, plus the
// exact work of the identity gathers R1's iterators leave, which -O1
// elides), in-place buffer reuse is suppressed when the caller retains
// the input, and throw behaviour (division by zero mid-chain) survives
// fusion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "program_gen.hpp"
#include "testing.hpp"
#include "vm/disasm.hpp"
#include "vm/fuse.hpp"
#include "vm/verify.hpp"
#include "vm/vm.hpp"

namespace proteus {
namespace {

using testing::val;

const char* kChain = R"(
  fun chain(v: seq(int)): seq(int) =
    [x <- v : (x * 3 + 1) * (x - 2) + x * x]
)";

// The same chain over an index domain: R1 leaves range1(n) as the
// domain and no gather to elide, so -O1 and -O0 do the same logical work.
const char* kRangeChain = R"(
  fun chain(n: int): seq(int) =
    [i <- [1 .. n] : (i * 3 + 1) * (i - 2) + i * i]
)";

xform::PipelineOptions unfused_options() {
  xform::PipelineOptions options;
  options.optimize_vcode = false;
  return options;
}

std::size_t count_fused(const vm::Module& m) {
  std::size_t n = 0;
  for (const vm::Function& f : m.functions) {
    for (const vm::Instr& in : f.code) {
      if (in.op == vm::Op::kFusedMap) ++n;
    }
  }
  return n;
}

TEST(VmFuse, FusionFiresOnElementwiseChains) {
  Session s(kChain);
  EXPECT_GT(count_fused(*s.compiled().module), 0u);
  EXPECT_GT(s.compiled().fusion.fused_chains, 0u);
  EXPECT_GE(s.compiled().fusion.fused_prims, 2u);
  EXPECT_GT(s.compiled().fusion.eliminated_instrs, 0u);
  // The disassembler renders the chain as a micro-expression tree.
  EXPECT_NE(vm::to_text(*s.compiled().module).find("fused"),
            std::string::npos);
  // -O0 leaves the stream untouched.
  Session s0(kChain, {}, unfused_options());
  EXPECT_EQ(count_fused(*s0.compiled().module), 0u);
  EXPECT_EQ(s0.compiled().fusion.fused_chains, 0u);
}

TEST(VmFuse, OptimizedModuleVerifiesClean) {
  Session s(kChain);
  analysis::Report r = vm::verify_module(*s.compiled().module);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
}

TEST(VmFuse, O1AgreesWithO0AndEveryEngine) {
  Session fused(kChain);
  Session unfused(kChain, {}, unfused_options());
  for (const char* input :
       {"[1,2,3,4,5]", "[-3,0,7]", "([] : seq(int))", "[100]"}) {
    interp::ValueList args = {val(input)};
    interp::Value want = testing::both(fused, "chain", args);
    EXPECT_EQ(unfused.run_vm("chain", args), want) << input;
  }
}

std::size_t count_op(const vm::Module& m, vm::Op op) {
  std::size_t n = 0;
  for (const vm::Function& f : m.functions) {
    for (const vm::Instr& in : f.code) {
      if (in.op == op) ++n;
    }
  }
  return n;
}

TEST(VmFuse, CostModelIsEmulatedExactly) {
  // Fusion must be invisible to the logical cost model: primitive calls,
  // element work, and the per-prim tally all match the unfused stream.
  // Only buffer_allocs — the physical counter — drops.
  Session fused(kRangeChain);
  Session unfused(kRangeChain, {}, unfused_options());
  ASSERT_GT(fused.compiled().fusion.fused_chains, 0u);
  ASSERT_EQ(fused.compiled().fusion.elided_gathers, 0u);
  interp::ValueList args = {val("42")};
  (void)fused.run_vm("chain", args);
  const vl::VectorStats f = fused.last_cost().vector_work;
  const vm::VMStats fo = fused.last_cost().vm_ops;
  (void)unfused.run_vm("chain", args);
  const vl::VectorStats u = unfused.last_cost().vector_work;
  const vm::VMStats uo = unfused.last_cost().vm_ops;
  EXPECT_EQ(f.primitive_calls, u.primitive_calls);
  EXPECT_EQ(f.element_work, u.element_work);
  EXPECT_EQ(fo.prim_applications, uo.prim_applications);
  EXPECT_EQ(fo.per_prim, uo.per_prim);
  EXPECT_LT(f.buffer_allocs, u.buffer_allocs);
}

TEST(VmFuse, ElidedGatherDropsExactlyItsOwnWork) {
  // kChain iterates over v, so R1 reads x as v[i]: -O0 runs
  // length(v), range1 and the seq_index^1 gather, which -O1 elides. Its
  // logical work is -O0's minus exactly what those three instructions
  // recorded in the -O0 per-opcode profile (each opcode family runs once
  // here), and nothing else moves.
  Session fused(kChain);
  Session unfused(kChain, {}, unfused_options());
  EXPECT_EQ(fused.compiled().fusion.elided_gathers, 1u);
  interp::ValueList args = {val("[4,8,15,16,23,42]")};
  const interp::Value got = fused.run_vm("chain", args);
  const vl::VectorStats f = fused.last_cost().vector_work;
  const vm::VMStats fo = fused.last_cost().vm_ops;
  EXPECT_EQ(got, unfused.run_vm("chain", args));
  const vl::VectorStats u = unfused.last_cost().vector_work;
  const vm::VMStats uo = unfused.last_cost().vm_ops;

  std::uint64_t elided_work = 0;
  std::uint64_t elided_calls = 0;
  for (const vm::Op op : {vm::Op::kReduce, vm::Op::kBuild, vm::Op::kGather}) {
    const vm::OpProfile& p = uo.per_op[static_cast<std::size_t>(op)];
    EXPECT_EQ(p.count, 1u) << vm::op_name(op);
    EXPECT_EQ(fo.per_op[static_cast<std::size_t>(op)].count, 0u)
        << vm::op_name(op);
    elided_work += p.element_work;
    elided_calls += p.primitive_calls;
  }
  EXPECT_GT(elided_work, 0u);
  EXPECT_EQ(f.element_work, u.element_work - elided_work);
  EXPECT_EQ(f.primitive_calls, u.primitive_calls - elided_calls);

  std::map<lang::Prim, std::uint64_t> per_prim = uo.per_prim;
  for (const lang::Prim p :
       {lang::Prim::kLength, lang::Prim::kRange1, lang::Prim::kSeqIndex}) {
    EXPECT_EQ(per_prim[p], 1u) << lang::prim_name(p);
    per_prim.erase(p);
  }
  EXPECT_EQ(fo.prim_applications, uo.prim_applications - 3);
  EXPECT_EQ(fo.per_prim, per_prim);
  EXPECT_EQ(fo.calls, uo.calls);
  EXPECT_LT(f.buffer_allocs, u.buffer_allocs);
}

TEST(VmFuse, IdentityGatherIsElidedAtDepthZero) {
  // [x <- v : x + 1]: seq_index^1(v, range1(length(v))) is v itself.
  Session s("fun inc(v: seq(int)): seq(int) = [x <- v : x + 1]");
  EXPECT_EQ(s.compiled().fusion.elided_gathers, 1u);
  EXPECT_EQ(count_op(*s.compiled().module, vm::Op::kGather), 0u);
  EXPECT_EQ(count_op(*s.compiled().module, vm::Op::kBuild), 0u);
  EXPECT_EQ(count_op(*s.compiled().module, vm::Op::kReduce), 0u);
  analysis::Report r = vm::verify_module(*s.compiled().module);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
  Session s0("fun inc(v: seq(int)): seq(int) = [x <- v : x + 1]", {},
             unfused_options());
  EXPECT_EQ(count_op(*s0.compiled().module, vm::Op::kGather), 1u);
  for (const char* input : {"[1,2,3]", "([] : seq(int))", "[-7]"}) {
    interp::ValueList args = {val(input)};
    EXPECT_EQ(testing::both(s, "inc", args), s0.run_vm("inc", args)) << input;
  }
}

TEST(VmFuse, IdentityGatherIsElidedAtDepthOne) {
  // One level down the row read is seq_index_inner^1(r, range1^1(
  // length^1(r))) (the Section 4.5 form): every row, in order.
  const char* kRows =
      "fun dbl(m: seq(seq(int))): seq(seq(int)) = "
      "[r <- m : [x <- r : x * 2]]";
  Session s(kRows);
  EXPECT_EQ(s.compiled().fusion.elided_gathers, 2u);
  EXPECT_EQ(count_op(*s.compiled().module, vm::Op::kGather), 0u);
  analysis::Report r = vm::verify_module(*s.compiled().module);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
  Session s0(kRows, {}, unfused_options());
  for (const char* input : {"[[1,2],[],[3]]", "([] : seq(seq(int)))",
                            "[([] : seq(int))]", "[[5,6,7,8]]"}) {
    interp::ValueList args = {val(input)};
    EXPECT_EQ(testing::both(s, "dbl", args), s0.run_vm("dbl", args)) << input;
  }
}

/// One instruction of a hand-built function: the compiler never emits the
/// near-miss shapes the negative cases below need.
struct Step {
  vm::Instr in;
  std::vector<std::uint16_t> args;
};

/// Function `f(r0, r1: seq(int), ...)` of `steps` with `n_params`
/// parameters, with lift sets 0 = {01} (broadcast source, frame index)
/// and 1 = {11}.
vm::Module hand_built(const std::vector<Step>& steps,
                      std::uint16_t n_params = 2) {
  vm::Function f;
  f.name = "f";
  f.n_params = n_params;
  f.lifted_sets = {{0, 1}, {1, 1}};
  std::uint16_t n_regs = n_params;
  for (const Step& st : steps) {
    vm::Instr in = st.in;
    in.args_off = static_cast<std::uint32_t>(f.arg_pool.size());
    in.args_count = static_cast<std::uint16_t>(st.args.size());
    f.arg_pool.insert(f.arg_pool.end(), st.args.begin(), st.args.end());
    for (const std::uint16_t r : st.args) {
      n_regs = std::max<std::uint16_t>(n_regs, r + 1);
    }
    n_regs = std::max<std::uint16_t>(n_regs, in.dst + 1);
    f.code.push_back(in);
  }
  f.n_regs = n_regs;
  vm::Module m;
  m.functions.push_back(std::move(f));
  m.fn_index["f"] = 0;
  return m;
}

Step length_of(std::uint16_t dst, std::uint16_t v) {
  return {{.op = vm::Op::kReduce, .prim = lang::Prim::kLength, .dst = dst},
          {v}};
}
Step range1_of(std::uint16_t dst, std::uint16_t n) {
  return {{.op = vm::Op::kBuild, .prim = lang::Prim::kRange1, .dst = dst},
          {n}};
}
Step seq_index(std::uint16_t dst, std::uint16_t v, std::uint16_t idx,
               std::int32_t lifted = 0) {
  return {{.op = vm::Op::kGather, .prim = lang::Prim::kSeqIndex, .depth = 1,
           .dst = dst, .lifted = lifted},
          {v, idx}};
}
Step ret(std::uint16_t r) { return {{.op = vm::Op::kRet}, {r}}; }

Step move(std::uint16_t dst, std::uint16_t src) {
  return {{.op = vm::Op::kMove, .dst = dst}, {src}};
}
Step jump(std::int32_t target) {
  return {{.op = vm::Op::kJump, .aux = target}, {}};
}

/// Gathers left in `m` after optimization with the frame record
/// `frames` of its one function, and the elision tally.
std::pair<std::size_t, std::uint64_t> optimize_gathers(
    const vm::Module& m, const vm::FrameParams& frames = {}) {
  vm::FuseStats stats;
  const std::vector<vm::FrameParams> record{frames};
  std::shared_ptr<const vm::Module> opt =
      vm::optimize_module(m, &stats, record);
  return {count_op(*opt, vm::Op::kGather), stats.elided_gathers};
}

TEST(VmFuse, IdentityGatherElisionFiresOnItsExactShape) {
  // The positive control for the near misses below.
  const vm::Module m =
      hand_built({length_of(2, 0), range1_of(3, 2), seq_index(4, 0, 3),
                  ret(4)});
  EXPECT_EQ(optimize_gathers(m),
            std::make_pair(std::size_t{0}, std::uint64_t{1}));
  vm::VM optimized(vm::optimize_module(m));
  vm::VM plain(std::make_shared<const vm::Module>(m));
  const lang::TypePtr seq_int = lang::Type::seq(lang::Type::int_());
  const kernels::VValue v = kernels::from_boxed(val("[3,1,2]"), seq_int);
  const kernels::VValue w = kernels::from_boxed(val("[9]"), seq_int);
  EXPECT_EQ(kernels::to_boxed(optimized.call_function("f", {v, w}), seq_int),
            kernels::to_boxed(plain.call_function("f", {v, w}), seq_int));
}

TEST(VmFuse, IdentityGatherElisionRejectsNearMisses) {
  const std::pair<std::size_t, std::uint64_t> kept{1, 0};
  // v is redefined between the length and the gather.
  EXPECT_EQ(optimize_gathers(hand_built(
                {length_of(2, 0), range1_of(3, 2),
                 {{.op = vm::Op::kMove, .dst = 0}, {1}}, seq_index(4, 0, 3),
                 ret(4)})),
            kept);
  // range1 of a different register's length.
  EXPECT_EQ(optimize_gathers(hand_built({length_of(2, 1), range1_of(3, 2),
                                         seq_index(4, 0, 3), ret(4)})),
            kept);
  // A per-slot seq_index^1 (lifted=11): slot i reads element i of row i.
  EXPECT_EQ(optimize_gathers(hand_built({length_of(2, 0), range1_of(3, 2),
                                         seq_index(4, 0, 3, 1), ret(4)})),
            kept);
  // The length sits in a predecessor block.
  EXPECT_EQ(optimize_gathers(hand_built(
                {length_of(2, 0), {{.op = vm::Op::kJump, .aux = 2}, {}},
                 range1_of(3, 2), seq_index(4, 0, 3), ret(4)})),
            kept);
}

// Extensions of two- and five-parameter functions: R0 reads each frame
// parameter Vk of f^1 as seq_index^1(Vk, range1(length(V1))).
const char* kFrames = R"(
  fun add2(a: int, b: int): int = a * b + a
  fun pairs(u: seq(int), v: seq(int)): seq(int) =
    [i <- [1 .. #u] : add2(u[i], v[i])]
  fun mix5(a: int, b: int, c: int, d: int, e: int): int =
    (a - b) * c + d * e
  fun five(u: seq(int), v: seq(int), k: int): seq(int) =
    [i <- [1 .. #u] : mix5(u[i], v[i], k, i, u[i] + 1)]
  fun app(f: (int, int) -> int, x: int, y: int): int = f(x, y)
)";

std::size_t gathers_in(const vm::Module& m, const std::string& fn) {
  const vm::Function* f = m.find(fn);
  EXPECT_NE(f, nullptr) << fn;
  if (f == nullptr) return 0;
  return static_cast<std::size_t>(
      std::count_if(f->code.begin(), f->code.end(), [](const vm::Instr& in) {
        return in.op == vm::Op::kGather;
      }));
}

TEST(VmFuse, ExtensionPrologueGathersAreElided) {
  Session s(kFrames);
  Session s0(kFrames, {}, unfused_options());
  const vm::Module& m = *s.compiled().module;
  // -O0 gathers every frame parameter; -O1 none of them.
  EXPECT_EQ(gathers_in(*s0.compiled().module, "add2^1"), 2u);
  EXPECT_EQ(gathers_in(*s0.compiled().module, "mix5^1"), 5u);
  EXPECT_EQ(gathers_in(m, "add2^1"), 0u);
  EXPECT_EQ(gathers_in(m, "mix5^1"), 0u);
  analysis::Report r = vm::verify_module(m);
  EXPECT_TRUE(r.ok()) << r.to_text();
  EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
  for (const auto& [u, v] : std::vector<std::pair<const char*, const char*>>{
           {"[1,2,3]", "[4,5,6]"},
           {"([] : seq(int))", "([] : seq(int))"},
           {"[-7]", "[9]"}}) {
    interp::ValueList two = {val(u), val(v)};
    EXPECT_EQ(testing::both(s, "pairs", two), s0.run_vm("pairs", two)) << u;
    interp::ValueList three = {val(u), val(v), val("3")};
    EXPECT_EQ(testing::both(s, "five", three), s0.run_vm("five", three))
        << u;
  }
}

TEST(VmFuse, FrameGatherElisionFiresOnItsExactShape) {
  // seq_index^1(r1, range1(length(r0))) over two frame parameters.
  const vm::Module m = hand_built(
      {length_of(2, 0), range1_of(3, 2), seq_index(4, 1, 3), ret(4)});
  EXPECT_EQ(optimize_gathers(m, {1, 1}),
            std::make_pair(std::size_t{0}, std::uint64_t{1}));
}

TEST(VmFuse, FrameGatherElisionRejectsNearMisses) {
  const std::pair<std::size_t, std::uint64_t> kept{1, 0};
  const std::vector<Step> shape = {length_of(2, 0), range1_of(3, 2),
                                   seq_index(4, 1, 3), ret(4)};
  // The same code without the frame record.
  EXPECT_EQ(optimize_gathers(hand_built(shape)), kept);
  // r1 is function-typed, so not a frame.
  EXPECT_EQ(optimize_gathers(hand_built(shape), {1, 0}), kept);
  // The frame parameter r1 is redefined before the gather.
  EXPECT_EQ(optimize_gathers(hand_built({length_of(2, 0), range1_of(3, 2),
                                         move(1, 3), seq_index(4, 1, 3),
                                         ret(4)}),
                             {1, 1}),
            kept);
  // The length sits in the entry block, the gather in its successor.
  EXPECT_EQ(optimize_gathers(hand_built({length_of(2, 0), jump(2),
                                         range1_of(3, 2), seq_index(4, 1, 3),
                                         ret(4)}),
                             {1, 1}),
            kept);
  // The whole prologue sits outside the entry block.
  EXPECT_EQ(optimize_gathers(hand_built({jump(1), length_of(2, 0),
                                         range1_of(3, 2), seq_index(4, 1, 3),
                                         ret(4)}),
                             {1, 1}),
            kept);
}

TEST(VmFuse, ExtensionsAreUnreachableFromOutside) {
  // The frame record holds because only the compiler calls an extension:
  // every function it covers carries no calling convention, so a Session
  // refuses it by name and as a function value.
  Session s(kFrames);
  const vm::Module& m = *s.compiled().module;
  const std::vector<vm::FrameParams> frames =
      vm::extension_frames(s.compiled().vec, m);
  ASSERT_EQ(frames.size(), m.functions.size());
  std::size_t records = 0;
  for (std::uint32_t i = 0; i < m.functions.size(); ++i) {
    if (frames[i].empty()) continue;
    ++records;
    EXPECT_EQ(m.signature(i), nullptr) << m.functions[i].name;
    EXPECT_NE(m.functions[i].name.find('^'), std::string::npos);
  }
  EXPECT_EQ(records, 2u);
  EXPECT_THROW((void)s.run_vm("add2^1", {val("[1]"), val("[2]")}),
               SignatureError);
  const std::string_view text[] = {"[1]", "[2]"};
  EXPECT_THROW((void)s.run_vm_text("add2^1", text), SignatureError);
  EXPECT_EQ(s.run_vm("app", {interp::Value::fun("add2"), val("3"), val("4")}),
            val("15"));
  EXPECT_THROW((void)s.run_vm("app", {interp::Value::fun("add2^1"), val("3"),
                                      val("4")}),
               SignatureError);
}

TEST(VmFuse, FrameGatherElisionFiresOnRandomPrograms) {
  // The -O0/-O1 differential of integration/fuzz_test.cpp covers the
  // frame elision only if its random programs contain extensions where
  // it fires: optimizing with the frame record must elide more gathers
  // than optimizing without it.
  std::size_t firing = 0;
  std::size_t total = 0;
  auto count = [&](const std::string& source) {
    Session s0(source, {}, unfused_options());
    const vm::Module& m = *s0.compiled().module;
    vm::FuseStats with;
    vm::FuseStats without;
    (void)vm::optimize_module(m, &with,
                              vm::extension_frames(s0.compiled().vec, m));
    (void)vm::optimize_module(m, &without);
    if (with.elided_gathers > without.elided_gathers) ++firing;
    ++total;
  };
  for (std::uint64_t seed = 1; seed < 33; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      count(testing::fuzz_program(seed, variant));
    }
  }
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    count(testing::helper_program(seed));
  }
  EXPECT_GT(firing, 0u) << "of " << total << " programs";
}

TEST(VmFuse, CopiesPropagateAcrossBlocks) {
  // A diamond: r3 <- r0 has one definition, so its use after the join
  // reads r0 and the move goes; r4 is set on both arms, so both of its
  // moves stay.
  //   f(r0, r1: seq(int), r2: bool) =
  //     r3 <- r0; if r2 then r4 <- r0 else r4 <- r1; r3 + r4
  const vm::Module m = hand_built(
      {move(3, 0),
       {{.op = vm::Op::kJumpIfFalse, .aux = 4}, {2}},
       move(4, 0),
       jump(5),
       move(4, 1),
       {{.op = vm::Op::kElementwise, .prim = lang::Prim::kAdd, .depth = 1,
         .dst = 5},
        {3, 4}},
       ret(5)},
      3);
  vm::FuseStats stats;
  std::shared_ptr<const vm::Module> opt = vm::optimize_module(m, &stats);
  EXPECT_EQ(count_op(*opt, vm::Op::kMove), 2u);
  EXPECT_EQ(stats.eliminated_moves, 1u);
  for (const vm::Instr& in : opt->functions[0].code) {
    if (in.op == vm::Op::kMove) {
      EXPECT_EQ(in.dst, 4u);
    }
  }
  analysis::Report r = vm::verify_module(*opt);
  EXPECT_TRUE(r.ok()) << r.to_text();

  vm::VM optimized(opt);
  vm::VM plain(std::make_shared<const vm::Module>(m));
  const lang::TypePtr seq_int = lang::Type::seq(lang::Type::int_());
  const kernels::VValue v = kernels::from_boxed(val("[3,1,2]"), seq_int);
  const kernels::VValue w = kernels::from_boxed(val("[10,20,30]"), seq_int);
  for (const bool pick : {true, false}) {
    const kernels::VValue b = kernels::VValue::bools(pick);
    EXPECT_EQ(
        kernels::to_boxed(optimized.call_function("f", {v, w, b}), seq_int),
        kernels::to_boxed(plain.call_function("f", {v, w, b}), seq_int));
  }
}

TEST(VmFuse, O1RunsNoMoreMovesThanO0) {
  // Copy propagation spans blocks, so the moves the elided gathers leave
  // never outnumber the moves -O0 runs.
  const std::string source =
      "fun quicksort(v: seq(int)): seq(int) = if #v <= 1 then v else "
      "let pivot = v[1 + (#v / 2)] in "
      "let parts = [p <- [[x <- v | x < pivot : x], "
      "[x <- v | x > pivot : x]] : quicksort(p)] in "
      "parts[1] ++ [x <- v | x == pivot : x] ++ parts[2]";
  Session fused(source);
  Session unfused(source, {}, unfused_options());
  interp::ValueList args = {val("[9,1,8,2,7,3,6,4,5,5,0,11,-3,8]")};
  EXPECT_EQ(testing::both(fused, "quicksort", args),
            unfused.run_vm("quicksort", args));
  const auto moves = [](const Session& s) {
    return s.last_cost()
        .vm_ops.per_op[static_cast<std::size_t>(vm::Op::kMove)]
        .count;
  };
  EXPECT_LE(moves(fused), moves(unfused));
}

TEST(VmFuse, RegisterReuseDoesNotCutChains) {
  // The assembler reuses r5 for the constants 3 and 1 of kChain; renaming
  // the first keeps the whole body one chain.
  Session s(kChain);
  EXPECT_EQ(s.compiled().fusion.fused_chains, 1u);
  EXPECT_EQ(count_fused(*s.compiled().module), 1u);
  EXPECT_EQ(s.compiled().fusion.fused_prims, 6u);
}

TEST(VmFuse, IdentityGatherElisionFiresOnRandomPrograms) {
  // The -O0/-O1 differential of integration/fuzz_test.cpp covers the
  // elision only if the random programs it compiles contain the shape.
  std::size_t firing = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed < 33; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      Session s(testing::fuzz_program(seed, variant));
      if (s.compiled().fusion.elided_gathers > 0) ++firing;
      ++total;
    }
  }
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    Session s(testing::helper_program(seed));
    if (s.compiled().fusion.elided_gathers > 0) ++firing;
    ++total;
  }
  EXPECT_GT(firing, 0u) << "of " << total << " programs";
}

TEST(VmFuse, OptimizeModuleRoundTrip) {
  // optimize_module over an unoptimized module: fuses, verifies clean,
  // and the optimized module's VM agrees with the original.
  Session s0(kChain, {}, unfused_options());
  vm::FuseStats stats;
  std::shared_ptr<const vm::Module> opt =
      vm::optimize_module(*s0.compiled().module, &stats);
  EXPECT_GT(stats.fused_chains, 0u);
  EXPECT_GT(count_fused(*opt), 0u);
  analysis::Report r = vm::verify_module(*opt);
  EXPECT_TRUE(r.ok()) << r.to_text();

  const lang::FunDef* f = s0.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  kernels::VValue arg =
      kernels::from_boxed(val("[3,1,4,1,5,9,2,6]"), f->params[0].type);
  vm::VM plain(s0.compiled().module);
  vm::VM optimized(opt);
  EXPECT_EQ(kernels::to_boxed(plain.call_function("chain", {arg}), f->result),
            kernels::to_boxed(optimized.call_function("chain", {arg}),
                           f->result));
}

TEST(VmFuse, InPlaceReuseIsSuppressedWhenCallerRetainsTheInput) {
  // call_function takes its arguments by value: passing {arg} while the
  // test retains `arg` leaves the buffer shared, so the fused kernel's
  // sole-ownership check must refuse to steal it. The input survives
  // unchanged and repeated calls agree.
  Session s(kChain);
  ASSERT_GT(s.compiled().fusion.fused_chains, 0u);
  const lang::FunDef* f = s.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  interp::Value boxed = val("[7,-2,0,31,8]");
  kernels::VValue arg = kernels::from_boxed(boxed, f->params[0].type);
  vm::VM machine(s.compiled().module);
  interp::Value r1 =
      kernels::to_boxed(machine.call_function("chain", {arg}), f->result);
  // The retained argument still holds its original contents...
  EXPECT_EQ(kernels::to_boxed(arg, f->params[0].type), boxed);
  // ...and a second call over the same buffer reproduces the result.
  interp::Value r2 =
      kernels::to_boxed(machine.call_function("chain", {arg}), f->result);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, s.run_reference("chain", {boxed}));
}

TEST(VmFuse, MoveConsumedArgumentsEnableInPlaceExecution) {
  // When the caller hands over its only reference, the fused chain runs
  // in the input's buffer: same result, one alloc fewer than the shared
  // case above.
  Session s(kChain);
  const lang::FunDef* f = s.compiled().checked.find("chain");
  ASSERT_NE(f, nullptr);
  vm::VM machine(s.compiled().module);
  kernels::VValue owned = kernels::from_boxed(val("[7,-2,0,31,8]"),
                                        f->params[0].type);
  interp::Value moved = kernels::to_boxed(
      machine.call_function("chain", {std::move(owned)}), f->result);
  EXPECT_EQ(moved, s.run_reference("chain", {val("[7,-2,0,31,8]")}));
}

TEST(VmFuse, ThrowsSurviveFusionMidChain) {
  // Division by zero inside a fused chain must throw exactly as the
  // unfused instructions would — including on the serial small-frame
  // path (n far below the parallel grain).
  const char* kDiv = R"(
    fun g(v: seq(int)): seq(int) = [x <- v : (10 / x) * 2 + 1]
  )";
  Session fused(kDiv);
  Session unfused(kDiv, {}, unfused_options());
  ASSERT_GT(fused.compiled().fusion.fused_chains, 0u);
  interp::ValueList ok = {val("[1,2,5]")};
  EXPECT_EQ(fused.run_vm("g", ok), unfused.run_vm("g", ok));
  interp::ValueList bad = {val("[1,0,5]")};
  EXPECT_THROW((void)unfused.run_vm("g", bad), EvalError);
  try {
    (void)fused.run_vm("g", bad);
    FAIL() << "expected division-by-zero EvalError from the fused chain";
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("division by zero"),
              std::string::npos);
  }
}

TEST(VmFuse, RepeatedOperandAliasingIsLaneSafe) {
  // x*x + x reads the frame operand in three leaves; with the chain run
  // in place the root writes into that same buffer, which is safe only
  // lane-by-lane. A wrong traversal order corrupts later lanes.
  Session s("fun g(v: seq(int)): seq(int) = [x <- v : x * x + x]");
  ASSERT_GT(s.compiled().fusion.fused_chains, 0u);
  testing::expect_both(s, "g", {val("[1,2,3,4]")}, "[2,6,12,20]");
}

TEST(VmFuse, FusionStatsRideThePipelineSpans) {
  // The optimize-vcode stage runs between assembly and verification and
  // its tallies land in Compiled::fusion (consumed by proteusc --stats).
  Session s(kChain);
  const vm::FuseStats& fs = s.compiled().fusion;
  EXPECT_GE(fs.fused_prims, fs.fused_chains * 2);
  EXPECT_GE(fs.eliminated_instrs, fs.fused_prims - fs.fused_chains);
}

TEST(VmFuse, ReachFromNeverBuildsDist) {
  // graph.p's reach_from asks member(i, nbrs) of every vertex. -O1 inlines
  // member^1 and fuses each dist(nbrs, #visited) with the dist^1, ==^1
  // and any^1 that read it: no dist is built and no call is left.
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) +
                   "/examples/programs/graph.p");
  std::ostringstream source;
  source << in.rdbuf();
  Session s(source.str());
  const vm::Module& m = *s.compiled().module;
  const vm::Function* f = m.find("reach_from");
  ASSERT_NE(f, nullptr);
  const std::string listing = vm::to_text(m, *f);
  EXPECT_EQ(listing, R"(fun reach_from (params 3, regs 15, code 25):
// memory plan: 11 static allocs
   0  reduce       r3 <- length(r2)
   1  const        r4 <- 0
   2  scalar       r3 <- ==(r3, r4)
   3  jfalse       r3 -> @6
   4  move         r3 <- r1
   5  jump         -> @24
   6  gather       r7 <- seq_index^1(r0, r2) lifted=01
   7  segment      r4 <- flatten(r7)
   8  const        r6 <- 1
   9  reduce       r7 <- length(r1)
  10  build        r6 <- range(r6, r7)
  11  reduce       r8 <- length(r6)
  12  build        r9 <- range1(r8)
  13  gather       r14 <- seq_index^1(r1, r6) lifted=01
  14  reduce       r13 <- length(r9)
  15  fused        r11 <- any^1(==(tile(r4!, r13!), splat(r6)))  ; 8 prims
  16  fused        r7 <- and(not(r14!), r11!)  ; 2 prims
  17  pack         r5 <- restrict(r6, r7)
  18  reduce       r7 <- length(r1)
  19  build        r8 <- range1(r7)
  20  reduce       r11 <- length(r8)
  21  fused        r9 <- any^1(==(tile(r5, r11!), splat(r8!)))  ; 8 prims
  22  elementwise  r6 <- or^1(r1, r9) lifted=11
  23  call         r3 <- reach_from(r0, r6, r5)
  24  ret          r3
)");
  std::istringstream lines(listing);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_FALSE(line.find("build") != std::string::npos &&
                 line.find("dist(") != std::string::npos)
        << line;
    EXPECT_EQ(line.find("member^1"), std::string::npos) << line;
  }
  testing::expect_both(s, "count_reachable",
                       {val("[[2,3],[4],[1],[],[5]]"), val("1")}, "4");
}

TEST(VmFuse, InlinedLeafCallIsNoFrame) {
  // -O1 inlines inc into twice: the run makes one call, not three, and
  // the inlined calls do not count toward the call-depth limit (T003).
  const char* program = R"(
    fun inc(x: int): int = x + 1
    fun twice(x: int): int = inc(inc(x))
  )";
  Session fused(program);
  Session unfused(program, {}, unfused_options());
  EXPECT_EQ(fused.compiled().fusion.inlined_calls, 2u);
  EXPECT_EQ(count_op(*fused.compiled().module, vm::Op::kCall), 0u);
  const interp::ValueList args = {val("40")};
  EXPECT_EQ(fused.run_vm("twice", args), val("42"));
  EXPECT_EQ(fused.last_cost().vm_ops.calls, 1u);
  EXPECT_EQ(unfused.run_vm("twice", args), val("42"));
  EXPECT_EQ(unfused.last_cost().vm_ops.calls, 3u);

  rt::ExecBudget budget;
  budget.max_depth = 1;
  fused.set_budget(budget);
  unfused.set_budget(budget);
  EXPECT_EQ(fused.run_vm("twice", args), val("42"));
  try {
    (void)unfused.run_vm("twice", args);
    FAIL() << "expected the -O0 call of inc to exceed the depth limit";
  } catch (const rt::RuntimeTrap& trap) {
    EXPECT_EQ(std::string(trap.code()), "T003");
  }
}

}  // namespace
}  // namespace proteus
