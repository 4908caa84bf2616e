// observability_test.cpp — the tracing/metrics layer end to end:
// RunCost resets on every run (no accumulation across back-to-back
// runs), the unified metric registry mirrors the engine stat structs,
// Session tracers capture run/op spans, compile() emits one span
// per pipeline phase, and `--dump trace` text (Compiled::derivation) is
// exactly Tracer::rule_lines() — one renderer, two views.
#include <set>
#include <string>
#include <string_view>

#include "core/report.hpp"
#include "testing.hpp"

namespace {

using namespace proteus;
using proteus::testing::val;

const char* kProgram = R"(
  fun sqs(n: int): seq(int) = [i <- [1 .. n] : i * i]
  fun total(n: int): int = sum(sqs(n))
)";

TEST(RunCostReset, BackToBackRunsDoNotAccumulate) {
  Session session(kProgram);
  (void)session.run_vm("total", {val("100")});
  const std::uint64_t work = session.last_cost().vector_work.element_work;
  const std::uint64_t prims =
      session.last_cost().vector_work.primitive_calls;
  ASSERT_GT(work, 0u);
  (void)session.run_vm("total", {val("100")});
  EXPECT_EQ(session.last_cost().vector_work.element_work, work);
  EXPECT_EQ(session.last_cost().vector_work.primitive_calls, prims);
  EXPECT_EQ(session.last_cost().metrics.get("vl.element_work"), work);

  (void)session.run_vm("total", {val("100")});
  const std::uint64_t vm_instr = session.last_cost().vm_ops.instructions;
  (void)session.run_vm("total", {val("100")});
  EXPECT_EQ(session.last_cost().vm_ops.instructions, vm_instr);

  (void)session.run_reference("total", {val("100")});
  const std::uint64_t iters = session.last_cost().reference.iterations;
  (void)session.run_reference("total", {val("100")});
  EXPECT_EQ(session.last_cost().reference.iterations, iters);
}

TEST(RunCostReset, EnginesDoNotLeakIntoEachOther) {
  Session session(kProgram);
  (void)session.run_vm("total", {val("50")});
  ASSERT_GT(session.last_cost().vector_work.element_work, 0u);

  (void)session.run_reference("total", {val("50")});
  // The whole RunCost was reset: no stale vector counters, and the
  // registry only holds the reference engine's metrics.
  EXPECT_EQ(session.last_cost().vector_work.element_work, 0u);
  EXPECT_GT(session.last_cost().reference.iterations, 0u);
  EXPECT_TRUE(session.last_cost().metrics.contains("ref.iterations"));
  EXPECT_FALSE(session.last_cost().metrics.contains("vm.calls"));
  EXPECT_FALSE(session.last_cost().metrics.contains("vl.element_work"));
}

TEST(Metrics, PublishedUnderUnifiedSchema) {
  Session session(kProgram);
  (void)session.run_vm("total", {val("64")});
  {
    const RunCost& c = session.last_cost();
    EXPECT_EQ(c.metrics.get("vl.element_work"),
              c.vector_work.element_work);
    EXPECT_EQ(c.metrics.get("vl.primitive_calls"),
              c.vector_work.primitive_calls);
    EXPECT_EQ(c.metrics.get("vl.segment_work"),
              c.vector_work.segment_work);
    EXPECT_EQ(c.metrics.get("vm.instructions"), c.vm_ops.instructions);
    EXPECT_EQ(c.metrics.get("vm.calls"), c.vm_ops.calls);
    EXPECT_EQ(c.metrics.get("vm.prim_applications"),
              c.vm_ops.prim_applications);
    bool has_per_op = false;
    for (const auto& [name, value] : c.metrics.all()) {
      if (name.rfind("vm.op.", 0) == 0) has_per_op = true;
    }
    EXPECT_TRUE(has_per_op);
  }

  (void)session.run_reference("total", {val("64")});
  {
    const RunCost& c = session.last_cost();
    EXPECT_EQ(c.metrics.get("ref.iterations"), c.reference.iterations);
    EXPECT_EQ(c.metrics.get("ref.scalar_ops"), c.reference.scalar_ops);
  }
}

TEST(Tracing, SessionTracerRecordsRunAndOpSpans) {
  Session session(kProgram);
  obs::Tracer tracer;
  session.set_tracer(&tracer);
  ASSERT_EQ(obs::tracer(), nullptr);  // install is per-run, not global

  (void)session.run_reference("total", {val("32")});
  (void)session.run_vm("total", {val("32")});
  EXPECT_EQ(obs::tracer(), nullptr);  // restored after every run

  std::set<std::string> run_spans;
  bool op_span = false;
  for (const auto& e : tracer.events()) {
    const std::string_view cat = e.cat;
    if (cat == "run") run_spans.insert(e.name);
    if (cat == "op") op_span = true;
  }
  EXPECT_TRUE(run_spans.count("run.reference"));
  EXPECT_TRUE(run_spans.count("run.vm"));
  EXPECT_TRUE(op_span);  // VM: one span per kernel opcode
}

TEST(Tracing, CompileEmitsPhaseSpansAndRuleEvents) {
  obs::Tracer tracer;
  obs::TracerScope scope(&tracer);
  Session session(kProgram);

  std::set<std::string> spans;
  std::uint64_t rule_events = 0;
  for (const auto& e : tracer.events()) {
    const std::string_view cat = e.cat;
    if (cat == "compile") spans.insert(e.name);
    if (cat == "rule") ++rule_events;
  }
  for (const char* want :
       {"parse", "check", "canonicalize[R1]", "flatten[R2]", "optimize",
        "translate[T1]", "analyze", "vm-assemble", "verify-vcode",
        "compile"}) {
    EXPECT_TRUE(spans.count(want)) << "missing compile span: " << want;
  }

  // Every rule firing is both tallied and (with a tracer) an event.
  std::uint64_t tallied = 0;
  for (const auto& [rule, count] : session.compiled().rule_counts) {
    tallied += count;
  }
  EXPECT_GT(tallied, 0u);
  EXPECT_EQ(rule_events, tallied);
}

TEST(Tracing, DerivationIsExactlyRuleLines) {
  xform::PipelineOptions options;
  options.collect_trace = true;

  // Without a tracer: compile() records into a pipeline-local one.
  Session plain(kProgram, "", options);
  ASSERT_FALSE(plain.compiled().derivation.empty());

  // With a tracer installed: same events land in it, same rendering.
  obs::Tracer tracer;
  {
    obs::TracerScope scope(&tracer);
    Session traced(kProgram, "", options);
    EXPECT_EQ(traced.compiled().derivation, tracer.rule_lines());
  }
  EXPECT_EQ(plain.compiled().derivation, tracer.rule_lines());
}

}  // namespace
