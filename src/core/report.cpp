#include "core/report.hpp"

namespace proteus {

namespace {

void publish_vl(obs::MetricsRegistry& m, const vl::VectorStats& s) {
  m.set("vl.primitive_calls", s.primitive_calls);
  m.set("vl.element_work", s.element_work);
  m.set("vl.segment_work", s.segment_work);
  m.set("vl.buffer_allocs", s.buffer_allocs);
}

void publish_per_prim(obs::MetricsRegistry& m, std::string_view prefix,
                      const std::map<lang::Prim, std::uint64_t>& per_prim) {
  for (const auto& [op, count] : per_prim) {
    m.set(std::string(prefix) + lang::prim_name(op), count);
  }
}

}  // namespace

void publish_metrics(RunCost& cost, std::string_view engine) {
  obs::MetricsRegistry& m = cost.metrics;
  m.clear();
  if (engine == "ref") {
    m.set("ref.iterations", cost.reference.iterations);
    m.set("ref.scalar_ops", cost.reference.scalar_ops);
    m.set("ref.steps", cost.reference.steps);
    m.set("ref.calls", cost.reference.calls);
    return;
  }
  if (engine == "vm") {
    m.set("vm.calls", cost.vm_ops.calls);
    m.set("vm.instructions", cost.vm_ops.instructions);
    m.set("vm.prim_applications", cost.vm_ops.prim_applications);
    publish_per_prim(m, "vm.prim.", cost.vm_ops.per_prim);
    for (int i = 0; i < vm::kNumOps; ++i) {
      const vm::OpProfile& p = cost.vm_ops.per_op[static_cast<std::size_t>(i)];
      if (p.count == 0) continue;
      const std::string base =
          std::string("vm.op.") + vm::op_name(static_cast<vm::Op>(i));
      m.set(base + ".count", p.count);
      m.set(base + ".work", p.element_work);
      if (p.nanos != 0) m.set(base + ".ns", p.nanos);
    }
    publish_vl(m, cost.vector_work);
    return;
  }
}

void print_stats_text(std::ostream& os, const RunCost& cost,
                      const std::string& engine) {
  if (engine == "ref") {
    os << "[stats] iterator iterations: " << cost.reference.iterations
       << ", scalar ops (work): " << cost.reference.scalar_ops
       << ", steps (critical path): " << cost.reference.steps
       << ", user calls: " << cost.reference.calls << '\n';
    return;
  }
  os << "[stats] vector primitives: " << cost.vector_work.primitive_calls
     << ", element work: " << cost.vector_work.element_work
     << ", segment work: " << cost.vector_work.segment_work
     << ", buffer allocs: " << cost.vector_work.buffer_allocs
     << ", user calls: " << cost.vm_ops.calls << '\n';
  os << "[stats] instruction mix:";
  for (const auto& [op, count] : cost.vm_ops.per_prim) {
    os << ' ' << lang::prim_name(op) << '=' << count;
  }
  os << '\n';
  os << "[stats] vm instructions: " << cost.vm_ops.instructions
     << "; per-opcode count/work/us:";
  for (int i = 0; i < vm::kNumOps; ++i) {
    const vm::OpProfile& p = cost.vm_ops.per_op[static_cast<std::size_t>(i)];
    if (p.count == 0) continue;
    os << ' ' << vm::op_name(static_cast<vm::Op>(i)) << '=' << p.count
       << '/' << p.element_work << '/' << p.nanos / 1000;
  }
  os << '\n';
  print_histograms_text(os, cost.metrics);
}

void print_histograms_text(std::ostream& os,
                           const obs::MetricsRegistry& metrics) {
  for (const auto& [name, h] : metrics.histograms()) {
    os << "[stats] " << name << ": count=" << h.count() << " p50=" << h.p50()
       << " p95=" << h.p95() << " p99=" << h.p99() << " min=" << h.min()
       << " max=" << h.max() << '\n';
  }
}

void write_run_json(std::ostream& os, const RunCost& cost,
                    std::string_view engine) {
  os << "{\"engine\":\"" << obs::json_escape(engine) << "\",\"metrics\":";
  cost.metrics.write_json(os);
  os << '}';
}

}  // namespace proteus
