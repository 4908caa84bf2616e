// bench_compile — the cost of each phase of xform::compile on every
// examples/programs/*.p, with no tracer installed.
//
//   BM_phase/<phase>/<program>
//
// One benchmark runs one phase on the output of the phases before it;
// those are computed once, outside the timed loop. The phases are the
// spans of xform::compile (pipeline.cpp), in order: parse, check,
// canonicalize (R1), flatten (R2), optimize (shared-row rewrite and
// dead-let removal), translate (T1), analyze, assemble, optimize_vcode,
// verify and plan_memory. `compile` times the whole of xform::compile
// for reference: the phases sum to about it.
//
//   ./build/bench/bench_compile --benchmark_filter='flatten|optimize/'
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lifetime.hpp"
#include "analysis/shape.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "vm/compile.hpp"
#include "vm/fuse.hpp"
#include "vm/verify.hpp"
#include "xform/canon.hpp"
#include "xform/flatten.hpp"
#include "xform/optimize.hpp"
#include "xform/pipeline.hpp"
#include "xform/translate.hpp"

namespace {

using namespace proteus;

/// Every intermediate form of one program, as xform::compile builds them.
/// The NameGen copies are the generator's state entering each
/// name-generating phase, so every timed run makes the same names.
struct Stages {
  std::string source;
  lang::Program parsed;
  lang::Program checked;
  xform::NameGen names_canon;
  lang::Program canonical;
  xform::NameGen names_flatten;
  lang::Program flat;
  lang::Program optimized;
  xform::NameGen names_translate;
  lang::Program vec;
  std::shared_ptr<vm::Module> assembled;
  std::shared_ptr<const vm::Module> module;
};

std::shared_ptr<const Stages> build_stages(std::string source) {
  auto s = std::make_shared<Stages>();
  s->source = std::move(source);
  s->parsed = lang::parse_program(s->source);
  s->checked = lang::typecheck(s->parsed);
  xform::NameGen names;
  s->names_canon = names;
  s->canonical = xform::canonicalize(s->checked, names, nullptr);
  s->names_flatten = names;
  s->flat = xform::flatten(s->canonical, names).program;
  s->optimized = xform::remove_dead_lets(xform::optimize_shared_rows(s->flat));
  s->names_translate = names;
  s->vec = xform::translate(s->optimized, names);
  s->assembled = vm::compile_module(s->vec, nullptr);
  s->module = vm::optimize_module(
      *s->assembled, nullptr, vm::extension_frames(s->vec, *s->assembled));
  return s;
}

using Phase = std::function<void(const Stages&)>;

std::vector<std::pair<const char*, Phase>> phases() {
  return {
      {"parse",
       [](const Stages& s) {
         benchmark::DoNotOptimize(lang::parse_program(s.source));
       }},
      {"check",
       [](const Stages& s) {
         benchmark::DoNotOptimize(lang::typecheck(s.parsed));
       }},
      {"canonicalize",
       [](const Stages& s) {
         xform::NameGen names = s.names_canon;
         benchmark::DoNotOptimize(
             xform::canonicalize(s.checked, names, nullptr));
       }},
      {"flatten",
       [](const Stages& s) {
         xform::NameGen names = s.names_flatten;
         benchmark::DoNotOptimize(xform::flatten(s.canonical, names));
       }},
      {"optimize",
       [](const Stages& s) {
         benchmark::DoNotOptimize(
             xform::remove_dead_lets(xform::optimize_shared_rows(s.flat)));
       }},
      {"translate",
       [](const Stages& s) {
         xform::NameGen names = s.names_translate;
         benchmark::DoNotOptimize(xform::translate(s.optimized, names));
       }},
      {"analyze",
       [](const Stages& s) {
         benchmark::DoNotOptimize(analysis::analyze_program(s.vec));
       }},
      {"assemble",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::compile_module(s.vec, nullptr));
       }},
      {"optimize_vcode",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::optimize_module(
             *s.assembled, nullptr,
             vm::extension_frames(s.vec, *s.assembled)));
       }},
      {"verify",
       [](const Stages& s) {
         benchmark::DoNotOptimize(vm::verify_module(*s.module));
       }},
      {"plan_memory",
       [](const Stages& s) {
         benchmark::DoNotOptimize(analysis::plan_module(*s.module));
       }},
      {"compile",
       [](const Stages& s) {
         benchmark::DoNotOptimize(xform::compile(s.source));
       }},
  };
}

std::vector<std::filesystem::path> example_programs() {
  namespace fs = std::filesystem;
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(
           fs::path(PROTEUS_SOURCE_DIR) / "examples" / "programs")) {
    if (e.path().extension() == ".p") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const auto& path : example_programs()) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::shared_ptr<const Stages> stages = build_stages(ss.str());
    for (auto& [name, run] : phases()) {
      const std::string label =
          std::string("BM_phase/") + name + "/" + path.stem().string();
      benchmark::RegisterBenchmark(
          label.c_str(),
          [stages, run = run](benchmark::State& state) {
            for (auto _ : state) run(*stages);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
