// proteusc — command-line driver for the proteus-vec pipeline.
//
//   proteusc FILE.p [options]
//
//   --entry EXPR       expression to evaluate in the program's scope
//   --call F A1 A2 ..  call function F with P literals as arguments
//   --engine E         vm (default) | ref | both (ref vs vm)
//   --dump STAGE       print a stage instead of running:
//                      checked | canon | flat | vec | vcode | trace
//   --stats[=json]     print cost counters after the run (text to
//                      stderr, or one machine-readable JSON document to
//                      stdout — see docs/OBSERVABILITY.md for the schema)
//   --trace-json FILE  record compile + runtime spans and write a Chrome
//                      trace-event file (open in Perfetto)
//   --analyze[=json]   run the static shape/depth analyzer and the VCODE
//                      bytecode verifier, print their diagnostics (text or
//                      one JSON document; schema in docs/ANALYSIS.md), and
//                      exit 0 (clean) or 3 (rejected) without running
//   --no-verify-vcode  skip bytecode verification of the assembled module
//   -O0 / -O1          disable / enable (default) the VCODE optimizer:
//                      elementwise chain fusion + dead-move elimination
//   --naive            disable the Section 4.5 optimizations (ablation)
//   --backend B        serial (default) | openmp — vl execution policy
//   --budget-mem N     cap live vl vector memory at N bytes (trap T001)
//   --budget-steps N   cap element-work steps at N (trap T002)
//   --budget-depth N   cap call/nesting depth at N (trap T003)
//   --budget-deadline-ms N  wall-clock deadline per run (trap T004)
//   --inject SPEC      deterministic fault injection, e.g. alloc:3,kernel:7
//                      (also via the PROTEUS_FAULT environment variable)
//   --emit-module FILE write the compiled VCODE module image (vm/module_io)
//   --load-module FILE run a module image instead of compiling source
//   --module-cache DIR AOT module cache keyed by source+options hash,
//                      shared with proteusd --cache-dir
//
// Exit codes: 0 success; 1 compile or runtime error; 2 usage error;
// 3 static analysis / bytecode verification rejected the program;
// 4 runtime trap (budget exceeded, cancelled, or an injected fault fired
//   during the run) — see docs/ROBUSTNESS.md.
//
// Examples:
//   proteusc examples/programs/sort.p --call quicksort '[3,1,2]'
//   proteusc examples/programs/sort.p --entry '[k <- [1..5] : sqs(k)]' --dump vec
//   proteusc examples/programs/sort.p --call quicksort '[3,1,2]' --engine vm --stats
//   proteusc sort.p --call quicksort '[3,1,2]' --trace-json t.json --stats=json
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/lifetime.hpp"
#include "core/proteus.hpp"
#include "core/report.hpp"
#include "lang/printer.hpp"
#include "rt/rt.hpp"
#include "vm/disasm.hpp"
#include "vm/module_io.hpp"
#include "vm/verify.hpp"

namespace {

[[noreturn]] void usage(const std::string& err = {}) {
  if (!err.empty()) std::cerr << "proteusc: " << err << "\n\n";
  // Requested help goes to stdout (so `proteusc --help | grep` works);
  // the usage dump accompanying a bad invocation goes to stderr.
  (err.empty() ? std::cout : std::cerr) <<
      "usage: proteusc FILE.p [options]\n"
      "       proteusc --load-module FILE.pvcm [--call F ARGS...] [options]\n"
      "\n"
      "what to run:\n"
      "  --entry EXPR        evaluate EXPR in the program's scope\n"
      "  --call F A1 A2 ..   call function F with P literals as arguments\n"
      "  --engine E          vm (default) | ref | both (ref vs vm)\n"
      "  --backend B         serial (default) | openmp - vl execution policy\n"
      "\n"
      "inspection instead of running:\n"
      "  --dump STAGE        checked | canon | flat | vec | vcode | trace\n"
      "  --analyze[=json]    run the static shape/depth analyzer and the\n"
      "                      VCODE verifier, print diagnostics (schema in\n"
      "                      docs/ANALYSIS.md), exit 0 (clean) / 3 (rejected);\n"
      "                      json output includes the \"memory\" section\n"
      "  --analyze=memory    print the per-function memory plan (static\n"
      "                      allocs) and the M3xx advisories of\n"
      "                      the buffer-lifetime analyzer\n"
      "\n"
      "compilation:\n"
      "  -O0 / -O1           disable / enable (default) the VCODE optimizer\n"
      "  --no-verify-vcode   skip bytecode verification of the module\n"
      "  --naive             disable the Section 4.5 optimizations (ablation)\n"
      "\n"
      "module images (docs/SERVING.md):\n"
      "  --emit-module FILE  write the compiled VCODE module image to FILE\n"
      "                      and exit (add --call to also run it)\n"
      "  --load-module FILE  run a module image instead of compiling source\n"
      "                      (vm engine; --call F, or the baked entry when\n"
      "                      no --call is given)\n"
      "  --module-cache DIR  AOT cache: on the vm engine, load <hash>.pvcm\n"
      "                      from DIR when the source+options hash is\n"
      "                      present - skipping parse/check/transform/\n"
      "                      compile entirely - and write it back after a\n"
      "                      miss (shared with proteusd --cache-dir)\n"
      "\n"
      "observability (docs/OBSERVABILITY.md):\n"
      "  --stats[=json]      print cost counters after the run (text on\n"
      "                      stderr, or one JSON document on stdout),\n"
      "                      including run.<engine>.duration_us wall-time\n"
      "                      histograms (count/p50/p95/p99)\n"
      "  --trace-json FILE   write compile + runtime spans as a Chrome\n"
      "                      trace-event file (open in Perfetto)\n"
      "\n"
      "robustness (docs/ROBUSTNESS.md):\n"
      "  --budget-mem N      cap live vl vector memory at N bytes (T001)\n"
      "  --budget-steps N    cap element-work steps at N (T002)\n"
      "  --budget-depth N    cap call/nesting depth at N (T003)\n"
      "  --budget-deadline-ms N  wall-clock deadline per run (T004)\n"
      "  --inject SPEC       deterministic fault injection, e.g.\n"
      "                      alloc:3,kernel:7,opt:1 (also via PROTEUS_FAULT)\n"
      "\n"
      "  --help              show this help\n"
      "\n"
      "exit codes: 0 success; 1 compile or runtime error; 2 usage error;\n"
      "            3 static analysis / bytecode verification rejected the\n"
      "              program (one line per diagnostic on stderr);\n"
      "            4 runtime trap: a --budget-* limit was exceeded or an\n"
      "              injected fault fired during the run (docs/ROBUSTNESS.md)\n";
  std::exit(err.empty() ? 0 : 2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void write_rule_counts_json(std::ostream& os,
                            const proteus::xform::RuleCounts& rules) {
  os << '{';
  bool first = true;
  for (const auto& [rule, count] : rules) {
    if (!first) os << ',';
    first = false;
    os << '"' << proteus::obs::json_escape(rule) << "\":" << count;
  }
  os << '}';
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();

  std::string file;
  std::string entry;
  std::string call;
  std::vector<std::string> call_args;
  std::string engine = "vm";
  std::string dump;
  bool analyze = false;
  bool analyze_json = false;
  bool analyze_memory = false;
  bool verify_vcode = true;
  bool optimize_vcode = true;
  bool stats = false;
  bool stats_json = false;
  bool naive = false;
  std::string backend = "serial";
  std::string trace_json;
  proteus::rt::ExecBudget budget;
  std::string inject;
  std::string emit_module;
  std::string load_module;
  std::string module_cache;

  auto parse_u64 = [](const std::string& text,
                      const char* what) -> std::uint64_t {
    try {
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
      return v;
    } catch (const std::exception&) {
      usage(std::string(what) + " expects a non-negative integer, got '" +
            text + "'");
    }
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* what) -> std::string {
      if (++i >= args.size()) usage(std::string("missing value for ") + what);
      return args[i];
    };
    if (a == "--help" || a == "-h") {
      usage();
    } else if (a == "--entry") {
      entry = next("--entry");
    } else if (a == "--call") {
      call = next("--call");
      while (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        call_args.push_back(args[++i]);
      }
    } else if (a == "--engine") {
      engine = next("--engine");
    } else if (a == "--dump") {
      dump = next("--dump");
    } else if (a == "--analyze") {
      analyze = true;
    } else if (a == "--analyze=json") {
      analyze = true;
      analyze_json = true;
    } else if (a == "--analyze=memory") {
      analyze = true;
      analyze_memory = true;
    } else if (a == "--no-verify-vcode") {
      verify_vcode = false;
    } else if (a == "-O0") {
      optimize_vcode = false;
    } else if (a == "-O1") {
      optimize_vcode = true;
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--stats=json") {
      stats = true;
      stats_json = true;
    } else if (a == "--trace-json") {
      trace_json = next("--trace-json");
    } else if (a == "--naive") {
      naive = true;
    } else if (a == "--backend") {
      backend = next("--backend");
    } else if (a == "--budget-mem") {
      budget.max_resident_bytes = parse_u64(next("--budget-mem"),
                                            "--budget-mem");
    } else if (a == "--budget-steps") {
      budget.max_steps = parse_u64(next("--budget-steps"), "--budget-steps");
    } else if (a == "--budget-depth") {
      budget.max_depth =
          static_cast<int>(parse_u64(next("--budget-depth"), "--budget-depth"));
    } else if (a == "--budget-deadline-ms") {
      budget.deadline_ms = parse_u64(next("--budget-deadline-ms"),
                                     "--budget-deadline-ms");
    } else if (a == "--inject") {
      inject = next("--inject");
    } else if (a == "--emit-module") {
      emit_module = next("--emit-module");
    } else if (a == "--load-module") {
      load_module = next("--load-module");
    } else if (a == "--module-cache") {
      module_cache = next("--module-cache");
    } else if (a.rfind("--", 0) == 0) {
      usage("unknown option '" + a + "'");
    } else if (file.empty()) {
      file = a;
    } else {
      usage("multiple input files");
    }
  }
  if (!load_module.empty()) {
    if (!file.empty()) usage("--load-module replaces the source FILE");
    if (!entry.empty()) {
      usage("--entry needs source forms; a module image runs its baked "
            "entry when no --call is given");
    }
    if (!dump.empty() || analyze) {
      usage("--dump/--analyze need source forms; module images carry none");
    }
    if (!emit_module.empty() || !module_cache.empty()) {
      usage("--load-module cannot combine with --emit-module/--module-cache");
    }
    if (engine != "vm") usage("module images run on the vm engine only");
  } else if (file.empty()) {
    usage("no input file");
  }
  if (engine != "ref" && engine != "vm" && engine != "both") {
    usage("--engine must be ref, vm, or both");
  }
  if (backend == "openmp") {
    proteus::vl::set_backend(proteus::vl::Backend::kOpenMP);
    if (proteus::vl::backend() != proteus::vl::Backend::kOpenMP) {
      std::cerr << "proteusc: OpenMP backend unavailable, using serial\n";
    }
  } else if (backend != "serial") {
    usage("--backend must be serial or openmp");
  }
  if (!inject.empty()) {
    try {
      proteus::rt::arm_faults(proteus::rt::parse_fault_plan(inject));
    } catch (const proteus::Error& e) {
      usage(e.what());
    }
  }
  // The budget covers compilation too (the parser and printer are
  // depth-governed; the optimizer can trap under injection) — the
  // Session re-installs the same budget around each run.
  proteus::rt::GovernorScope governor(budget);

  // One tracer covers compilation (installed before the Session is
  // constructed) and every run; `--dump trace` renders its rule events
  // as text, `--trace-json` exports the whole stream as a Chrome trace.
  const bool tracing = !trace_json.empty() || dump == "trace";
  proteus::obs::Tracer tracer;
  proteus::obs::MaybeTracerScope trace_scope(tracing ? &tracer : nullptr);

  auto write_trace = [&]() {
    if (trace_json.empty()) return;
    std::ofstream out(trace_json);
    if (!out) {
      std::cerr << "proteusc: cannot write '" << trace_json << "'\n";
      std::exit(1);
    }
    tracer.write_chrome_trace(out);
  };

  try {
    proteus::xform::PipelineOptions options;
    if (naive) {
      options.flatten.broadcast_invariant_seq_args = false;
      options.shared_row_gather = false;
    }
    options.verify_vcode = verify_vcode;
    options.optimize_vcode = optimize_vcode;

    // Tool-local wall-time distributions (run.<engine>.duration_us).
    // These are machine-dependent, so they live in their own registry —
    // never in the engine cost metrics, which must agree across
    // backends — and render as separate "[stats]" histogram lines.
    proteus::obs::MetricsRegistry timing;

    // A module image to run instead of compiling: --load-module, or an
    // AOT cache hit. Its Session runs on the VM alone, driven by the
    // image's serialized signatures — no source forms, no pipeline.
    std::shared_ptr<const proteus::vm::Module> image;
    std::string source;
    std::uint64_t module_key = 0;
    if (!load_module.empty()) {
      proteus::vm::ModuleLoadResult loaded =
          proteus::vm::load_module_file(load_module, verify_vcode);
      if (!loaded.ok()) {
        // Corrupt / truncated / wrong-version images land here with one
        // structured diagnostic per finding (B215/B216 + verifier B2xx).
        std::cerr << loaded.report.to_text();
        std::cerr << "proteusc: module image rejected\n";
        return 3;
      }
      image = loaded.module;
    } else {
      source = read_file(file);
      module_key = proteus::vm::module_key(source, entry, optimize_vcode,
                                           verify_vcode);
      // Only the vm engine can run an image; ref/both compile.
      if (!module_cache.empty() && engine == "vm" && dump.empty() &&
          !analyze && emit_module.empty()) {
        const std::string image_path =
            module_cache + "/" + proteus::vm::hash_hex(module_key) + ".pvcm";
        proteus::vm::ModuleLoadResult loaded =
            proteus::vm::load_module_file(image_path, verify_vcode);
        if (loaded.ok() && loaded.source_hash == module_key) {
          // AOT cache hit: parse/check/transform/compile all skipped.
          image = loaded.module;
        }
        // Miss (or stale/corrupt image): compile below and write it back.
      }
    }

    if (analyze) {
      // Compile through every stage and report the analyzer's + bytecode
      // verifier's findings instead of running; exit 3 on rejection.
      // The memory report (M3xx) is advisory and never affects the exit
      // code — only analyzer/verifier *errors* reject a program.
      proteus::analysis::Report report;
      proteus::analysis::Report memory;
      std::shared_ptr<const proteus::vm::Module> module;
      try {
        proteus::xform::Compiled compiled =
            proteus::xform::compile(source, entry, options);
        report = std::move(compiled.analysis);
        memory = std::move(compiled.memory_report);
        module = compiled.module;
      } catch (const proteus::analysis::AnalysisError& e) {
        report = e.report();
      }
      if (analyze_json) {
        // The "memory" section: the advisory report plus one plan summary
        // per planned function (docs/ANALYSIS.md).
        std::ostringstream mem;
        mem << "\"memory\":{\"report\":";
        memory.write_json(mem);
        mem << ",\"functions\":[";
        if (module != nullptr && module->plan != nullptr) {
          bool first = true;
          for (std::size_t i = 0; i < module->plan->functions.size(); ++i) {
            const proteus::analysis::FunctionPlan& fp =
                module->plan->functions[i];
            if (!first) mem << ',';
            first = false;
            mem << "{\"name\":\""
                << proteus::obs::json_escape(module->functions[i].name)
                << "\",\"static_allocs\":" << fp.static_allocs << '}';
          }
        }
        mem << "]}";
        report.write_json(std::cout, mem.str());
        std::cout << '\n';
      } else if (analyze_memory) {
        // Human-readable plan dump: one block per function, advisories
        // after (they name functions and pcs themselves).
        if (module != nullptr && module->plan != nullptr) {
          for (std::size_t i = 0; i < module->plan->functions.size(); ++i) {
            std::cout << "fun " << module->functions[i].name << ":\n"
                      << proteus::analysis::plan_to_text(
                             module->plan->functions[i]);
          }
        }
        std::cerr << memory.to_text();
        std::cerr << "memory plan: " << memory.warning_count()
                  << " advisories\n";
      } else {
        std::cerr << report.to_text();
        std::cerr << "analysis: " << (report.ok() ? "ok" : "reject") << " ("
                  << report.error_count() << " errors, "
                  << report.warning_count() << " warnings)\n";
      }
      write_trace();
      return report.ok() ? 0 : 3;
    }

    proteus::Session session =
        image != nullptr ? proteus::Session(image)
                         : proteus::Session(source, entry, options);
    if (tracing) session.set_tracer(&tracer);
    session.set_budget(budget);
    // Null when running a module image.
    const proteus::xform::Compiled* compiled = session.compiled_ptr().get();
    if (compiled != nullptr) {
      for (const std::string& note : compiled->compile_fallbacks) {
        std::cerr << "proteusc: [degraded] " << note << '\n';
      }
    }

    if (compiled != nullptr && !module_cache.empty() && dump.empty()) {
      // Write-back after a miss, so the next run of this source+options
      // skips the pipeline. Best-effort: cache trouble must not fail a
      // run that already compiled.
      std::error_code ec;
      std::filesystem::create_directories(module_cache, ec);
      try {
        proteus::vm::write_module_file(
            module_cache + "/" + proteus::vm::hash_hex(module_key) + ".pvcm",
            *compiled->module, module_key);
      } catch (const proteus::Error& e) {
        std::cerr << "proteusc: [module-cache] " << e.what() << '\n';
      }
    }
    if (!emit_module.empty()) {
      proteus::vm::write_module_file(emit_module, *compiled->module,
                                     module_key);
      if (call.empty()) {
        // Image written; nothing asked to run (an --entry, if given, was
        // baked into the image as its entry function).
        write_trace();
        return 0;
      }
    }

    if (dump == "trace") {
      // Same event stream as --trace-json, rendered textually: the two
      // derivation views cannot diverge.
      for (const std::string& line : tracer.rule_lines()) {
        std::cout << line << '\n';
      }
      write_trace();
      return 0;
    }
    if (dump == "vcode") {
      // Header states the verifier's verdict over the module being shown
      // (re-checked here so --no-verify-vcode still reports honestly).
      const proteus::analysis::Report verdict =
          proteus::vm::verify_module(*session.compiled().module);
      std::cout << "// vcode verify: " << (verdict.ok() ? "ok" : "reject")
                << " (" << verdict.error_count() << " errors, "
                << verdict.warning_count() << " warnings)\n";
      std::cout << proteus::vm::to_text(*session.compiled().module);
      return verdict.ok() ? 0 : 3;
    }
    if (!dump.empty()) {
      const auto& c = session.compiled();
      const proteus::lang::Program* stage = nullptr;
      const proteus::lang::ExprPtr* entry_stage = nullptr;
      if (dump == "checked") {
        stage = &c.checked;
        entry_stage = &c.entry_checked;
      } else if (dump == "canon") {
        stage = &c.canonical;
      } else if (dump == "flat") {
        stage = &c.flat;
        entry_stage = &c.entry_flat;
      } else if (dump == "vec") {
        stage = &c.vec;
        entry_stage = &c.entry_vec;
      } else {
        usage("--dump must be checked, canon, flat, vec, vcode, or trace");
      }
      std::cout << proteus::lang::to_text(*stage);
      if (entry_stage != nullptr && *entry_stage != nullptr) {
        std::cout << "// entry:\n"
                  << proteus::lang::to_text(*entry_stage) << '\n';
      }
      return 0;
    }

    if (stats && engine != "ref") session.set_vm_profile(true);

    std::vector<std::string> run_reports;  // one JSON object per run
    auto run = [&](const std::string& eng) -> proteus::interp::Value {
      proteus::interp::Value result;
      const auto run_start = std::chrono::steady_clock::now();
      if (!call.empty()) {
        proteus::interp::ValueList values;
        for (const std::string& lit : call_args) {
          values.push_back(proteus::parse_value(lit));
        }
        result = eng == "ref" ? session.run_reference(call, values)
                              : session.run_vm(call, values);
      } else if (!entry.empty() || image != nullptr) {
        result = eng == "ref" ? session.run_entry_reference()
                              : session.run_entry_vm();
      } else {
        usage("nothing to run: give --entry or --call (or --dump)");
      }
      timing.observe("run." + eng + ".duration_us", elapsed_us(run_start));
      if (stats) {
        if (stats_json) {
          std::ostringstream os;
          proteus::write_run_json(os, session.last_cost(), eng);
          run_reports.push_back(os.str());
        } else {
          proteus::print_stats_text(std::cerr, session.last_cost(), eng);
        }
      }
      return result;
    };

    proteus::interp::Value final_result;
    if (engine == "both") {
      proteus::interp::Value ref = run("ref");
      proteus::interp::Value vmv = run("vm");
      if (!(ref == vmv)) {
        std::cerr << "proteusc: ENGINE MISMATCH\n  ref: " << ref
                  << "\n  vm:  " << vmv << '\n';
        return 1;
      }
      if (!stats_json) {
        std::cout << vmv << '\n';
        std::cerr << "[both] engines agree\n";
      }
      final_result = vmv;
    } else {
      final_result = run(engine);
      if (!stats_json) std::cout << final_result << '\n';
    }

    if (stats && !stats_json) {
      if (compiled != nullptr) {
        const proteus::vm::FuseStats& f = compiled->fusion;
        std::cerr << "[compile] vcode optimizer: " << f.fused_chains
                  << " fused chains (" << f.fused_prims << " prims), "
                  << f.eliminated_instrs << " instrs eliminated ("
                  << f.eliminated_moves << " moves), " << f.elided_gathers
                  << " identity gathers elided\n";
      }
      proteus::print_histograms_text(std::cerr, timing);
    }

    if (stats_json) {
      // One machine-readable document on stdout: result, per-run
      // metrics, and compile-time rule-firing counts.
      std::ostringstream result_text;
      result_text << final_result;
      std::cout << "{\"program\":\"" << proteus::obs::json_escape(file)
                << "\",\"engine\":\"" << proteus::obs::json_escape(engine)
                << "\",\"backend\":\""
                << (proteus::vl::backend() == proteus::vl::Backend::kOpenMP
                        ? "openmp"
                        : "serial")
                << "\",\"result\":\""
                << proteus::obs::json_escape(result_text.str())
                << "\",\"runs\":[";
      for (std::size_t i = 0; i < run_reports.size(); ++i) {
        if (i > 0) std::cout << ',';
        std::cout << run_reports[i];
      }
      std::cout << "],\"timings\":";
      timing.write_json(std::cout);
      std::cout << ",\"compile\":";
      if (compiled == nullptr) {
        std::cout << "null}\n";  // a module image: nothing was compiled
      } else {
        std::cout << "{\"rule_counts\":";
        write_rule_counts_json(std::cout, compiled->rule_counts);
        const proteus::vm::FuseStats& f = compiled->fusion;
        std::cout << ",\"fusion\":{\"fused_chains\":" << f.fused_chains
                  << ",\"fused_prims\":" << f.fused_prims
                  << ",\"eliminated_instrs\":" << f.eliminated_instrs
                  << ",\"eliminated_moves\":" << f.eliminated_moves
                  << ",\"elided_gathers\":" << f.elided_gathers
                  << "}}}\n";
      }
    }

    write_trace();
    return 0;
  } catch (const proteus::analysis::AnalysisError& e) {
    // One clean line per diagnostic, then the verdict — no uncaught-
    // exception abort, and a distinct exit code for analysis rejection.
    std::cerr << e.report().to_text();
    std::cerr << "proteusc: static analysis rejected the program\n";
    return 3;
  } catch (const proteus::rt::RuntimeTrap& e) {
    // A resource budget was exceeded, cancellation was requested, or an
    // injected fault fired: a distinct exit code so harnesses can tell
    // "the runtime refused the run" from "broken program".
    std::cerr << "proteusc: resource trap: " << e.what() << '\n';
    return 4;
  } catch (const proteus::Error& e) {
    std::cerr << "proteusc: " << e.what() << '\n';
    return 1;
  }
}
