// module_io_test.cpp — the versioned module image (de)serializer
// (vm/module_io.hpp): roundtrip identity, header validation, and the
// untrusted-input contract (truncation / corruption never crashes — it
// yields a structured B215/B216 report or a module the verifier accepted).
#include "vm/module_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lifetime.hpp"
#include "core/proteus.hpp"
#include "testing.hpp"

namespace proteus::vm {
namespace {

// A program that exercises most of the encoder's surface: several
// functions (so signatures and the function table matter), nested
// sequences, tuples, reals, conditionals, recursion, an entry, and
// segmented fused expressions (dots: a reduce root, a tile, a splat and
// an insert between two members).
constexpr const char* kProgram = R"(
  fun sq(n: int): int = n * n
  fun sqs(n: int): seq(int) = [i <- [1 .. n] : sq(i)]
  fun total(xs: seq(seq(int))): int = sum([x <- xs : sum(x)])
  fun mix(p: (int, real)): real = real(p.1) + p.2
  fun fact(n: int): int = if n <= 1 then 1 else n * fact(n - 1)
  fun dot(x: int, v: seq(int)): int = sum([y <- v : y * x + 1])
  fun dots(v: seq(int), n: int): seq(int) = [i <- [1 .. n] : dot(i, v)]
)";

/// True when `m` carries a segmented fused expression with an insert
/// between two members, so the image sweeps reach every v5 field.
bool has_segmented_chain(const Module& m) {
  for (const Function& f : m.functions) {
    for (const kernels::FusedExpr& fe : f.fused) {
      if (fe.reduce && !fe.reinserts.empty()) return true;
    }
  }
  return false;
}

std::shared_ptr<const Module> compile_program(
    std::string_view source, std::string_view entry = "sqs(4)") {
  Session session(source, entry);
  return session.compiled().module;
}

/// (path, source) of every example program the corpus tests compile.
std::vector<std::pair<std::string, std::string>> example_sources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const char* path :
       {"examples/programs/sort.p", "examples/programs/primes.p",
        "examples/programs/graph.p", "examples/programs/stats.p",
        "examples/programs/nbody.p", "examples/programs/mandel.p"}) {
    std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/" + path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.emplace_back(path, buf.str());
  }
  return sources;
}

TEST(ModuleIO, RoundtripBytesAreAFixedPoint) {
  auto module = compile_program(kProgram);
  const std::uint64_t hash = source_hash(kProgram, options_tag(true, true));
  const std::string bytes = module_bytes(*module, hash);

  ModuleLoadResult loaded = load_module(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
  EXPECT_EQ(loaded.source_hash, hash);

  // serialize . deserialize . serialize == serialize: the image is a
  // fixed point, so nothing is lost or reordered by a decode cycle.
  EXPECT_EQ(module_bytes(*loaded.module, loaded.source_hash), bytes);
}

TEST(ModuleIO, RoundtripPreservesStructureAndSignatures) {
  auto module = compile_program(kProgram);
  ModuleLoadResult loaded = load_module(module_bytes(*module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();

  EXPECT_EQ(loaded.module->functions.size(), module->functions.size());
  EXPECT_EQ(loaded.module->constants.size(), module->constants.size());
  EXPECT_EQ(loaded.module->entry, module->entry);
  ASSERT_EQ(loaded.module->signatures.size(), module->signatures.size());
  auto it = loaded.module->fn_index.find("total");
  ASSERT_NE(it, loaded.module->fn_index.end());
  const Signature* sig = loaded.module->signature(it->second);
  ASSERT_NE(sig, nullptr);
  ASSERT_EQ(sig->params.size(), 1u);
  EXPECT_EQ(lang::to_string(sig->params[0]), "seq(seq(int))");
  EXPECT_EQ(lang::to_string(sig->result), "int");
}

TEST(ModuleIO, LoadedModuleComputesTheSameResults) {
  Session session(kProgram, "sqs(4)");
  ModuleLoadResult loaded =
      load_module(module_bytes(*session.compiled().module));
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();

  Session image(loaded.module);
  EXPECT_EQ(image.run_entry_vm(), session.run_entry_vm());
  EXPECT_EQ(image.run_vm("fact", {testing::val("6")}),
            session.run_vm("fact", {testing::val("6")}));
  EXPECT_EQ(image.run_vm("total", {testing::val("[[1,2],[3,4,5]]")}),
            session.run_vm("total", {testing::val("[[1,2],[3,4,5]]")}));
  EXPECT_EQ(image.run_vm("mix", {testing::val("(3, 0.5)")}),
            session.run_vm("mix", {testing::val("(3, 0.5)")}));
}

TEST(ModuleIO, BadMagicAndVersionAreB216) {
  auto module = compile_program(kProgram);
  std::string bytes = module_bytes(*module);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  ModuleLoadResult r = load_module(bad_magic);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has("B216")) << r.report.to_text();

  std::string bad_version = bytes;
  bad_version[4] = 99;  // version word
  r = load_module(bad_version);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has("B216")) << r.report.to_text();

  r = load_module(std::string_view{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has("B216")) << r.report.to_text();
}

TEST(ModuleIO, EveryTruncationFailsCleanly) {
  auto module = compile_program(kProgram);
  ASSERT_TRUE(has_segmented_chain(*module));
  const std::string bytes = module_bytes(*module);
  ASSERT_GT(bytes.size(), 16u);

  // A module image decodes to exactly its full length (the loader rejects
  // trailing bytes), so *every* proper prefix must be rejected — with a
  // structured diagnostic, never a crash or an exception.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ModuleLoadResult r = load_module(std::string_view(bytes.data(), len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(r.report.has("B215") || r.report.has("B216"))
        << "prefix of " << len << " bytes: " << r.report.to_text();
  }

  // Trailing garbage after a well-formed image is also malformed.
  ModuleLoadResult r = load_module(bytes + "extra");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has("B215")) << r.report.to_text();
}

TEST(ModuleIO, EveryCorruptedByteIsHandled) {
  auto module = compile_program(kProgram);
  ASSERT_TRUE(has_segmented_chain(*module));
  const std::string bytes = module_bytes(*module);

  // Flip every byte in turn. The contract is not that every flip is
  // detected (a flipped constant payload is a different, equally valid
  // image) but that none of them crashes the loader and that a rejected
  // image always carries a structured diagnostic.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    ModuleLoadResult r = load_module(mutated);
    if (!r.ok()) {
      EXPECT_FALSE(r.report.ok())
          << "byte " << i << ": rejected without a diagnostic";
    }
  }
}

TEST(ModuleIO, ImageBytesDoNotDependOnThePlan) {
  // The memory plan is derived from the bytecode, never stored: a module
  // serializes to the same image with or without one attached.
  auto module = compile_program(kProgram);
  ASSERT_NE(module->plan, nullptr);
  Module stripped = *module;
  stripped.plan = nullptr;
  EXPECT_TRUE(module_bytes(*module) == module_bytes(stripped));
}

TEST(ModuleIO, EveryLoadedModuleIsPlanned) {
  // The loader derives the plan of every module it returns, verified load
  // or not, and derives exactly the plan the compiler attached.
  for (const auto& [path, source] : example_sources()) {
    SCOPED_TRACE(path);
    Session session(source);
    const Module& compiled = *session.compiled().module;
    ASSERT_NE(compiled.plan, nullptr);
    Module stripped = compiled;
    stripped.plan = nullptr;
    const std::string bytes = module_bytes(stripped);
    for (const bool verify : {true, false}) {
      SCOPED_TRACE(verify ? "verify" : "no verify");
      ModuleLoadResult loaded = load_module(bytes, verify);
      ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
      ASSERT_NE(loaded.module->plan, nullptr);
      EXPECT_TRUE(*loaded.module->plan == *compiled.plan);
    }
  }
}

TEST(ModuleIO, FileRoundtripAndMissingFile) {
  auto module = compile_program(kProgram);
  const std::uint64_t hash = source_hash(kProgram);
  const std::string path =
      ::testing::TempDir() + "/module_io_test_roundtrip.pvcm";

  write_module_file(path, *module, hash);
  ModuleLoadResult loaded = load_module_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
  EXPECT_EQ(loaded.source_hash, hash);
  EXPECT_EQ(module_bytes(*loaded.module, hash), module_bytes(*module, hash));
  std::remove(path.c_str());

  ModuleLoadResult missing =
      load_module_file(::testing::TempDir() + "/no_such_module.pvcm");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.report.has("B215")) << missing.report.to_text();
}

TEST(ModuleIO, WriteModuleFileNeverRewritesAnOpenImage) {
  // A reader that opened image A keeps reading exactly A while a writer
  // publishes image B on the same path: write_module_file renames a new
  // file into place instead of truncating the one the reader holds.
  const std::string path =
      ::testing::TempDir() + "/module_io_test_publish.pvcm";
  auto a = compile_program(kProgram);
  auto b = compile_program("fun twice(xs: seq(int)): seq(int) = "
                           "[x <- xs : 2 * x]",
                           "twice([1, 2])");
  const std::string a_bytes = module_bytes(*a, 1);
  const std::string b_bytes = module_bytes(*b, 2);
  ASSERT_NE(a_bytes, b_bytes);

  write_module_file(path, *a, 1);
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader.good());
  write_module_file(path, *b, 2);
  std::ostringstream seen;
  seen << reader.rdbuf();
  // (Compared as a bool: gtest would print both binary images.)
  EXPECT_TRUE(seen.str() == a_bytes)
      << "the open stream read " << seen.str().size()
      << " bytes that are not image A (" << a_bytes.size() << " bytes)";

  // The path itself now holds B.
  std::ifstream fresh(path, std::ios::binary);
  std::ostringstream now;
  now << fresh.rdbuf();
  EXPECT_TRUE(now.str() == b_bytes);
  std::remove(path.c_str());
}

TEST(ModuleIO, RoundtripIsIdentityOnTheExampleCorpus) {
  // The property test over real programs: for every example in the
  // repository, serialize . deserialize is the identity (checked via the
  // fixed-point formulation, which covers every table and pool at once)
  // and the decoded module still satisfies the bytecode verifier.
  for (const auto& [path, source] : example_sources()) {
    SCOPED_TRACE(path);
    Session session(source);
    const std::uint64_t hash = source_hash(source, options_tag(true, true));
    const std::string bytes =
        module_bytes(*session.compiled().module, hash);

    ModuleLoadResult loaded = load_module(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.report.to_text();
    EXPECT_EQ(loaded.source_hash, hash);
    EXPECT_EQ(module_bytes(*loaded.module, loaded.source_hash), bytes);
  }
}

TEST(ModuleIO, SourceHashSeparatesSourceFromOptions) {
  // The 0x1F separator keeps ("ab","c") distinct from ("a","bc"), and the
  // options tag distinguishes otherwise identical sources.
  EXPECT_NE(source_hash("ab", "c"), source_hash("a", "bc"));
  EXPECT_NE(source_hash("x", options_tag(true, true)),
            source_hash("x", options_tag(false, true)));
  EXPECT_NE(source_hash("x", options_tag(true, true)),
            source_hash("x", options_tag(true, false)));
  // Stable across calls/processes (FNV-1a is fully deterministic).
  EXPECT_EQ(source_hash("fun f(): int = 1", "O1:v"),
            source_hash("fun f(): int = 1", "O1:v"));

  EXPECT_EQ(options_tag(true, true), "O1:v");
  EXPECT_EQ(options_tag(false, false), "O0:nv");
  EXPECT_EQ(hash_hex(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(hash_hex(0).size(), 16u);
}

}  // namespace
}  // namespace proteus::vm
