// module_io.hpp — the versioned binary (de)serializer for vm::Module:
// the compile-once / evaluate-many substrate of the serving daemon
// (src/serve/, docs/SERVING.md) and the AOT module cache of proteusc
// (`--emit-module` / `--load-module` / `--module-cache`).
//
// A module image is a self-contained encoding of everything the VM needs
// to dispatch: functions (instructions, argument pools, lift sets, fused
// micro-expressions), the constant pool (full nested-vector values), the
// type pool, the name pool, the entry index — plus the external calling
// convention (vm::Signature per function), which is what lets a loaded
// module be *called* with boxed P values when no AST exists in the
// process.
//
// Layout (all integers little-endian):
//
//   u32 magic "PVCM"   u32 version   u64 source_hash   body...
//
// Trust model: a module image is untrusted input. The loader never
// indexes past the buffer (every read is bounds-checked against the
// remaining bytes, every count validated before allocation) and never
// throws on malformed bytes — structural damage surfaces as B215
// (malformed/truncated image) or B216 (bad magic / unsupported version)
// diagnostics in the returned report, and the decoded module is then
// re-proved safe to dispatch by the existing bytecode verifier
// (vm/verify.hpp), exactly as if it had come from the assembler. A
// loaded module therefore enjoys the same soundness guarantee as a
// freshly compiled one, or it is rejected with a structured report —
// never a crash (see tests/vm/module_io_test.cpp's truncation sweep).
//
// The image carries no memory plan: the plan is a pure function of the
// bytecode, so the loader derives it (analysis::plan_module) for every
// module it returns, after the verifier has accepted the code. A load
// with `verify` off skips the verifier, and the caller vouches for the
// bytecode — for the VM's unchecked register indexing and for the plan
// derived from it alike.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "analysis/diagnostic.hpp"
#include "vm/bytecode.hpp"

namespace proteus::vm {

/// "PVCM" little-endian.
inline constexpr std::uint32_t kModuleMagic = 0x4D435650u;

/// Bump on any layout change; the loader rejects other versions (B216).
/// v2 added a memory-plan section after the entry index; v3 dropped its
/// register-to-slot coloring; v4 dropped the section (the loader derives
/// the plan from the bytecode); v5 gave each fused expression its
/// optional segmented reduce.
inline constexpr std::uint32_t kModuleVersion = 5;

/// FNV-1a 64-bit over `source` and an options tag: the cache key of the
/// module caches. Stable across processes and platforms, so on-disk cache
/// entries survive restarts and are shared between proteusc
/// (--module-cache) and proteusd (--cache-dir).
[[nodiscard]] std::uint64_t source_hash(std::string_view source,
                                        std::string_view options_tag = {});

/// The stable compile-options fingerprint that goes into the cache key;
/// e.g. optimize=true, verify=true -> "O1:v". Every producer/consumer of
/// a shared module cache must derive its keys through this one function.
[[nodiscard]] std::string options_tag(bool optimize, bool verify);

/// The cache key of one compilation: source_hash over the program source
/// and the entry expression, joined by 0x1E (the record separator, so no P
/// source can collide across the boundary), under
/// options_tag(optimize, verify). proteusc --module-cache and proteusd
/// both derive their keys here.
[[nodiscard]] std::uint64_t module_key(std::string_view source,
                                       std::string_view entry, bool optimize,
                                       bool verify);

/// Rendered as 16 lowercase hex digits (cache file stem / protocol key).
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

/// Outcome of decoding a module image.
struct ModuleLoadResult {
  /// The decoded, verified and planned module; null when `report`
  /// carries errors.
  std::shared_ptr<const Module> module;
  /// B215/B216 structural findings plus the bytecode verifier's report.
  analysis::Report report;
  /// The source hash recorded in the image header (0 for hand-built
  /// images); cache layers compare it against the key they looked up.
  std::uint64_t source_hash = 0;

  [[nodiscard]] bool ok() const { return module != nullptr; }
};

/// Serializes `m` (with `hash` in the header) onto `os` / into a string.
void write_module(std::ostream& os, const Module& m, std::uint64_t hash = 0);
[[nodiscard]] std::string module_bytes(const Module& m,
                                       std::uint64_t hash = 0);

/// Decodes a module image and attaches the memory plan derived from its
/// bytecode. Never throws on malformed input; with `verify` (default) the
/// decoded module must also pass the bytecode verifier before it is
/// planned and surfaced.
[[nodiscard]] ModuleLoadResult load_module(std::string_view bytes,
                                           bool verify = true);

/// File conveniences. write_module_file publishes atomically (a unique
/// .tmp. sibling renamed over `path`, so readers never see a partial
/// image) and throws proteus::Error on I/O failure; load_module_file
/// reports an unreadable file as a B215 diagnostic (same contract as
/// malformed bytes).
void write_module_file(const std::string& path, const Module& m,
                       std::uint64_t hash = 0);
[[nodiscard]] ModuleLoadResult load_module_file(const std::string& path,
                                                bool verify = true);

}  // namespace proteus::vm
