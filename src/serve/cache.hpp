// cache.hpp — the compile-once module cache of the serving layer.
//
// Keyed by vm::source_hash(source, options_tag): the same program text
// under the same compile options always maps to the same key, across
// requests, connections, and (through the disk tier) process restarts.
//
// Two tiers:
//
//   * memory — the full xform::Compiled (shared_ptr, never copied) and
//     its module: a hit serves evaluation through a Session over the
//     module, exactly as a disk hit does. This is the hot tier concurrent
//     requests share.
//   * disk (optional) — the serialized VCODE module image
//     (vm/module_io.hpp) under <dir>/<hex key>.pvcm: survives restarts
//     and is shared with `proteusc --module-cache`. A disk hit re-verifies
//     the image through the bytecode verifier and serves through
//     a Session over the bare module (VM only — source forms are not on
//     disk).
//
// All methods are safe to call from concurrent worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "vm/bytecode.hpp"
#include "xform/pipeline.hpp"

namespace proteus::serve {

/// One cached compilation. Exactly one of the two views may be missing:
/// `compiled` is null for entries rehydrated from a disk image.
struct CacheEntry {
  std::shared_ptr<const xform::Compiled> compiled;
  std::shared_ptr<const vm::Module> module;  ///< never null in a valid entry
};

class ModuleCache {
 public:
  /// `disk_dir` empty: memory-only. Otherwise the directory is created
  /// (best-effort) and used as the persistent tier.
  explicit ModuleCache(std::string disk_dir = {});

  /// Memory first, then disk. A disk hit is promoted into memory (as a
  /// module-only entry) so it pays verification once per process; the
  /// image on disk is left as it is.
  /// `verify` gates load-time bytecode verification of disk images.
  [[nodiscard]] std::optional<CacheEntry> lookup(std::uint64_t key,
                                                 bool verify = true);

  /// Publishes `entry` under `key` (first writer wins — concurrent
  /// compilers of the same source race benignly) and, when a disk tier is
  /// configured and the key is new here, writes the module image
  /// atomically (vm::write_module_file). Returns the surviving entry.
  CacheEntry insert(std::uint64_t key, CacheEntry entry);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& disk_dir() const { return disk_dir_; }

 private:
  [[nodiscard]] std::string image_path(std::uint64_t key) const;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, CacheEntry> entries_;
  std::string disk_dir_;
};

}  // namespace proteus::serve
