#include "serve/cache.hpp"

#include <filesystem>
#include <string>

#include "vm/module_io.hpp"

namespace proteus::serve {

ModuleCache::ModuleCache(std::string disk_dir)
    : disk_dir_(std::move(disk_dir)) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    // A failure here degrades to memory-only behaviour: every disk probe
    // below simply misses. The daemon reports the configured directory at
    // startup so a typo is visible.
  }
}

std::string ModuleCache::image_path(std::uint64_t key) const {
  return disk_dir_ + "/" + vm::hash_hex(key) + ".pvcm";
}

std::optional<CacheEntry> ModuleCache::lookup(std::uint64_t key,
                                              bool verify) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  if (disk_dir_.empty()) return std::nullopt;
  vm::ModuleLoadResult loaded = vm::load_module_file(image_path(key), verify);
  if (!loaded.ok() || loaded.source_hash != key) {
    // Unreadable, corrupt, rejected by the verifier, or a hash-renamed
    // file: all are treated as a miss — the caller recompiles and its
    // insert overwrites the bad image.
    return std::nullopt;
  }
  // Promote into memory only: the image is already on disk. A concurrent
  // insert that got there first wins.
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntry promoted{nullptr, std::move(loaded.module)};
  return entries_.try_emplace(key, std::move(promoted)).first->second;
}

CacheEntry ModuleCache::insert(std::uint64_t key, CacheEntry entry) {
  bool fresh = false;
  CacheEntry surviving;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::move(entry)).first;
      fresh = true;
    } else if (it->second.compiled == nullptr && entry.compiled != nullptr) {
      // First writer wins, with one exception: a full compilation
      // upgrades a module-only entry rehydrated from disk, so later
      // replies for that source carry its compile notes and report
      // "engine":"vm". Its image is already on disk.
      it->second = std::move(entry);
    }
    surviving = it->second;
  }
  if (fresh && !disk_dir_.empty() && surviving.module != nullptr) {
    try {
      vm::write_module_file(image_path(key), *surviving.module, key);
    } catch (const Error&) {
      // Disk tier is best-effort; serving continues from memory.
    }
  }
  return surviving;
}

std::size_t ModuleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace proteus::serve
