// Sharded-LRU cache of mapping solutions, keyed by request fingerprint.
//
// The engine sees the same problem repeatedly: a frontier sweep rerun with
// one flag changed, a simulator mapping the workload it just mapped, a
// benchmark iterating, a server fleet re-solving yesterday's traffic.
// Solves cost seconds; a lookup costs a hash and a mutex. Values store the
// *serialized* mapping text (io/serialize.h) rather than the Mapping
// struct, so the cache-correctness contract — a cached solution is
// byte-identical to a recomputed one — is directly testable by string
// comparison, and a hit replays exactly the bytes a cold solve would have
// produced.
//
// The key's low bits pick one of N independently locked shards, so
// concurrent engine users do not serialize on one lock; each shard evicts
// its least-recently-used entry when full. A disk tier (one checksummed
// file per fingerprint, see cache_persist.h) stays dormant until
// EnablePersistence(dir); when enabled, a memory miss lazily probes disk
// and a hit there rehydrates the memory LRU, while inserts spill
// write-behind so restarts start warm. Aggregate stats() and the
// engine.cache.* registry counters are kept under their own mutex.
//
// With persistence off, this reproduces the original hand-written cache
// byte-for-byte — pinned by tests/engine/cache_policies_test.cpp, which
// drives it and a verbatim copy of the old implementation with identical
// operation sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache_persist.h"
#include "engine/cached_solution.h"

namespace pipemap {

struct SolutionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  /// Persistent tier (all zero when no cache dir is configured). A disk
  /// hit counts as a regular hit above AND a persist_hit here; the
  /// rehydrating memory insert it triggers is NOT counted in inserts, so
  /// the hits+misses+inserts accounting identity survives restarts.
  bool persist_enabled = false;
  std::uint64_t persist_hits = 0;
  std::uint64_t persist_misses = 0;
  std::uint64_t persist_writes = 0;
  std::uint64_t persist_write_drops = 0;
  std::uint64_t persist_corrupt = 0;
  std::uint64_t persist_errors = 0;
  std::uint64_t persist_evicted = 0;
  bool persist_read_only = false;
  /// Disk-error circuit breaker (support/circuit_breaker.h).
  std::string persist_breaker_state = "closed";
  std::uint64_t persist_breaker_opens = 0;
  std::uint64_t persist_breaker_skips = 0;
};

class SolutionCache {
 public:
  /// `capacity` entries total, split evenly over `shards` (at least one;
  /// each shard rounded up to hold at least one entry).
  explicit SolutionCache(std::size_t capacity = 256, std::size_t shards = 8);

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Returns the cached solution and marks it most recently used, or
  /// nullopt. A memory miss probes the persistent tier when one is
  /// enabled; a disk hit (CachedSolution::from_disk set) also rehydrates
  /// the memory tier. Counts a hit or miss either way.
  std::optional<CachedSolution> Lookup(std::uint64_t key);

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's
  /// least-recently-used entry when full, and spills the entry
  /// write-behind to the persistent tier when one is enabled.
  void Insert(std::uint64_t key, CachedSolution value);

  SolutionCacheStats stats() const;

  /// Drops every resident entry. The persistent tier, when enabled, is
  /// untouched: Clear is a memory reset, not a forget.
  void Clear();

  /// Points the disk tier at `dir` (see DiskPersistence::Enable).
  void EnablePersistence(const std::string& dir) { persist_.Enable(dir); }
  /// Same, with the full robustness knobs (size bound, disk breaker).
  void EnablePersistence(const DiskPersistOptions& options) {
    persist_.Enable(options);
  }

  /// Blocks until every accepted write-behind spill is on disk. No-op
  /// when persistence is disabled.
  void FlushPersistence() { persist_.Flush(); }

  bool persistence_enabled() const { return persist_.enabled(); }
  std::string persistence_dir() const { return persist_.dir(); }

 private:
  struct Shard {
    std::mutex mu;
    /// Most recently used first.
    std::list<std::pair<std::uint64_t, CachedSolution>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };

  Shard& ShardFor(std::uint64_t key) {
    return *shards_[static_cast<std::size_t>(key) % shards_.size()];
  }

  /// Refresh-or-insert under the shard lock; returns whether a resident
  /// entry was evicted. Stats are the caller's job (a caller insert and a
  /// disk rehydrate count differently).
  bool InsertEntry(std::uint64_t key, CachedSolution value);

  void RecordLookup(bool hit);
  /// `inserted` is false for a disk rehydrate: not a caller insert (the
  /// hits+misses+inserts identity must survive restarts), but an eviction
  /// it causes is real.
  void RecordInsert(bool inserted, bool evicted);

  std::size_t per_shard_capacity_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  DiskPersistence persist_;

  mutable std::mutex stats_mu_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t inserts_ = 0;
};

}  // namespace pipemap
