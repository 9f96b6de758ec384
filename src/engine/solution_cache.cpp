#include "engine/solution_cache.h"

#include <algorithm>

#include "support/metrics.h"

namespace pipemap {

SolutionCache::SolutionCache(std::size_t capacity, std::size_t shards) {
  shards = std::max<std::size_t>(1, shards);
  capacity = std::max<std::size_t>(shards, capacity);
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  capacity_ = per_shard_capacity_ * shards;
}

std::optional<CachedSolution> SolutionCache::Lookup(std::uint64_t key) {
  Shard& shard = ShardFor(key);
  std::optional<CachedSolution> result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result = it->second->second;
    }
  }
  if (!result && persist_.enabled()) {
    if (std::optional<CachedSolution> loaded = persist_.Load(key)) {
      // Rehydrate the memory tier so repeats are pure memory hits (and,
      // engine-side, the fingerprint is warm-pool eligible again). The
      // load is not a caller insert — only its eviction is counted.
      CachedSolution resident = *loaded;
      resident.from_disk = false;
      RecordInsert(/*inserted=*/false, InsertEntry(key, std::move(resident)));
      result = std::move(loaded);
    }
  }
  RecordLookup(result.has_value());
  return result;
}

void SolutionCache::Insert(std::uint64_t key, CachedSolution value) {
  value.from_disk = false;
  if (persist_.enabled()) persist_.Store(key, value);
  RecordInsert(/*inserted=*/true, InsertEntry(key, std::move(value)));
}

SolutionCacheStats SolutionCache::stats() const {
  SolutionCacheStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out.hits = hits_;
    out.misses = misses_;
    out.evictions = evictions_;
    out.inserts = inserts_;
  }
  out.capacity = capacity_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += shard->lru.size();
  }
  const PersistTierStats tier = persist_.stats();
  out.persist_enabled = tier.enabled;
  out.persist_hits = tier.hits;
  out.persist_misses = tier.misses;
  out.persist_writes = tier.writes;
  out.persist_write_drops = tier.write_drops;
  out.persist_corrupt = tier.corrupt;
  out.persist_errors = tier.errors;
  out.persist_evicted = tier.evicted;
  out.persist_read_only = tier.read_only;
  out.persist_breaker_state = tier.breaker_state;
  out.persist_breaker_opens = tier.breaker_opens;
  out.persist_breaker_skips = tier.breaker_skips;
  return out;
}

void SolutionCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

bool SolutionCache::InsertEntry(std::uint64_t key, CachedSolution value) {
  Shard& shard = ShardFor(key);
  bool evicted = false;
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evicted = true;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
  }
  return evicted;
}

void SolutionCache::RecordLookup(bool hit) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
    }
  }
  if (hit) {
    PIPEMAP_COUNTER_ADD("engine.cache.hits", 1);
  } else {
    PIPEMAP_COUNTER_ADD("engine.cache.misses", 1);
  }
}

void SolutionCache::RecordInsert(bool inserted, bool evicted) {
  if (!inserted && !evicted) return;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (inserted) ++inserts_;
    if (evicted) ++evictions_;
  }
  if (inserted) PIPEMAP_COUNTER_ADD("engine.cache.inserts", 1);
  if (evicted) PIPEMAP_COUNTER_ADD("engine.cache.evictions", 1);
}

}  // namespace pipemap
