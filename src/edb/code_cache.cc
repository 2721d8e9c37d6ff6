#include "edb/code_cache.h"

#include <algorithm>

#include "base/hash.h"
#include "edb/clause_store.h"
#include "wam/program.h"

namespace educe::edb {

namespace {

/// Per-entry bound on alias keys: beyond this, additional call patterns
/// simply miss the exact-pattern key and re-hit via their selection
/// fingerprint. Keeps entries with very many distinct callers (e.g. a
/// recursion over thousands of constants) from growing without bound.
constexpr size_t kMaxKeysPerEntry = 64;

uint64_t Combine(uint64_t h, uint64_t v) {
  return (h ^ base::MixInt64(v)) * 1099511628211ull;
}

}  // namespace

uint64_t FingerprintPattern(const std::vector<ArgSummary>& pattern) {
  uint64_t h = 1469598103934665603ull;
  for (const ArgSummary& s : pattern) {
    h = Combine(h, static_cast<uint64_t>(s.kind));
    // Unbound/list summaries carry no value; skip it so equal patterns
    // fingerprint equally regardless of stale bits.
    if (s.kind != ArgSummary::Kind::kAny && s.kind != ArgSummary::Kind::kList) {
      h = Combine(h, s.value);
    }
  }
  return Combine(h, pattern.size());
}

uint64_t FingerprintSelection(const std::vector<uint32_t>& clause_ids) {
  uint64_t h = 0x2545F4914F6CDD1Dull;  // distinct basis from patterns
  for (uint32_t id : clause_ids) h = Combine(h, id);
  return Combine(h, clause_ids.size());
}

size_t CodeCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = base::MixInt64(k.proc_hash);
  h = Combine(h, k.sub_key);
  h = Combine(h, static_cast<uint64_t>(k.tier));
  return static_cast<size_t>(h);
}

CodeCache::CodeCache(Limits limits)
    : max_entries_(limits.max_entries), max_bytes_(limits.max_bytes) {}

void CodeCache::SetLimits(Limits limits) {
  max_entries_.store(limits.max_entries, std::memory_order_relaxed);
  max_bytes_.store(limits.max_bytes, std::memory_order_relaxed);
  EvictToFit(/*keep_id=*/0);
}

CodeCache::EntryList::iterator CodeCache::Remove(Shard& shard,
                                                 EntryList::iterator it) {
  for (const Key& key : it->keys) {
    auto indexed = shard.index.find(key);
    if (indexed != shard.index.end() && indexed->second == it) {
      shard.index.erase(indexed);
    }
  }
  stats_.bytes_resident -= it->bytes;
  --stats_.entries;
  return shard.lru.erase(it);
}

void CodeCache::EvictToFit(uint64_t keep_id) {
  const size_t max_entries = max_entries_.load(std::memory_order_relaxed);
  const size_t max_bytes = max_bytes_.load(std::memory_order_relaxed);
  while (stats_.entries.load() > max_entries ||
         stats_.bytes_resident.load() > max_bytes) {
    // Pass 1: find the globally least-recent entry by peeking at each
    // shard's tail (its least-recent entry), skipping the keep entry.
    // One shard lock at a time — never two, so no ordering to violate.
    size_t victim_shard = kShardCount;
    uint64_t victim_id = 0;
    uint64_t victim_tick = UINT64_MAX;
    for (size_t s = 0; s < kShardCount; ++s) {
      std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
      for (auto it = shards_[s].lru.rbegin(); it != shards_[s].lru.rend();
           ++it) {
        if (it->id == keep_id) continue;  // never evict the fresh insert
        if (it->last_used < victim_tick) {
          victim_tick = it->last_used;
          victim_id = it->id;
          victim_shard = s;
        }
        break;  // the first non-keep entry from the tail is this shard's LRU
      }
    }
    if (victim_shard == kShardCount) return;  // nothing evictable
    // Pass 2: re-locate the victim by id (it may have been touched or
    // removed while unlocked) and evict it if it is still the entry we
    // chose. A concurrent touch just sends us around the loop again.
    {
      Shard& shard = shards_[victim_shard];
      std::lock_guard<obs::TrackedMutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
        if (it->id != victim_id) continue;
        if (it->last_used == victim_tick) {
          Remove(shard, it);
          ++stats_.evictions;
        }
        break;
      }
    }
  }
}

std::shared_ptr<const wam::LinkedCode> CodeCache::Lookup(const Key& key,
                                                         uint64_t version) {
  auto note_miss = [&] {
    if (key.tier == Tier::kProcedure) ++stats_.misses;
    // Pattern-tier misses are counted by the loader per logical load (one
    // load probes both the pattern and selection keys).
  };
  Shard& shard = ShardFor(key.proc_hash);
  std::lock_guard<obs::TrackedMutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    note_miss();
    return nullptr;
  }
  EntryList::iterator entry = it->second;
  if (entry->version != version) {
    // Safety net: push invalidation should have removed this already.
    Remove(shard, entry);
    ++stats_.invalidations;
    note_miss();
    return nullptr;
  }
  entry->last_used = NextTick();
  shard.lru.splice(shard.lru.begin(), shard.lru, entry);
  switch (key.tier) {
    case Tier::kProcedure: ++stats_.hits; break;
    case Tier::kPattern: ++stats_.pattern_hits; break;
    case Tier::kSelection: ++stats_.selection_hits; break;
  }
  return entry->code;
}

void CodeCache::Insert(const std::vector<Key>& keys, uint64_t version,
                       std::shared_ptr<const wam::LinkedCode> code) {
  if (keys.empty() || code == nullptr) return;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(keys.front().proc_hash);
  {
    std::lock_guard<obs::TrackedMutex> lock(shard.mu);
    for (const Key& key : keys) {
      auto it = shard.index.find(key);
      if (it != shard.index.end()) Remove(shard, it->second);
    }
    Entry entry;
    entry.id = id;
    entry.last_used = NextTick();
    entry.proc_hash = keys.front().proc_hash;
    entry.version = version;
    entry.bytes = wam::LinkedCodeBytes(*code);
    entry.code = std::move(code);
    entry.keys = keys;
    shard.lru.push_front(std::move(entry));
    stats_.bytes_resident += shard.lru.front().bytes;
    ++stats_.entries;
    for (const Key& key : keys) shard.index[key] = shard.lru.begin();
  }
  // Evict with the insert shard unlocked: EvictToFit takes shard locks
  // one at a time and must never nest under another shard's lock.
  EvictToFit(id);
}

void CodeCache::Alias(const Key& existing, const Key& alias) {
  Shard& shard = ShardFor(existing.proc_hash);
  std::lock_guard<obs::TrackedMutex> lock(shard.mu);
  auto it = shard.index.find(existing);
  if (it == shard.index.end()) return;
  EntryList::iterator entry = it->second;
  if (entry->keys.size() >= kMaxKeysPerEntry) return;
  auto aliased = shard.index.find(alias);
  if (aliased != shard.index.end()) {
    if (aliased->second == entry) return;  // already attached
    // The alias currently names another entry; re-point it and detach the
    // key from the old entry's key list.
    auto& old_keys = aliased->second->keys;
    for (auto k = old_keys.begin(); k != old_keys.end(); ++k) {
      if (*k == alias) {
        old_keys.erase(k);
        break;
      }
    }
  }
  entry->keys.push_back(alias);
  shard.index[alias] = entry;
}

void CodeCache::InvalidateProcedure(uint64_t proc_hash) {
  Shard& shard = ShardFor(proc_hash);
  std::lock_guard<obs::TrackedMutex> lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->proc_hash == proc_hash) {
      it = Remove(shard, it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

void CodeCache::PurgeStale(
    const std::function<std::optional<uint64_t>(uint64_t proc_hash)>&
        current_version) {
  // The callback reads the clause store (shared latch). Never call it
  // with a shard lock held: a concurrent mutator holds the store's write
  // latch while pushing invalidations into shard locks, so holding a
  // shard lock while waiting on the store latch would deadlock.
  for (size_t s = 0; s < kShardCount; ++s) {
    struct Probe {
      uint64_t id;
      uint64_t proc_hash;
      uint64_t version;
    };
    std::vector<Probe> probes;
    {
      std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
      for (const Entry& entry : shards_[s].lru) {
        probes.push_back(Probe{entry.id, entry.proc_hash, entry.version});
      }
    }
    std::vector<uint64_t> stale_ids;
    for (const Probe& probe : probes) {
      const std::optional<uint64_t> live = current_version(probe.proc_hash);
      if (!live.has_value() || *live != probe.version) {
        stale_ids.push_back(probe.id);
      }
    }
    if (stale_ids.empty()) continue;
    std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
    for (auto it = shards_[s].lru.begin(); it != shards_[s].lru.end();) {
      if (std::find(stale_ids.begin(), stale_ids.end(), it->id) !=
          stale_ids.end()) {
        it = Remove(shards_[s], it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
  }
}

void CodeCache::CollectSymbols(std::set<dict::SymbolId>* out) const {
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
    for (const Entry& entry : shards_[s].lru) {
      wam::CollectLinkedSymbols(*entry.code, out);
    }
  }
}

void CodeCache::ForEachEntry(
    const std::function<void(const EntryView&)>& fn) const {
  // Snapshot per shard, then visit outside the shard locks. The shared_ptr
  // copies keep code alive even if a concurrent eviction drops an entry
  // mid-visit.
  struct Snapshot {
    uint64_t proc_hash;
    uint64_t version;
    std::vector<Key> keys;
    std::shared_ptr<const wam::LinkedCode> code;
  };
  std::vector<Snapshot> entries;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
    for (const Entry& entry : shards_[s].lru) {
      entries.push_back(
          Snapshot{entry.proc_hash, entry.version, entry.keys, entry.code});
    }
  }
  for (const Snapshot& entry : entries) {
    fn(EntryView{entry.proc_hash, entry.version, entry.keys, *entry.code});
  }
}

void CodeCache::Clear() {
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
    for (const Entry& entry : shards_[s].lru) {
      stats_.bytes_resident -= entry.bytes;
      --stats_.entries;
    }
    shards_[s].lru.clear();
    shards_[s].index.clear();
  }
}

CodeCache::ShardOccupancy CodeCache::MeasureShardOccupancy() const {
  ShardOccupancy occupancy;
  occupancy.min_bytes = UINT64_MAX;
  for (size_t s = 0; s < kShardCount; ++s) {
    std::lock_guard<obs::TrackedMutex> lock(shards_[s].mu);
    uint64_t bytes = 0;
    for (const Entry& entry : shards_[s].lru) bytes += entry.bytes;
    if (bytes > occupancy.max_bytes) occupancy.max_bytes = bytes;
    if (bytes < occupancy.min_bytes) occupancy.min_bytes = bytes;
  }
  if (occupancy.min_bytes == UINT64_MAX) occupancy.min_bytes = 0;
  return occupancy;
}

void CodeCache::ResetStats() {
  const uint64_t entries = stats_.entries;
  const uint64_t bytes = stats_.bytes_resident;
  stats_ = CodeCacheStats{};
  stats_.entries = entries;
  stats_.bytes_resident = bytes;
}

}  // namespace educe::edb
