#ifndef EDUCE_EDB_CODE_CACHE_H_
#define EDUCE_EDB_CODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "base/counter.h"
#include "dict/dictionary.h"
#include "obs/lock_profiler.h"
#include "wam/code.h"

namespace educe::edb {

struct ArgSummary;  // clause_store.h

/// Counters and gauges for the EDB code cache. Counters accumulate until
/// ResetStats; `entries` and `bytes_resident` are gauges tracking current
/// residency (ResetStats leaves them alone). All fields are relaxed
/// atomics: concurrent worker sessions bump them through shared loaders.
struct CodeCacheStats {
  base::RelaxedCounter hits;            // procedure-tier hits
  base::RelaxedCounter misses;          // procedure-tier misses
  base::RelaxedCounter pattern_hits;    // pattern tier: exact-pattern key hit
  base::RelaxedCounter selection_hits;  // pattern tier: selection-fp hit
  base::RelaxedCounter pattern_misses;  // per-call loads that decode+link
  base::RelaxedCounter evictions;       // LRU capacity evictions
  base::RelaxedCounter invalidations;   // version-based removals (push/pull)
  base::RelaxedCounter entries;         // gauge: resident entries
  base::RelaxedCounter bytes_resident;  // gauge: approx resident bytes
};

/// LRU cache of decoded-and-linked EDB procedures (paper §3.1: the point
/// of storing compiled relative code is paying decode/link once, not per
/// call). Entries are keyed by *stable* identity — the external
/// dictionary's functor hash, never a ProcedureInfo pointer, so a dropped
/// procedure whose address is reused (ABA) can never alias a cache entry.
///
/// Two tiers share one logical LRU and one memory budget:
///  - kProcedure: the fully linked procedure (all clauses), used by the
///    loader's full-procedure path.
///  - kPattern/kSelection: per-call (pattern-filtered) loads. A kPattern
///    key fingerprints the call pattern exactly (kinds + values); a
///    kSelection key fingerprints the *surviving clause-id sequence* after
///    EDB-side filtering, so two different call patterns that select the
///    same clauses share one linked entry (the recursive-rule case, where
///    the bound argument value changes every level but the clause set
///    does not). A pattern key is attached to the selection entry as an
///    alias on first use, making later identical calls hit without
///    touching the EDB at all.
///
/// Invalidation is version-based and *pushed*: ClauseStore mutations call
/// InvalidateProcedure so stale entries are evicted eagerly. Lookup still
/// verifies the stored version as a safety net (a mismatch evicts and
/// counts as an invalidation, never serves stale code).
///
/// Thread safety (DESIGN.md §10): the cache is sharded by `proc_hash`
/// with one mutex per shard — every key of an entry shares its
/// procedure hash, so an entry, its aliases, and its push invalidation
/// all live in a single shard. Recency is a global atomic tick stamped
/// per touch; the capacity budget (entries + bytes) is global, so tiny
/// limits still evict the globally least-recent entry exactly as the
/// unsharded cache did. Eviction locks one shard at a time (never two),
/// and code is handed out as `shared_ptr<const LinkedCode>`, so an
/// eviction or invalidation never frees code under a running machine —
/// the machine's retained reference keeps it alive.
class CodeCache {
 public:
  struct Limits {
    size_t max_entries = 256;
    size_t max_bytes = 8u << 20;
  };

  enum class Tier : uint8_t { kProcedure = 0, kPattern = 1, kSelection = 2 };

  struct Key {
    uint64_t proc_hash = 0;  // ExternalDictionary::HashOf(name, arity)
    uint64_t sub_key = 0;    // 0 / pattern fingerprint / selection fp
    Tier tier = Tier::kProcedure;

    bool operator==(const Key& o) const {
      return proc_hash == o.proc_hash && sub_key == o.sub_key &&
             tier == o.tier;
    }
  };

  CodeCache() : CodeCache(Limits{}) {}
  explicit CodeCache(Limits limits);

  /// Changes the capacity bounds, evicting immediately if now over.
  void SetLimits(Limits limits);
  Limits limits() const {
    return Limits{max_entries_.load(std::memory_order_relaxed),
                  max_bytes_.load(std::memory_order_relaxed)};
  }

  /// Returns the cached code under `key` if present *and* its recorded
  /// version equals `version`; refreshes LRU recency. A version mismatch
  /// evicts the entry (counted as an invalidation) and misses. Hit/miss
  /// counters are attributed per tier from `key.tier`.
  std::shared_ptr<const wam::LinkedCode> Lookup(const Key& key,
                                                uint64_t version);

  /// Inserts `code` reachable under every key in `keys` (entries already
  /// under those keys are replaced), then evicts LRU entries until within
  /// budget. Every key must carry the same proc_hash (they do: pattern
  /// and selection keys of one load name one procedure). The newly
  /// inserted entry itself is never evicted by this call, so a single
  /// over-budget procedure still caches.
  void Insert(const std::vector<Key>& keys, uint64_t version,
              std::shared_ptr<const wam::LinkedCode> code);

  /// Attaches `alias` as an additional key of the entry under `existing`
  /// (no-op if absent or the per-entry alias bound is reached). Both keys
  /// must carry the same proc_hash.
  void Alias(const Key& existing, const Key& alias);

  /// Push invalidation: drops every entry of `proc_hash` (all tiers).
  void InvalidateProcedure(uint64_t proc_hash);

  /// Drops entries whose recorded version no longer matches the live
  /// procedure version (`current_version` returns nullopt for procedures
  /// that no longer resolve). Run before CollectSymbols so dictionary GC
  /// never retains symbols referenced only by outdated code. The callback
  /// is invoked with no shard lock held (it reads the clause store).
  void PurgeStale(
      const std::function<std::optional<uint64_t>(uint64_t proc_hash)>&
          current_version);

  /// Dictionary-GC roots: every symbol referenced by resident code.
  void CollectSymbols(std::set<dict::SymbolId>* out) const;

  /// One logical per-call load probes both the pattern and selection
  /// keys; the loader reports a single pattern miss when both fail.
  void NotePatternMiss() { ++stats_.pattern_misses; }

  /// Read-only view of one resident entry, for audits in tests and tools.
  struct EntryView {
    uint64_t proc_hash;
    uint64_t version;
    const std::vector<Key>& keys;
    const wam::LinkedCode& code;
  };
  /// Visits every resident entry, shard by shard, without touching
  /// recency or stats. Works from a snapshot, so entries inserted or
  /// evicted concurrently may be missed or visited after removal (their
  /// code is kept alive by the snapshot's references).
  void ForEachEntry(const std::function<void(const EntryView&)>& fn) const;

  void Clear();
  size_t entry_count() const { return stats_.entries.load(); }
  size_t bytes_resident() const { return stats_.bytes_resident.load(); }

  /// Per-shard resident byte occupancy. The 16-way hash split can skew
  /// badly when few procedures dominate (every key of a procedure lands
  /// in one shard); the max/min pair feeds the engine memory report so
  /// the skew is visible instead of hidden behind the global gauge.
  struct ShardOccupancy {
    uint64_t max_bytes = 0;
    uint64_t min_bytes = 0;
  };
  ShardOccupancy MeasureShardOccupancy() const;

  const CodeCacheStats& stats() const { return stats_; }
  /// Zeroes the counters; residency gauges are preserved.
  void ResetStats();

 private:
  struct Entry {
    uint64_t id = 0;         // unique, for stable identity across unlocks
    uint64_t last_used = 0;  // global recency tick at last touch
    uint64_t proc_hash = 0;
    uint64_t version = 0;
    std::shared_ptr<const wam::LinkedCode> code;
    size_t bytes = 0;
    std::vector<Key> keys;  // every index key resolving to this entry
  };
  using EntryList = std::list<Entry>;

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  // Shards are a fixed power of two; each owns a recency-ordered list
  // (front = shard's most recently used) plus the key index for the
  // entries resident in it.
  static constexpr size_t kShardCount = 16;
  struct Shard {
    mutable obs::TrackedMutex mu{EDUCE_LOCK_SITE("code_cache.shard")};
    EntryList lru;
    std::unordered_map<Key, EntryList::iterator, KeyHash> index;
  };

  Shard& ShardFor(uint64_t proc_hash) {
    return shards_[proc_hash & (kShardCount - 1)];
  }

  // Unlinks `it` from `shard` and updates the global gauges. Requires
  // shard.mu held. Returns the iterator past the removed entry.
  EntryList::iterator Remove(Shard& shard, EntryList::iterator it);

  // Evicts globally least-recently-used entries (never the entry whose
  // unique id is `keep_id`) until within budget. Takes shard locks one at
  // a time; call with no shard lock held.
  void EvictToFit(uint64_t keep_id);

  uint64_t NextTick() { return tick_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<size_t> max_entries_;
  std::atomic<size_t> max_bytes_;
  std::atomic<uint64_t> tick_{1};
  std::atomic<uint64_t> next_id_{1};
  Shard shards_[kShardCount];
  CodeCacheStats stats_;
};

/// Order-sensitive 64-bit fingerprint of a call pattern (kinds + values).
/// Stable across sessions: ArgSummary values are external hashes.
uint64_t FingerprintPattern(const std::vector<ArgSummary>& pattern);

/// Order-sensitive 64-bit fingerprint of a surviving clause-id sequence.
uint64_t FingerprintSelection(const std::vector<uint32_t>& clause_ids);

}  // namespace educe::edb

#endif  // EDUCE_EDB_CODE_CACHE_H_
