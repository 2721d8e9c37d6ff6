#ifndef EDUCE_DICT_DICTIONARY_H_
#define EDUCE_DICT_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>

#include "obs/lock_profiler.h"
#include <string>
#include <string_view>
#include <vector>

#include "base/counter.h"
#include "base/result.h"
#include "base/status.h"

namespace educe::dict {

/// Unique identifier of an atom or functor. Per paper §3.3.1 the identifier
/// is the concatenation of a segment number and the slot index inside that
/// segment; it never changes for the lifetime of the entry, so compiled
/// code may embed it and unification reduces to an integer compare.
using SymbolId = uint32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

/// Statistics maintained by the dictionary; read by tests and by the
/// dictionary ablation benchmark (DESIGN.md Ablation D). Every counter
/// moves only under the exclusive side of the latch, so lookups from
/// concurrent worker sessions touch no shared counter.
struct DictionaryStats {
  base::RelaxedCounter inserts;
  base::RelaxedCounter removes;
  base::RelaxedCounter slot_reuses;  // inserts that landed on a tombstone
  base::RelaxedCounter segments_allocated;
};

/// The segmented closed-hash dictionary of Educe* (paper §3.3.1).
///
/// Requirements it satisfies, numbered as in the paper:
///  1. Unique identifiers: `(segment, slot)` packed into a SymbolId.
///  2/3. Space is bounded per segment and deleted slots are reused.
///  4. Entries are never relocated: an id stays valid until Remove().
///  5. Extensible: when every segment passes the high-water mark a new
///     segment is chained on; insertions go to the lowest-occupancy
///     ("hot") segment to balance collision-chain lengths.
///  6/7/8. Exact-match lookup by linear probing inside each closed
///     segment, with a fast FNV-1a key-to-address transform.
///
/// Thread safety: all operations are internally latched by a
/// reader-writer lock — lookups take the read side, Remove the write
/// side, and Intern the read side to find an existing entry and the
/// write side only to insert a new one — so concurrent worker sessions
/// may intern and resolve symbols against one shared dictionary
/// (DESIGN.md §10). `string_view`s returned by NameOf stay valid across
/// growth (slots are never relocated) but not across Remove of that same
/// symbol; removal only happens in dictionary GC, which requires all
/// sessions to be retired.
class Dictionary {
 public:
  struct Options {
    /// Slots per segment. Must be a power of two. The paper's test
    /// configuration used 32000-entry segments; the default here is
    /// smaller so that segment-chaining behaviour shows up in tests.
    uint32_t segment_capacity = 8192;
    /// New segment allocated once all segments exceed this live-entry
    /// fraction (paper suggests 70%).
    double high_water = 0.70;
  };

  Dictionary() : Dictionary(Options{}) {}
  explicit Dictionary(const Options& options);

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Finds the entry for (name, arity), inserting it if absent.
  /// Fails with ResourceExhausted only if the 2^32 id space is exhausted.
  base::Result<SymbolId> Intern(std::string_view name, uint32_t arity);

  /// Exact-match lookup; nullopt if absent.
  std::optional<SymbolId> Lookup(std::string_view name, uint32_t arity) const;

  /// True if `id` refers to a live entry.
  bool IsLive(SymbolId id) const;

  /// Name of a live symbol. Requires IsLive(id).
  std::string_view NameOf(SymbolId id) const;
  /// Arity of a live symbol. Requires IsLive(id).
  uint32_t ArityOf(SymbolId id) const;
  /// Persisted key-to-address hash of a live symbol (shared with the
  /// external dictionary, paper §4). Requires IsLive(id).
  uint64_t HashOf(SymbolId id) const;

  /// Removes a symbol; its slot becomes a reusable tombstone. Ids of other
  /// symbols are unaffected (paper point 4: no relocation).
  base::Status Remove(SymbolId id);

  /// A live symbol and its arity, as found by FindExternal.
  struct ExternalEntry {
    SymbolId id;
    uint32_t arity;
  };

  /// The loader's address resolution on its fast path (paper §3.1, §4):
  /// the live symbol marked external whose hash is `hash`, probing only
  /// the slots that hash addresses; nullopt if none is marked. A miss
  /// means the caller must resolve `hash` through the external
  /// dictionary, intern the result and MarkExternal it.
  std::optional<ExternalEntry> FindExternal(uint64_t hash) const;

  /// Marks live symbol `id` as checked against the external dictionary,
  /// which maps `external_hash` to it. The invariant the mark carries: a
  /// marked live slot's hash is that symbol's external-dictionary hash.
  /// So nothing is marked when `external_hash` differs from the slot's
  /// own hash (the external dictionary remaps the one hash BANG reserves
  /// as its wildcard); that symbol always takes the miss path. Remove and
  /// slot reuse clear the mark.
  void MarkExternal(SymbolId id, uint64_t external_hash);

  /// Invokes `fn(id)` for every live symbol (dictionary GC sweeps).
  /// Holds the read latch for the whole sweep; `fn` must not call back
  /// into a mutating dictionary operation.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
    for (uint32_t s = 0; s < segments_.size(); ++s) {
      for (uint32_t i = 0; i < options_.segment_capacity; ++i) {
        if (segments_[s].slots[i].state == SlotState::kLive) {
          fn(PackId(s, i, slot_bits_));
        }
      }
    }
  }

  /// Number of live entries.
  size_t size() const;
  /// Number of segments currently chained.
  size_t segment_count() const;
  /// Live-entry occupancy of segment `i` in [0, 1].
  double SegmentOccupancy(size_t i) const;

  const DictionaryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DictionaryStats{}; }

 private:
  enum class SlotState : uint8_t { kEmpty, kLive, kTombstone };

  struct Slot {
    SlotState state = SlotState::kEmpty;
    bool external = false;  // see MarkExternal
    uint32_t arity = 0;
    uint64_t hash = 0;
    std::string name;
  };

  struct Segment {
    std::vector<Slot> slots;
    uint32_t live = 0;
    uint32_t tombstones = 0;
  };

  static SymbolId PackId(uint32_t segment, uint32_t slot, uint32_t slot_bits) {
    return (segment << slot_bits) | slot;
  }

  // Probes segment `seg` for (name, arity, hash). Returns the slot index of
  // the live entry, or nullopt.
  std::optional<uint32_t> FindInSegment(const Segment& seg,
                                        std::string_view name, uint32_t arity,
                                        uint64_t hash) const;

  // Id of the live entry for (name, arity, hash) in any segment, or
  // nullopt. The caller holds mu_ (either side).
  std::optional<SymbolId> FindAnywhere(std::string_view name, uint32_t arity,
                                       uint64_t hash) const;

  // Index of the segment new insertions should target, allocating a new
  // segment if every existing one is past the high-water mark.
  uint32_t PickHotSegment();

  void AllocateSegment();

  Options options_;
  uint32_t slot_bits_;      // log2(segment_capacity)
  uint32_t slot_mask_;      // segment_capacity - 1
  std::vector<Segment> segments_;
  size_t live_count_ = 0;
  uint32_t hot_segment_ = 0;
  mutable obs::TrackedSharedMutex mu_{EDUCE_LOCK_SITE("dict.mu")};
  mutable DictionaryStats stats_;
};

}  // namespace educe::dict

#endif  // EDUCE_DICT_DICTIONARY_H_
