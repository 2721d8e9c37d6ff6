#ifndef EDUCE_EDB_EXTERNAL_DICTIONARY_H_
#define EDUCE_EDB_EXTERNAL_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/result.h"
#include "base/status.h"
#include "obs/lock_profiler.h"
#include "storage/bang_file.h"
#include "storage/buffer_pool.h"

namespace educe::storage {
class Wal;
}  // namespace educe::storage

namespace educe::edb {

/// WAL record type for a freshly minted dictionary entry (u32 arity +
/// name bytes — the same shape as the stored table's payload). Declared
/// here rather than next to the clause store's private record types
/// because both the dictionary (append side) and the store's replay
/// dispatch need it. Value 5 follows the store's 1..4.
inline constexpr uint8_t kWalDictEntry = 5;

/// The External Dictionary (paper §4 structure 2): a BANG-managed table
/// of (name, arity, hash) for every atom/functor referenced by code or
/// facts in the EDB. The hash — "computed by applying the hash function
/// of the internal dictionary, without clash resolution" — is the
/// *associative address* embedded in stored relative code; it is stable
/// across sessions and across internal-dictionary garbage collection,
/// which is exactly why compiled code in the EDB stays valid (paper §3.1).
///
/// Thread safety: internally latched (one leaf mutex around the
/// write-through cache and the stored table, lock site
/// `external_dictionary.mu`), so concurrent worker sessions may
/// Ensure/Resolve against one shared instance.
class ExternalDictionary {
 public:
  static base::Result<ExternalDictionary> Create(storage::BufferPool* pool);

  /// Re-attaches to an existing dictionary inside `pool`'s reloaded paged
  /// file, from bytes produced by SerializeState (the superblock's
  /// external-dictionary segment). Corruption on malformed state.
  static base::Result<ExternalDictionary> Open(storage::BufferPool* pool,
                                               std::string_view state);

  /// Reopen state: the epoch, entry count and the underlying BANG file's
  /// directory. Written at clean shutdown.
  std::string SerializeState() const;

  /// Identity stamp of this dictionary instance, minted at Create and
  /// preserved across Open, and recorded in the image's superblock. Two
  /// databases with equal schemas still differ in epoch, so anything
  /// keyed by this dictionary's hashes can tell which database it
  /// belongs to.
  uint64_t epoch() const { return epoch_; }

  /// Ensures an entry for (name, arity) exists; returns its persisted
  /// hash (the relative address used by stored code).
  base::Result<uint64_t> Ensure(std::string_view name, uint32_t arity);

  /// The hash (name, arity) would have, without storing anything.
  static uint64_t HashOf(std::string_view name, uint32_t arity);

  /// Resolves a persisted hash back to (name, arity) — the loader's
  /// associative-address resolution step. NotFound if never stored.
  base::Result<std::pair<std::string, uint32_t>> Resolve(uint64_t hash);

  /// Wires the write-ahead log in. Dictionary pages only reach disk at
  /// checkpoint, yet WAL-replayed rows embed atom hashes — so every new
  /// entry is itself logged (kWalDictEntry) ahead of any record that
  /// references it, and recovery re-Ensures them. Set after replay, like
  /// ClauseStore::set_wal, so redone entries are not re-logged.
  void set_wal(storage::Wal* wal) { wal_ = wal; }

  uint64_t entry_count() const {
    std::lock_guard<obs::TrackedMutex> lock(*mu_);
    return entries_;
  }

 private:
  explicit ExternalDictionary(storage::BangFile file)
      : file_(std::move(file)) {}

  storage::BangFile file_;  // 1 key attr: the hash; payload: arity + name
  storage::Wal* wal_ = nullptr;
  // Write-through cache; misses fall back to the stored table.
  std::unordered_map<uint64_t, std::pair<std::string, uint32_t>> cache_;
  uint64_t entries_ = 0;
  uint64_t epoch_ = 0;
  // Behind unique_ptr so the dictionary stays movable (Create/Open
  // return by value). Leaf lock: nothing is called out to while held
  // except buffer-pool page fetches (themselves a leaf). Decoding takes
  // it only on the internal dictionary's probe misses (CodeCodec).
  std::unique_ptr<obs::TrackedMutex> mu_ =
      std::make_unique<obs::TrackedMutex>(
          EDUCE_LOCK_SITE("external_dictionary.mu"));
};

}  // namespace educe::edb

#endif  // EDUCE_EDB_EXTERNAL_DICTIONARY_H_
