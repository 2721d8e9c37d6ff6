#ifndef EDUCE_STORAGE_BANG_FILE_H_
#define EDUCE_STORAGE_BANG_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/counter.h"
#include "base/result.h"
#include "base/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace educe::storage {

/// Wildcard key value: "this attribute is unbound" in a partial-match scan.
inline constexpr uint64_t kBangWildcard = 0xFFFFFFFFFFFFFFFFull;

/// Counters for the BANG file; the indexing ablation reads bucket_scans
/// to show how key boundness narrows retrieval.
/// Relaxed atomics: scans from concurrent worker sessions (under the
/// clause store's read latch) bump the scan counters of one shared file.
struct BangFileStats {
  base::RelaxedCounter inserts;
  base::RelaxedCounter splits;
  base::RelaxedCounter directory_doublings;
  base::RelaxedCounter overflow_pages;
  base::RelaxedCounter scans_opened;
  base::RelaxedCounter buckets_scanned;   // pages walked, overflow included
  base::RelaxedCounter records_examined;  // live rows in the walked pages
  base::RelaxedCounter records_matched;   // of those, rows the keys selected
};

/// A multi-attribute dynamic file in the grid-file family, standing in for
/// Freeston's BANG file (DESIGN.md §2 substitution table).
///
/// Every record carries `num_attrs` 64-bit attribute keys (hash values —
/// the external dictionary's persisted functor hashes, or mixed integer
/// values) plus an opaque payload. The bucket address interleaves the bits
/// of the per-attribute keys, so a scan with any subset of the attributes
/// bound visits only the buckets consistent with the bound bits: exactly
/// the partial-match retrieval Educe* needs to filter clause heads
/// (paper §3.2.2, §4).
///
/// Growth is by extendible hashing on the interleaved address: bucket
/// splits, doubling the in-memory directory when a bucket's local depth
/// reaches the global depth. Buckets that stop being splittable (all
/// records share address bits to kMaxDepth) chain overflow pages.
class BangFile {
 public:
  /// A record returned by a scan.
  struct Record {
    std::vector<uint64_t> keys;
    std::string payload;
    RecordId rid;
  };

  /// Creates a new file with `num_attrs` key attributes (1..16) in `pool`.
  static base::Result<BangFile> Create(BufferPool* pool, uint32_t num_attrs);

  /// Reopen state: the directory (which lives in memory, not in pages)
  /// plus the scalar file parameters, as an opaque byte string. Persist it
  /// at clean shutdown (the clause-store catalog does) and pass it to
  /// Open to re-attach to the same buckets in a later session.
  std::string SerializeState() const;

  /// Re-attaches to an existing file inside `pool`'s (reloaded) paged
  /// file from bytes produced by SerializeState. Validates shape and page
  /// ids; Corruption on malformed state.
  static base::Result<BangFile> Open(BufferPool* pool,
                                     std::string_view state);

  /// Inserts a record. All keys must be real values (not kBangWildcard).
  /// Fails if keys+payload exceed one page's capacity.
  base::Status Insert(const std::vector<uint64_t>& keys,
                      std::string_view payload);

  /// Deletes the record identified by `rid` (as returned by a scan that
  /// has not been interleaved with inserts — inserts may split buckets and
  /// relocate records).
  base::Status Delete(RecordId rid);

  /// Row predicate over a record's raw payload bytes, run in the page
  /// after the bound keys matched. It may reject rows that cannot be
  /// wanted (a necessary-only filter); it must not keep the view.
  using RowFilter = std::function<bool(std::string_view payload)>;

  /// Partial-match scan: `pattern[i] == kBangWildcard` leaves attribute i
  /// unbound. Bound attributes must match exactly, and a row must pass
  /// the optional RowFilter. Both checks run on the raw record bytes in
  /// the pinned page, so only surviving rows are copied out.
  ///
  /// The cursor holds one pin on the page it is walking (a primary
  /// bucket or one of its overflow pages) and releases it when it moves
  /// to the next page, when it reaches the end, and when it is destroyed:
  /// one pool access per page visited. A cursor must not be advanced
  /// after its file was mutated.
  class Cursor {
   public:
    /// Advances to the next matching record; false at end.
    bool Next(Record* out);
    const base::Status& status() const { return status_; }

   private:
    friend class BangFile;
    Cursor(const BangFile* file, std::vector<uint64_t> pattern,
           std::vector<PageId> buckets, RowFilter filter)
        : file_(file), pattern_(std::move(pattern)),
          buckets_(std::move(buckets)), filter_(std::move(filter)) {}

    bool KeysMatch(std::string_view bytes) const;
    // Pins `id` as the page being walked; false (status set) on error.
    bool PinPage(PageId id);

    const BangFile* file_;
    std::vector<uint64_t> pattern_;
    std::vector<PageId> buckets_;  // primary bucket pages to visit
    RowFilter filter_;             // empty = accept every key match
    size_t bucket_index_ = 0;
    PageHandle page_;              // pin on the page being walked
    PageId current_page_ = kInvalidPage;
    uint16_t slot_ = 0;
    base::Status status_;
  };

  Cursor OpenScan(const std::vector<uint64_t>& pattern,
                  RowFilter filter = nullptr) const;

  /// Number of live records (maintained incrementally).
  uint64_t record_count() const { return record_count_; }
  uint32_t num_attrs() const { return num_attrs_; }
  uint32_t depth() const { return depth_; }

  const BangFileStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BangFileStats{}; }

 private:
  // Bucket page reserved header: u8 local_depth, 3 pad bytes, u32 overflow.
  static constexpr uint32_t kReserved = 8;
  static constexpr uint32_t kMaxDepth = 22;

  BangFile(BufferPool* pool, uint32_t num_attrs)
      : pool_(pool), num_attrs_(num_attrs) {}

  // The interleaved bucket address of a key tuple: address bit j is bit
  // (j / num_attrs) of the mixed key of attribute (j % num_attrs).
  uint64_t ComputeAddress(const std::vector<uint64_t>& keys) const;

  base::Result<PageHandle> NewBucket(uint8_t local_depth);
  base::Status SplitBucket(uint64_t dir_index);
  base::Status InsertIntoChain(PageId primary, std::string_view bytes);

  static std::string EncodeRecord(const std::vector<uint64_t>& keys,
                                  std::string_view payload);
  // Copies `bytes` into `out`, reusing its buffers.
  void DecodeRecord(std::string_view bytes, RecordId rid, Record* out) const;

  BufferPool* pool_;
  uint32_t num_attrs_;
  uint32_t depth_ = 0;            // global depth; directory has 2^depth slots
  std::vector<PageId> directory_; // in-memory, rebuilt per session
  uint64_t record_count_ = 0;
  mutable BangFileStats stats_;
};

}  // namespace educe::storage

#endif  // EDUCE_STORAGE_BANG_FILE_H_
