#ifndef EDUCE_STORAGE_PAGED_FILE_H_
#define EDUCE_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/counter.h"
#include "base/status.h"
#include "storage/page.h"

namespace educe::storage {

/// Block-transfer counters of the simulated disc. The paper's analysis
/// (§2.2) hinges on "the time needed to read a portion of a block ... is
/// the same as to read the whole block", so all I/O here is whole pages
/// and all accounting is in pages.
/// Relaxed atomics: worker sessions read pages concurrently through the
/// shared buffer pool, and the memory governor samples these counters
/// from retiring query threads without any pool lock.
struct PagedFileStats {
  base::RelaxedCounter pages_read;
  base::RelaxedCounter pages_written;
  base::RelaxedCounter pages_allocated;
  /// Wall time spent inside Read(), simulated latency included. Dividing
  /// by pages_read gives the measured cost of one page reread — the
  /// buffer-pool-miss price the memory governor's cost model needs
  /// (DESIGN.md §12).
  base::RelaxedCounter read_ns;
};

/// The "disc": a page-addressed store with whole-page transfer semantics
/// and an optional simulated per-transfer latency.
///
/// Substitution note (DESIGN.md §2): the paper ran on a Sun 3/280S with a
/// local Hitachi disc and, for the diskless experiment, NFS-backed pages.
/// This class keeps page images in memory but charges a configurable
/// busy-wait per transfer, letting the benches sweep "local disc" vs
/// "diskless workstation" I/O costs while keeping runs deterministic.
class PagedFile {
 public:
  struct Options {
    uint32_t page_size = 4096;
    /// Busy-wait charged per page read/write, in nanoseconds. 0 = free
    /// (pure counting). ~100us models a slow network disc.
    uint64_t simulated_latency_ns = 0;
  };

  PagedFile() : PagedFile(Options{}) {}
  explicit PagedFile(const Options& options) : options_(options) {}

  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  uint32_t page_size() const { return options_.page_size; }
  uint32_t page_count() const { return static_cast<uint32_t>(pages_.size()); }

  /// Appends a zeroed page and returns its id.
  PageId Allocate();

  /// Copies the page image into `out` (page_size bytes). Charges one
  /// simulated transfer.
  base::Status Read(PageId id, char* out);

  /// Replaces the page image from `in` (page_size bytes). Charges one
  /// simulated transfer. `lsn` stamps the page with the WAL position of
  /// the last record that dirtied it (0 = not WAL-tracked); the stamp is
  /// in-memory bookkeeping for the WAL-before-page ordering check and is
  /// not part of the saved image format.
  base::Status Write(PageId id, const char* in, uint64_t lsn = 0);

  /// The LSN stamped by the last Write() of this page (0 if never
  /// stamped or out of range).
  uint64_t page_lsn(PageId id) const {
    return id < page_lsns_.size() ? page_lsns_[id] : 0;
  }

  const PagedFileStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PagedFileStats{}; }

  void set_simulated_latency_ns(uint64_t ns) {
    options_.simulated_latency_ns = ns;
  }

  /// --- image persistence ---------------------------------------------------
  /// The "disc" can be checkpointed to a real OS file and reloaded in a
  /// later process — the substrate for everything cross-session (the
  /// BANG/heap relations, the external dictionary and the catalog all
  /// live in these page images).

  /// Writes all page images to `path` (atomic: a temp file is fsynced,
  /// then renamed into place), with a header and a whole-file checksum.
  /// The checksum folds one FNV-1a per page; each page's value is cached
  /// until Write/Allocate changes that page, so a save re-hashes only the
  /// pages written since the last save or load.
  /// All I/O goes through storage::WriteFull (io_util.h): interrupted
  /// syscalls are retried and short writes continued, so a signal-heavy
  /// server process can never persist a silently truncated image.
  base::Status SaveImage(const std::string& path) const;

  /// Replaces this file's contents with the image stored at `path`,
  /// adopting the stored page size. Validates the header, length and
  /// checksum; on any error the in-memory state is left untouched.
  /// Transfer counters are not charged (the load models mmap-style
  /// attach, not per-page I/O).
  base::Status LoadImage(const std::string& path);

 private:
  void ChargeLatency() const;

  Options options_;
  std::vector<std::unique_ptr<char[]>> pages_;
  std::vector<uint64_t> page_lsns_;  // parallel to pages_; see Write()
  // Parallel to pages_: each page image's FNV-1a, or nullopt once the
  // page changed since it was last hashed. Filled by SaveImage (hence
  // mutable) and by LoadImage, whose verification computes them anyway.
  mutable std::vector<std::optional<uint64_t>> page_hashes_;
  PagedFileStats stats_;
};

}  // namespace educe::storage

#endif  // EDUCE_STORAGE_PAGED_FILE_H_
