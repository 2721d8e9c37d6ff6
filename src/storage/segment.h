#ifndef EDUCE_STORAGE_SEGMENT_H_
#define EDUCE_STORAGE_SEGMENT_H_

#include <string>
#include <string_view>

#include "base/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace educe::storage {

/// Byte-blob segments stored as page chains inside a PagedFile — the
/// container for metadata that must survive the process: the clause-store
/// catalog and the external dictionary's reopen state. A segment is written once (fresh pages each time) and read
/// whole; the first page carries the total length and an FNV-1a checksum
/// so a truncated or corrupted chain is detected and reported as
/// Corruption instead of yielding garbage bytes.
///
/// Page layout:
///   first page:        [u32 magic][u32 next][u64 total_len][u64 checksum]
///                      followed by payload bytes
///   continuation page: [u32 magic][u32 next] followed by payload bytes

/// Writes `bytes` as a fresh page chain in `pool`'s file; returns the
/// root page id (persist it — e.g. in the superblock — to read it back).
base::Result<PageId> WriteSegment(BufferPool* pool, std::string_view bytes);

/// Reads the whole segment rooted at `root`. Corruption if the chain is
/// malformed, cyclic, truncated, or fails the checksum.
base::Result<std::string> ReadSegment(BufferPool* pool, PageId root);

}  // namespace educe::storage

#endif  // EDUCE_STORAGE_SEGMENT_H_
