#include "storage/paged_file.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/hash.h"
#include "storage/io_util.h"

namespace educe::storage {

namespace {

// Image header: magic, format version, page size, page count. A whole-file
// FNV-1a checksum (header fields + every page image) trails the pages, so
// truncation and bit rot are both detected at load.
constexpr uint64_t kImageMagic = 0x3147504543554445ull;  // "EDUCEPG1"
constexpr uint32_t kImageVersion = 1;

/// The image checksum: FNV-1a of the page size, folded with each page's
/// FNV-1a in page order. `hashes` (parallel to `pages`) caches the
/// per-page values: a missing one is computed and stored.
uint64_t ChecksumPages(uint32_t page_size,
                       const std::vector<std::unique_ptr<char[]>>& pages,
                       std::vector<std::optional<uint64_t>>* hashes) {
  uint64_t h = base::Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(&page_size),
                       sizeof(page_size)));
  for (size_t i = 0; i < pages.size(); ++i) {
    std::optional<uint64_t>& page_hash = (*hashes)[i];
    if (!page_hash) {
      page_hash = base::Fnv1a64(std::string_view(pages[i].get(), page_size));
    }
    h ^= *page_hash;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void PagedFile::ChargeLatency() const {
  if (options_.simulated_latency_ns == 0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(options_.simulated_latency_ns);
  while (std::chrono::steady_clock::now() < until) {
    // Busy-wait: models synchronous block transfer without descheduling,
    // keeping benchmark timings stable.
  }
}

PageId PagedFile::Allocate() {
  auto page = std::make_unique<char[]>(options_.page_size);
  std::memset(page.get(), 0, options_.page_size);
  pages_.push_back(std::move(page));
  page_lsns_.push_back(0);
  page_hashes_.emplace_back();
  ++stats_.pages_allocated;
  return static_cast<PageId>(pages_.size() - 1);
}

base::Status PagedFile::Read(PageId id, char* out) {
  if (id >= pages_.size()) {
    return base::Status::OutOfRange("read of unallocated page " +
                                    std::to_string(id));
  }
  const auto start = std::chrono::steady_clock::now();
  ChargeLatency();
  std::memcpy(out, pages_[id].get(), options_.page_size);
  ++stats_.pages_read;
  stats_.read_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return base::Status::OK();
}

base::Status PagedFile::Write(PageId id, const char* in, uint64_t lsn) {
  if (id >= pages_.size()) {
    return base::Status::OutOfRange("write of unallocated page " +
                                    std::to_string(id));
  }
  ChargeLatency();
  std::memcpy(pages_[id].get(), in, options_.page_size);
  page_hashes_[id].reset();
  if (lsn > page_lsns_[id]) page_lsns_[id] = lsn;
  ++stats_.pages_written;
  return base::Status::OK();
}

base::Status PagedFile::SaveImage(const std::string& path) const {
  // Raw POSIX I/O through Read/WriteFull: a signal landing mid-image
  // (EINTR) or a short write must never be mistaken for success — a
  // truncated temp file renamed into place would destroy the database.
  const std::string tmp = path + ".tmp";
  auto fd = OpenFd(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  if (!fd.ok()) return fd.status();
  auto cleanup_tmp = [&](base::Status why) {
    (void)CloseFd(*fd, tmp);
    std::remove(tmp.c_str());
    return why;
  };
  const uint32_t page_size = options_.page_size;
  const uint32_t count = static_cast<uint32_t>(pages_.size());
  char header[20];
  std::memcpy(header, &kImageMagic, 8);
  std::memcpy(header + 8, &kImageVersion, 4);
  std::memcpy(header + 12, &page_size, 4);
  std::memcpy(header + 16, &count, 4);
  base::Status written = WriteFull(*fd, header, sizeof(header));
  for (const auto& page : pages_) {
    if (!written.ok()) break;
    // Fault site "image_page_write": the crash gauntlet kills the
    // process mid-page here to prove a half-written temp image can never
    // become the database (the rename below never happens).
    written = WriteFull(*fd, page.get(), page_size, "image_page_write");
  }
  if (written.ok()) {
    const uint64_t checksum =
        ChecksumPages(page_size, pages_, &page_hashes_);
    written = WriteFull(*fd, reinterpret_cast<const char*>(&checksum),
                        sizeof(checksum));
  }
  if (!written.ok()) return cleanup_tmp(std::move(written));
  // Durability before visibility: the image must be on stable storage
  // before the rename makes it the database.
  base::Status synced = SyncFd(*fd, tmp, "checkpoint");
  if (!synced.ok()) return cleanup_tmp(std::move(synced));
  EDUCE_RETURN_IF_ERROR(CloseFd(*fd, tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return base::Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return base::Status::OK();
}

base::Status PagedFile::LoadImage(const std::string& path) {
  auto fd = OpenFd(path, O_RDONLY);
  if (!fd.ok()) return fd.status();
  auto fail = [&](base::Status why) {
    (void)CloseFd(*fd, path);
    return why;
  };
  char header[20];
  auto got = ReadFull(*fd, header, sizeof(header));
  if (!got.ok()) return fail(got.status());
  uint64_t magic = 0;
  uint32_t version = 0, page_size = 0, count = 0;
  if (*got == sizeof(header)) {
    std::memcpy(&magic, header, 8);
    std::memcpy(&version, header + 8, 4);
    std::memcpy(&page_size, header + 12, 4);
    std::memcpy(&count, header + 16, 4);
  }
  if (*got != sizeof(header) || magic != kImageMagic) {
    return fail(
        base::Status::Corruption(path + " is not a paged-file image"));
  }
  if (version != kImageVersion) {
    return fail(base::Status::Unsupported("paged-file image version " +
                                          std::to_string(version)));
  }
  if (page_size < 512 || page_size > (64u << 20)) {
    return fail(base::Status::Corruption("implausible page size in " + path));
  }
  std::vector<std::unique_ptr<char[]>> pages;
  pages.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto page = std::make_unique<char[]>(page_size);
    got = ReadFull(*fd, page.get(), page_size);
    if (!got.ok()) return fail(got.status());
    if (*got != page_size) {
      return fail(
          base::Status::Corruption("truncated paged-file image " + path));
    }
    pages.push_back(std::move(page));
  }
  uint64_t stored_checksum = 0;
  got = ReadFull(*fd, reinterpret_cast<char*>(&stored_checksum),
                 sizeof(stored_checksum));
  if (!got.ok()) return fail(got.status());
  if (*got != sizeof(stored_checksum)) {
    return fail(
        base::Status::Corruption("truncated paged-file image " + path));
  }
  std::vector<std::optional<uint64_t>> hashes(pages.size());
  if (stored_checksum != ChecksumPages(page_size, pages, &hashes)) {
    return fail(base::Status::Corruption("checksum mismatch in " + path));
  }
  EDUCE_RETURN_IF_ERROR(CloseFd(*fd, path));
  options_.page_size = page_size;
  pages_ = std::move(pages);
  page_hashes_ = std::move(hashes);
  // LSN stamps are per-process bookkeeping; a freshly loaded image is
  // consistent with everything the WAL absorbed before it was saved.
  page_lsns_.assign(pages_.size(), 0);
  return base::Status::OK();
}

}  // namespace educe::storage
