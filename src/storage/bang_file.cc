#include "storage/bang_file.h"

#include <cassert>
#include <cstring>
#include <unordered_set>

#include "base/hash.h"
#include "storage/slotted_page.h"

namespace educe::storage {

namespace {

uint8_t GetLocalDepth(const char* data) {
  return static_cast<uint8_t>(data[0]);
}
void SetLocalDepth(char* data, uint8_t depth) {
  data[0] = static_cast<char>(depth);
}
PageId GetOverflow(const char* data) {
  PageId id;
  std::memcpy(&id, data + 4, sizeof(id));
  return id;
}
void SetOverflow(char* data, PageId id) {
  std::memcpy(data + 4, &id, sizeof(id));
}

}  // namespace

base::Result<BangFile> BangFile::Create(BufferPool* pool, uint32_t num_attrs) {
  if (num_attrs == 0 || num_attrs > 16) {
    return base::Status::InvalidArgument("num_attrs must be in 1..16");
  }
  BangFile file(pool, num_attrs);
  EDUCE_ASSIGN_OR_RETURN(PageHandle bucket, file.NewBucket(0));
  file.directory_.push_back(bucket.page_id());
  file.depth_ = 0;
  return file;
}

std::string BangFile::SerializeState() const {
  std::string out;
  auto put_u32 = [&out](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_u64 = [&out](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(num_attrs_);
  put_u32(depth_);
  put_u64(record_count_);
  put_u32(static_cast<uint32_t>(directory_.size()));
  for (PageId id : directory_) put_u32(id);
  return out;
}

base::Result<BangFile> BangFile::Open(BufferPool* pool,
                                      std::string_view state) {
  size_t pos = 0;
  auto get_u32 = [&](uint32_t* v) -> bool {
    if (pos + sizeof(*v) > state.size()) return false;
    std::memcpy(v, state.data() + pos, sizeof(*v));
    pos += sizeof(*v);
    return true;
  };
  uint32_t num_attrs = 0, depth = 0, dir_size = 0;
  uint64_t record_count = 0;
  uint32_t lo = 0, hi = 0;
  if (!get_u32(&num_attrs) || !get_u32(&depth) || !get_u32(&lo) ||
      !get_u32(&hi) || !get_u32(&dir_size)) {
    return base::Status::Corruption("short BANG file state");
  }
  record_count = (static_cast<uint64_t>(hi) << 32) | lo;
  if (num_attrs == 0 || num_attrs > 16 || depth > kMaxDepth ||
      dir_size != (1u << depth)) {
    return base::Status::Corruption("malformed BANG file state");
  }
  const uint32_t page_count = pool->file()->page_count();
  BangFile file(pool, num_attrs);
  file.depth_ = depth;
  file.record_count_ = record_count;
  file.directory_.reserve(dir_size);
  for (uint32_t i = 0; i < dir_size; ++i) {
    uint32_t page = 0;
    if (!get_u32(&page) || page >= page_count) {
      return base::Status::Corruption("BANG directory page out of range");
    }
    file.directory_.push_back(page);
  }
  if (pos != state.size()) {
    return base::Status::Corruption("trailing bytes in BANG file state");
  }
  return file;
}

base::Result<PageHandle> BangFile::NewBucket(uint8_t local_depth) {
  EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->New());
  SlottedPage view(page.data(), pool_->page_size(), kReserved);
  view.Format();
  SetLocalDepth(page.data(), local_depth);
  SetOverflow(page.data(), kInvalidPage);
  page.MarkDirty();
  return page;
}

uint64_t BangFile::ComputeAddress(const std::vector<uint64_t>& keys) const {
  assert(keys.size() == num_attrs_);
  uint64_t address = 0;
  for (uint32_t j = 0; j < 64; ++j) {
    const uint32_t attr = j % num_attrs_;
    const uint32_t bit = j / num_attrs_;
    const uint64_t mixed = base::MixInt64(keys[attr]);
    address |= ((mixed >> bit) & 1ull) << j;
  }
  return address;
}

std::string BangFile::EncodeRecord(const std::vector<uint64_t>& keys,
                                   std::string_view payload) {
  std::string bytes;
  bytes.resize(keys.size() * sizeof(uint64_t) + payload.size());
  std::memcpy(bytes.data(), keys.data(), keys.size() * sizeof(uint64_t));
  std::memcpy(bytes.data() + keys.size() * sizeof(uint64_t), payload.data(),
              payload.size());
  return bytes;
}

void BangFile::DecodeRecord(std::string_view bytes, RecordId rid,
                            Record* out) const {
  out->keys.resize(num_attrs_);
  std::memcpy(out->keys.data(), bytes.data(), num_attrs_ * sizeof(uint64_t));
  out->payload.assign(bytes.substr(num_attrs_ * sizeof(uint64_t)));
  out->rid = rid;
}

base::Status BangFile::InsertIntoChain(PageId primary,
                                       std::string_view bytes) {
  PageId current = primary;
  while (true) {
    EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(current));
    SlottedPage view(page.data(), pool_->page_size(), kReserved);
    if (view.Insert(bytes)) {
      page.MarkDirty();
      return base::Status::OK();
    }
    // Reclaim deleted space before chaining a new page.
    if (view.LiveCount() < view.slot_count()) {
      view.Compact();
      if (view.Insert(bytes)) {
        page.MarkDirty();
        return base::Status::OK();
      }
    }
    PageId next = GetOverflow(page.data());
    if (next == kInvalidPage) {
      EDUCE_ASSIGN_OR_RETURN(PageHandle fresh,
                             NewBucket(GetLocalDepth(page.data())));
      SetOverflow(page.data(), fresh.page_id());
      page.MarkDirty();
      ++stats_.overflow_pages;
      SlottedPage fresh_view(fresh.data(), pool_->page_size(), kReserved);
      if (!fresh_view.Insert(bytes)) {
        return base::Status::InvalidArgument("record exceeds page capacity");
      }
      fresh.MarkDirty();
      return base::Status::OK();
    }
    current = next;
  }
}

base::Status BangFile::SplitBucket(uint64_t dir_index) {
  const PageId old_page_id = directory_[dir_index];
  uint8_t local_depth;
  {
    EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(old_page_id));
    local_depth = GetLocalDepth(page.data());
  }

  if (local_depth >= depth_) {
    // Double the directory.
    if (depth_ >= kMaxDepth) {
      return base::Status::Internal("split requested at max depth");
    }
    const size_t old_size = directory_.size();
    directory_.resize(old_size * 2);
    for (size_t i = 0; i < old_size; ++i) {
      directory_[old_size + i] = directory_[i];
    }
    ++depth_;
    ++stats_.directory_doublings;
  }

  // Collect the old bucket's records. Invariant: buckets below kMaxDepth
  // have no overflow chain (overflow is only created at max depth), so the
  // primary page holds everything.
  std::vector<std::string> records;
  {
    EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(old_page_id));
    SlottedPage view(page.data(), pool_->page_size(), kReserved);
    for (uint16_t slot = 0; slot < view.slot_count(); ++slot) {
      if (auto bytes = view.Get(slot)) records.emplace_back(*bytes);
    }
    view.Format();
    SetLocalDepth(page.data(), static_cast<uint8_t>(local_depth + 1));
    SetOverflow(page.data(), kInvalidPage);
    page.MarkDirty();
  }
  EDUCE_ASSIGN_OR_RETURN(
      PageHandle new_page,
      NewBucket(static_cast<uint8_t>(local_depth + 1)));
  const PageId new_page_id = new_page.page_id();
  new_page.Release();

  // Redirect directory entries: those sharing the old low-bit pattern and
  // having bit `local_depth` set move to the new bucket.
  const uint64_t low_mask = (1ull << local_depth) - 1;
  const uint64_t pattern = dir_index & low_mask;
  for (uint64_t j = 0; j < directory_.size(); ++j) {
    if ((j & low_mask) == pattern && directory_[j] == old_page_id &&
        ((j >> local_depth) & 1ull)) {
      directory_[j] = new_page_id;
    }
  }

  // Redistribute.
  Record record;
  for (const std::string& bytes : records) {
    DecodeRecord(bytes, RecordId{}, &record);
    const uint64_t address = ComputeAddress(record.keys);
    const PageId target =
        ((address >> local_depth) & 1ull) ? new_page_id : old_page_id;
    EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(target));
    SlottedPage view(page.data(), pool_->page_size(), kReserved);
    if (!view.Insert(bytes)) {
      // Should not happen: the records fit one page before the split.
      return base::Status::Internal("record lost during bucket split");
    }
    page.MarkDirty();
  }
  ++stats_.splits;
  return base::Status::OK();
}

base::Status BangFile::Insert(const std::vector<uint64_t>& keys,
                              std::string_view payload) {
  if (keys.size() != num_attrs_) {
    return base::Status::InvalidArgument("wrong number of key attributes");
  }
  for (uint64_t key : keys) {
    if (key == kBangWildcard) {
      return base::Status::InvalidArgument(
          "kBangWildcard is reserved and cannot be stored");
    }
  }
  const std::string bytes = EncodeRecord(keys, payload);
  if (bytes.size() + 64 > pool_->page_size()) {
    return base::Status::InvalidArgument("record exceeds page capacity");
  }

  const uint64_t address = ComputeAddress(keys);
  for (int attempts = 0; attempts < 64; ++attempts) {
    const uint64_t dir_index = address & ((1ull << depth_) - 1);
    const PageId primary = directory_[dir_index];
    uint8_t local_depth;
    bool inserted = false;
    {
      EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(primary));
      SlottedPage view(page.data(), pool_->page_size(), kReserved);
      local_depth = GetLocalDepth(page.data());
      if (view.Insert(bytes)) {
        page.MarkDirty();
        inserted = true;
      } else if (view.LiveCount() < view.slot_count()) {
        view.Compact();
        if (view.Insert(bytes)) {
          page.MarkDirty();
          inserted = true;
        }
      }
    }
    if (inserted) {
      ++stats_.inserts;
      ++record_count_;
      return base::Status::OK();
    }
    if (local_depth < kMaxDepth && depth_ < kMaxDepth) {
      EDUCE_RETURN_IF_ERROR(SplitBucket(dir_index));
      continue;  // retry against the (possibly re-pointed) bucket
    }
    // Unsplittable: overflow chain.
    EDUCE_RETURN_IF_ERROR(InsertIntoChain(primary, bytes));
    ++stats_.inserts;
    ++record_count_;
    return base::Status::OK();
  }
  return base::Status::Internal("insert failed to converge after splits");
}

base::Status BangFile::Delete(RecordId rid) {
  EDUCE_ASSIGN_OR_RETURN(PageHandle page, pool_->Fetch(rid.page));
  SlottedPage view(page.data(), pool_->page_size(), kReserved);
  if (!view.Delete(rid.slot)) {
    return base::Status::NotFound("no record at slot");
  }
  page.MarkDirty();
  --record_count_;
  return base::Status::OK();
}

BangFile::Cursor BangFile::OpenScan(const std::vector<uint64_t>& pattern,
                                    RowFilter filter) const {
  ++stats_.scans_opened;
  assert(pattern.size() == num_attrs_);

  // Determine which address bits (below the directory depth) are fixed by
  // the bound attributes.
  uint64_t known_mask = 0;
  uint64_t known_bits = 0;
  for (uint32_t j = 0; j < depth_; ++j) {
    const uint32_t attr = j % num_attrs_;
    if (pattern[attr] == kBangWildcard) continue;
    const uint32_t bit = j / num_attrs_;
    const uint64_t mixed = base::MixInt64(pattern[attr]);
    known_mask |= 1ull << j;
    known_bits |= ((mixed >> bit) & 1ull) << j;
  }

  // Enumerate directory indices consistent with the known bits, deduping
  // buckets (several directory entries may point at one bucket).
  std::vector<PageId> buckets;
  std::unordered_set<PageId> seen;
  std::vector<uint32_t> free_bits;
  for (uint32_t j = 0; j < depth_; ++j) {
    if (!(known_mask & (1ull << j))) free_bits.push_back(j);
  }
  const uint64_t combos = 1ull << free_bits.size();
  for (uint64_t combo = 0; combo < combos; ++combo) {
    uint64_t index = known_bits;
    for (size_t b = 0; b < free_bits.size(); ++b) {
      if ((combo >> b) & 1ull) index |= 1ull << free_bits[b];
    }
    const PageId bucket = directory_[index];
    if (seen.insert(bucket).second) buckets.push_back(bucket);
  }

  return Cursor(this, pattern, std::move(buckets), std::move(filter));
}

bool BangFile::Cursor::KeysMatch(std::string_view bytes) const {
  for (uint32_t i = 0; i < file_->num_attrs_; ++i) {
    if (pattern_[i] == kBangWildcard) continue;
    uint64_t key;
    std::memcpy(&key, bytes.data() + i * sizeof(uint64_t), sizeof(key));
    if (key != pattern_[i]) return false;
  }
  return true;
}

bool BangFile::Cursor::PinPage(PageId id) {
  auto page = file_->pool_->Fetch(id);
  if (!page.ok()) {
    status_ = page.status();
    return false;
  }
  page_ = std::move(*page);
  current_page_ = id;
  slot_ = 0;
  ++file_->stats_.buckets_scanned;
  return true;
}

bool BangFile::Cursor::Next(Record* out) {
  // Tallied locally and published once per call: the shared counters are
  // atomics that concurrent scans would otherwise contend on per row.
  uint64_t examined = 0;
  uint64_t matched = 0;
  auto finish = [&](bool found) {
    file_->stats_.records_examined += examined;
    file_->stats_.records_matched += matched;
    return found;
  };
  const size_t key_bytes = file_->num_attrs_ * sizeof(uint64_t);
  while (true) {
    if (!page_.valid()) {
      if (bucket_index_ >= buckets_.size()) return finish(false);
      if (!PinPage(buckets_[bucket_index_++])) return finish(false);
    }
    SlottedPage view(page_.data(), file_->pool_->page_size(), kReserved);
    while (slot_ < view.slot_count()) {
      const uint16_t current = slot_++;
      auto bytes = view.Get(current);
      if (!bytes) continue;
      ++examined;
      if (!KeysMatch(*bytes)) continue;
      ++matched;
      if (filter_ && !filter_(bytes->substr(key_bytes))) continue;
      file_->DecodeRecord(*bytes, RecordId{current_page_, current}, out);
      return finish(true);
    }
    const PageId next = GetOverflow(page_.data());
    page_.Release();
    if (next != kInvalidPage && !PinPage(next)) return finish(false);
  }
}

}  // namespace educe::storage
