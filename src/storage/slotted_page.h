#ifndef EDUCE_STORAGE_SLOTTED_PAGE_H_
#define EDUCE_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace educe::storage {

/// A slotted-page view over raw page bytes: a slot directory grows from
/// the front, record bodies grow from the back. The first `reserved`
/// bytes belong to the owner (BANG buckets keep their local depth and
/// overflow pointer there).
///
/// The view does not own the bytes; construct one on demand around a
/// pinned buffer frame. All offsets are 16-bit, so pages up to 64 KiB.
class SlottedPage {
 public:
  static constexpr uint16_t kDeletedSlot = 0xFFFF;

  SlottedPage(char* data, uint32_t page_size, uint32_t reserved)
      : data_(data), page_size_(page_size), reserved_(reserved) {}

  /// Initializes an empty page (call once on a freshly allocated page).
  void Format();

  uint16_t slot_count() const;

  /// Bytes available for one more record (accounting for a possible new
  /// slot directory entry).
  uint32_t FreeSpace() const;

  /// Inserts a record; returns its slot, or nullopt if it does not fit.
  std::optional<uint16_t> Insert(std::string_view bytes);

  /// Returns the record at `slot`, or nullopt if out of range / deleted.
  std::optional<std::string_view> Get(uint16_t slot) const;

  /// Marks `slot` deleted. Space is reclaimed by Compact(). Returns false
  /// if the slot was invalid or already deleted.
  bool Delete(uint16_t slot);

  /// Repacks live records to the back of the page, reclaiming holes left
  /// by deletions. Slot numbers are preserved.
  void Compact();

  /// Count of live (non-deleted) records.
  uint16_t LiveCount() const;

 private:
  // Header (after the reserved area): slot_count u16, free_end u16.
  uint16_t ReadU16(uint32_t offset) const;
  void WriteU16(uint32_t offset, uint16_t value);

  uint32_t HeaderBase() const { return reserved_; }
  uint32_t SlotBase() const { return reserved_ + 4; }
  uint16_t free_end() const { return ReadU16(HeaderBase() + 2); }
  void set_slot_count(uint16_t n) { WriteU16(HeaderBase(), n); }
  void set_free_end(uint16_t v) { WriteU16(HeaderBase() + 2, v); }

  char* data_;
  uint32_t page_size_;
  uint32_t reserved_;
};

}  // namespace educe::storage

#endif  // EDUCE_STORAGE_SLOTTED_PAGE_H_
