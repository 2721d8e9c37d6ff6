#include "dict/dictionary.h"

#include <bit>
#include <cassert>
#include <mutex>
#include <shared_mutex>

#include "base/hash.h"

namespace educe::dict {

Dictionary::Dictionary(const Options& options) : options_(options) {
  assert(options_.segment_capacity >= 8);
  assert(std::has_single_bit(options_.segment_capacity));
  slot_bits_ = static_cast<uint32_t>(std::countr_zero(options_.segment_capacity));
  slot_mask_ = options_.segment_capacity - 1;
  AllocateSegment();
}

void Dictionary::AllocateSegment() {
  Segment seg;
  seg.slots.resize(options_.segment_capacity);
  segments_.push_back(std::move(seg));
  hot_segment_ = static_cast<uint32_t>(segments_.size() - 1);
  ++stats_.segments_allocated;
}

std::optional<uint32_t> Dictionary::FindInSegment(const Segment& seg,
                                                  std::string_view name,
                                                  uint32_t arity,
                                                  uint64_t hash) const {
  uint32_t idx = static_cast<uint32_t>(hash) & slot_mask_;
  for (uint32_t step = 0; step < options_.segment_capacity; ++step) {
    const Slot& slot = seg.slots[idx];
    if (slot.state == SlotState::kEmpty) return std::nullopt;
    if (slot.state == SlotState::kLive && slot.hash == hash &&
        slot.arity == arity && slot.name == name) {
      return idx;
    }
    idx = (idx + 1) & slot_mask_;
  }
  return std::nullopt;
}

std::optional<SymbolId> Dictionary::FindAnywhere(std::string_view name,
                                                 uint32_t arity,
                                                 uint64_t hash) const {
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    if (auto idx = FindInSegment(segments_[s], name, arity, hash)) {
      return PackId(s, *idx, slot_bits_);
    }
  }
  return std::nullopt;
}

std::optional<SymbolId> Dictionary::Lookup(std::string_view name,
                                           uint32_t arity) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  return FindAnywhere(name, arity, base::HashFunctor(name, arity));
}

uint32_t Dictionary::PickHotSegment() {
  // Fast path: the current hot segment is still under the mark.
  const auto under_mark = [this](const Segment& seg) {
    return static_cast<double>(seg.live) <
           options_.high_water * options_.segment_capacity;
  };
  if (under_mark(segments_[hot_segment_])) return hot_segment_;

  // Re-designate: the lowest-occupancy segment still under the mark.
  uint32_t best = kInvalidSymbol;
  uint32_t best_live = UINT32_MAX;
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    if (under_mark(segments_[s]) && segments_[s].live < best_live) {
      best = s;
      best_live = segments_[s].live;
    }
  }
  if (best != kInvalidSymbol) {
    hot_segment_ = best;
    return best;
  }
  AllocateSegment();
  return hot_segment_;
}

base::Result<SymbolId> Dictionary::Intern(std::string_view name,
                                          uint32_t arity) {
  const uint64_t hash = base::HashFunctor(name, arity);
  {
    // Most interns name a symbol that already exists: find it under the
    // shared latch, so concurrent sessions do not serialize on hits.
    std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
    if (auto id = FindAnywhere(name, arity, hash)) return *id;
  }
  std::unique_lock<obs::TrackedSharedMutex> lock(mu_);
  // Existing entry anywhere wins: ids must be unique per (name, arity).
  // Probe again, since another thread may have inserted it in between.
  if (auto id = FindAnywhere(name, arity, hash)) return *id;

  if (segments_.size() >= (1u << (32 - slot_bits_))) {
    return base::Status::ResourceExhausted("dictionary id space exhausted");
  }

  const uint32_t seg_idx = PickHotSegment();
  Segment& seg = segments_[seg_idx];
  uint32_t idx = static_cast<uint32_t>(hash) & slot_mask_;
  for (uint32_t step = 0; step < options_.segment_capacity; ++step) {
    Slot& slot = seg.slots[idx];
    if (slot.state != SlotState::kLive) {
      if (slot.state == SlotState::kTombstone) {
        ++stats_.slot_reuses;
        --seg.tombstones;
      }
      slot.state = SlotState::kLive;
      slot.external = false;
      slot.name.assign(name);
      slot.arity = arity;
      slot.hash = hash;
      ++seg.live;
      ++live_count_;
      ++stats_.inserts;
      return PackId(seg_idx, idx, slot_bits_);
    }
    idx = (idx + 1) & slot_mask_;
  }
  return base::Status::Internal("hot segment unexpectedly full");
}

bool Dictionary::IsLive(SymbolId id) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  const uint32_t seg = id >> slot_bits_;
  const uint32_t slot = id & slot_mask_;
  return seg < segments_.size() &&
         segments_[seg].slots[slot].state == SlotState::kLive;
}

std::string_view Dictionary::NameOf(SymbolId id) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  assert(segments_[id >> slot_bits_].slots[id & slot_mask_].state ==
         SlotState::kLive);
  return segments_[id >> slot_bits_].slots[id & slot_mask_].name;
}

uint32_t Dictionary::ArityOf(SymbolId id) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  assert(segments_[id >> slot_bits_].slots[id & slot_mask_].state ==
         SlotState::kLive);
  return segments_[id >> slot_bits_].slots[id & slot_mask_].arity;
}

uint64_t Dictionary::HashOf(SymbolId id) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  assert(segments_[id >> slot_bits_].slots[id & slot_mask_].state ==
         SlotState::kLive);
  return segments_[id >> slot_bits_].slots[id & slot_mask_].hash;
}

base::Status Dictionary::Remove(SymbolId id) {
  std::unique_lock<obs::TrackedSharedMutex> lock(mu_);
  const uint32_t seg_idx = id >> slot_bits_;
  const uint32_t slot_idx = id & slot_mask_;
  if (seg_idx >= segments_.size()) {
    return base::Status::OutOfRange("no such dictionary segment");
  }
  Segment& seg = segments_[seg_idx];
  Slot& slot = seg.slots[slot_idx];
  if (slot.state != SlotState::kLive) {
    return base::Status::NotFound("symbol is not live");
  }
  // Tombstone, do not relocate anything (paper point 4); the slot becomes
  // reusable by a later insertion (paper point 3).
  slot.state = SlotState::kTombstone;
  slot.external = false;
  slot.name.clear();
  slot.name.shrink_to_fit();
  --seg.live;
  ++seg.tombstones;
  --live_count_;
  ++stats_.removes;
  return base::Status::OK();
}

std::optional<Dictionary::ExternalEntry> Dictionary::FindExternal(
    uint64_t hash) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  // The probe sequence of FindInSegment, comparing hashes only: a marked
  // slot with this hash is the external dictionary's one entry for it.
  for (uint32_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    uint32_t idx = static_cast<uint32_t>(hash) & slot_mask_;
    for (uint32_t step = 0; step < options_.segment_capacity; ++step) {
      const Slot& slot = seg.slots[idx];
      if (slot.state == SlotState::kEmpty) break;
      if (slot.state == SlotState::kLive && slot.external &&
          slot.hash == hash) {
        return ExternalEntry{PackId(s, idx, slot_bits_), slot.arity};
      }
      idx = (idx + 1) & slot_mask_;
    }
  }
  return std::nullopt;
}

void Dictionary::MarkExternal(SymbolId id, uint64_t external_hash) {
  std::unique_lock<obs::TrackedSharedMutex> lock(mu_);
  const uint32_t seg = id >> slot_bits_;
  if (seg >= segments_.size()) return;
  Slot& slot = segments_[seg].slots[id & slot_mask_];
  if (slot.state == SlotState::kLive && slot.hash == external_hash) {
    slot.external = true;
  }
}

size_t Dictionary::size() const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  return live_count_;
}

size_t Dictionary::segment_count() const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  return segments_.size();
}

double Dictionary::SegmentOccupancy(size_t i) const {
  std::shared_lock<obs::TrackedSharedMutex> lock(mu_);
  assert(i < segments_.size());
  return static_cast<double>(segments_[i].live) / options_.segment_capacity;
}

}  // namespace educe::dict
