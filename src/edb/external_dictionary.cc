#include "edb/external_dictionary.h"

#include <atomic>
#include <chrono>
#include <cstring>

#include "base/hash.h"
#include "storage/wal.h"

namespace educe::edb {

namespace {

/// A fresh epoch stamp: wall clock mixed with a process-local counter, so
/// two databases created back to back (or in different processes) get
/// distinct identities with overwhelming probability.
uint64_t MintEpoch() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  return base::MixInt64(now) ^ base::MixInt64(counter.fetch_add(1) + 1);
}

}  // namespace

base::Result<ExternalDictionary> ExternalDictionary::Create(
    storage::BufferPool* pool) {
  EDUCE_ASSIGN_OR_RETURN(storage::BangFile file,
                         storage::BangFile::Create(pool, 1));
  ExternalDictionary dict(std::move(file));
  dict.epoch_ = MintEpoch();
  return dict;
}

base::Result<ExternalDictionary> ExternalDictionary::Open(
    storage::BufferPool* pool, std::string_view state) {
  if (state.size() < 2 * sizeof(uint64_t)) {
    return base::Status::Corruption("short external dictionary state");
  }
  uint64_t epoch, entries;
  std::memcpy(&epoch, state.data(), sizeof(epoch));
  std::memcpy(&entries, state.data() + sizeof(epoch), sizeof(entries));
  EDUCE_ASSIGN_OR_RETURN(
      storage::BangFile file,
      storage::BangFile::Open(pool, state.substr(2 * sizeof(uint64_t))));
  if (file.num_attrs() != 1) {
    return base::Status::Corruption("external dictionary state shape");
  }
  ExternalDictionary dict(std::move(file));
  dict.epoch_ = epoch;
  dict.entries_ = entries;
  return dict;
}

std::string ExternalDictionary::SerializeState() const {
  std::lock_guard<obs::TrackedMutex> lock(*mu_);
  std::string out;
  out.append(reinterpret_cast<const char*>(&epoch_), sizeof(epoch_));
  out.append(reinterpret_cast<const char*>(&entries_), sizeof(entries_));
  out.append(file_.SerializeState());
  return out;
}

uint64_t ExternalDictionary::HashOf(std::string_view name, uint32_t arity) {
  uint64_t hash = base::HashFunctor(name, arity);
  // kBangWildcard is reserved by the storage layer; remap the (absurdly
  // unlikely) colliding hash.
  if (hash == storage::kBangWildcard) hash = 0;
  return hash;
}

base::Result<uint64_t> ExternalDictionary::Ensure(std::string_view name,
                                                  uint32_t arity) {
  std::lock_guard<obs::TrackedMutex> lock(*mu_);
  const uint64_t hash = HashOf(name, arity);
  auto it = cache_.find(hash);
  if (it != cache_.end()) {
    if (it->second.first != name || it->second.second != arity) {
      return base::Status::Corruption(
          "external dictionary hash collision between '" + it->second.first +
          "' and '" + std::string(name) + "'");
    }
    return hash;
  }
  // Check the stored table before inserting (another session could have
  // stored it; within one session the cache normally answers).
  auto cursor = file_.OpenScan({hash});
  storage::BangFile::Record record;
  while (cursor.Next(&record)) {
    uint32_t stored_arity;
    std::memcpy(&stored_arity, record.payload.data(), sizeof(stored_arity));
    std::string stored_name = record.payload.substr(sizeof(stored_arity));
    if (stored_name == name && stored_arity == arity) {
      cache_[hash] = {std::move(stored_name), stored_arity};
      return hash;
    }
    return base::Status::Corruption("external dictionary hash collision");
  }
  EDUCE_RETURN_IF_ERROR(cursor.status());

  std::string payload(sizeof(arity), '\0');
  std::memcpy(payload.data(), &arity, sizeof(arity));
  payload.append(name);
  if (wal_ != nullptr) {
    // Log-before-update. No Commit here: the entry only matters once a
    // row embedding its hash commits, and that row's record is appended
    // after this one — the commit that covers the row covers both. A
    // logged entry whose insert below fails replays harmlessly (Ensure
    // is idempotent).
    EDUCE_RETURN_IF_ERROR(wal_->Append(kWalDictEntry, payload).status());
  }
  EDUCE_RETURN_IF_ERROR(file_.Insert({hash}, payload));
  cache_[hash] = {std::string(name), arity};
  ++entries_;
  return hash;
}

base::Result<std::pair<std::string, uint32_t>> ExternalDictionary::Resolve(
    uint64_t hash) {
  std::lock_guard<obs::TrackedMutex> lock(*mu_);
  auto it = cache_.find(hash);
  if (it != cache_.end()) return it->second;

  auto cursor = file_.OpenScan({hash});
  storage::BangFile::Record record;
  if (cursor.Next(&record)) {
    uint32_t arity;
    std::memcpy(&arity, record.payload.data(), sizeof(arity));
    std::pair<std::string, uint32_t> entry{
        record.payload.substr(sizeof(arity)), arity};
    cache_[hash] = entry;
    return entry;
  }
  EDUCE_RETURN_IF_ERROR(cursor.status());
  return base::Status::NotFound("no external dictionary entry for hash " +
                                std::to_string(hash));
}

}  // namespace educe::edb
