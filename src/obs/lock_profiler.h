#ifndef EDUCE_OBS_LOCK_PROFILER_H_
#define EDUCE_OBS_LOCK_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace educe::obs {

class Tracer;

/// Lock-site contention profiler (DESIGN.md §16).
///
/// `TrackedMutex` / `TrackedSharedMutex` are drop-in wrappers over
/// std::mutex / std::shared_mutex that attribute acquire-wait time and
/// hold time to a *site*: one static registry entry per
/// (file, line, name) triple, shared by every mutex instance
/// constructed at that source location (the sixteen code-cache shard
/// locks are one site, not sixteen). Samples land in AtomicHistograms
/// via relaxed atomics, so recording never takes a lock of its own.
///
/// One runtime gate, `LockProfiler::SetEnabled` (EngineOptions::
/// lock_profiling forwards to it), decides whether anything records.
/// Disabled, an acquisition costs one relaxed load and a branch, and a
/// shared release one thread-local load and a branch (the count of
/// shared holds this thread pushed, zero unless it held a lock while
/// the gate was on). bench_lock_overhead aborts if a disabled
/// exclusive or shared lock/unlock pair costs more than 2% over the raw
/// std mutex.
///
/// A deliberately narrow hold-time contract: exclusive holds are timed
/// through a member timestamp (written and read only while the lock is
/// held, so it is race-free by construction); shared holds are timed
/// through a small per-thread stack, because many threads hold a shared
/// lock at once and a member slot would race. Samples recorded while
/// the runtime gate flips mid-hold are dropped, never mismatched.

/// Snapshot of one site's counters, safe to hold after the engine that
/// generated the samples is gone (the registry is process-lived).
struct LockSiteStats {
  uint32_t id = 0;
  std::string name;
  std::string file;  // basename of the defining header/source
  int line = 0;
  uint64_t exclusive_acquires = 0;
  uint64_t shared_acquires = 0;
  uint64_t contended = 0;  // acquisitions that actually blocked
  Histogram wait_ns;       // one sample per acquisition (0 = immediate)
  Histogram hold_ns;
  uint64_t wait_total_ns() const { return wait_ns.sum(); }
  uint64_t hold_total_ns() const { return hold_ns.sum(); }
};

/// Static facade over the process-wide site registry.
class LockProfiler {
 public:
  static void SetEnabled(bool on);
  static bool enabled();

  /// Zeroes every site's counters (sites themselves persist — they are
  /// keyed by source location, which does not change at runtime).
  static void Reset();

  /// All sites in registration order.
  static std::vector<LockSiteStats> Snapshot();
  /// Top `k` sites by total wait time, descending; ties by id.
  static std::vector<LockSiteStats> TopContended(size_t k);
  /// {"enabled":b,"sites":[...all, by wait desc...],
  ///  "top_contended":[...names of the top_k...]}
  static std::string ToJson(size_t top_k = 8);

  /// Contended acquires above ~1us also emit a kLockWait span into the
  /// attached tracer (detail = site id), so lock waits show up on the
  /// per-thread Chrome-trace tracks. First attach wins; detach is a
  /// no-op unless `tracer` is the one attached.
  static void AttachTracer(Tracer* tracer);
  static void DetachTracer(Tracer* tracer);

  /// Site name for a kLockWait span's detail field; "" if unknown.
  static std::string SiteName(uint64_t id);
};

/// One registry entry. Never destroyed (the registry leaks by design so
/// mutexes with static storage duration can record during shutdown).
struct LockSite {
  LockSite(const char* n, const char* f, int l, uint32_t i)
      : name(n), file(f), line(l), id(i) {}

  const char* name;
  const char* file;
  int line;
  uint32_t id;
  AtomicHistogram wait_ns;
  AtomicHistogram hold_ns;
  std::atomic<uint64_t> exclusive_acquires{0};
  std::atomic<uint64_t> shared_acquires{0};
  std::atomic<uint64_t> contended{0};
};

/// Returns the site for (file, line, name), creating it on first call.
/// Thread-safe; the returned pointer is valid for the process lifetime.
LockSite* RegisterLockSite(const char* name, const char* file, int line);

namespace lock_internal {
extern std::atomic<bool> g_enabled;
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t NowNs();
/// Wait-histogram sample plus the kLockWait tracer span for long waits.
void RecordWait(LockSite* site, uint64_t wait_ns);
/// Entries on this thread's shared-hold stack. Inline so a dormant
/// unlock_shared tests it without a call into lock_profiler.cc.
inline thread_local uint32_t t_shared_hold_count = 0;
void PushSharedHold(const void* mutex, uint64_t start_ns);
bool PopSharedHold(const void* mutex, uint64_t* start_ns);
}  // namespace lock_internal

/// Names the lock site at the expansion point. Use in a member
/// initializer so every instance of the enclosing class maps to the one
/// site at that header line:
///   mutable obs::TrackedMutex mu_{EDUCE_LOCK_SITE("buffer_pool.mu")};
#define EDUCE_LOCK_SITE(name) \
  ::educe::obs::RegisterLockSite((name), __FILE__, __LINE__)

/// A std mutex satisfying Lockable, with per-site wait/hold accounting.
/// `Std` is std::mutex for TrackedMutex and std::shared_mutex for the
/// exclusive side of TrackedSharedMutex.
template <typename Std>
class BasicTrackedMutex {
 public:
  explicit BasicTrackedMutex(LockSite* site) : site_(site) {}
  BasicTrackedMutex(const BasicTrackedMutex&) = delete;
  BasicTrackedMutex& operator=(const BasicTrackedMutex&) = delete;

  void lock() {
    if (!lock_internal::Enabled()) {
      mu_.lock();
      hold_start_ns_ = 0;
      return;
    }
    uint64_t wait = 0;
    if (!mu_.try_lock()) {
      const uint64_t t0 = lock_internal::NowNs();
      mu_.lock();
      wait = lock_internal::NowNs() - t0;
      site_->contended.fetch_add(1, std::memory_order_relaxed);
    }
    site_->exclusive_acquires.fetch_add(1, std::memory_order_relaxed);
    lock_internal::RecordWait(site_, wait);
    hold_start_ns_ = lock_internal::NowNs();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (lock_internal::Enabled()) {
      site_->exclusive_acquires.fetch_add(1, std::memory_order_relaxed);
      lock_internal::RecordWait(site_, 0);
      hold_start_ns_ = lock_internal::NowNs();
    } else {
      hold_start_ns_ = 0;
    }
    return true;
  }

  void unlock() {
    if (hold_start_ns_ != 0) {
      site_->hold_ns.Record(lock_internal::NowNs() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
    mu_.unlock();
  }

 protected:
  Std mu_;
  LockSite* site_;

 private:
  uint64_t hold_start_ns_ = 0;  // only touched while held exclusively
};

using TrackedMutex = BasicTrackedMutex<std::mutex>;

/// std::shared_mutex satisfying SharedLockable, with per-site
/// accounting. Shared holds are timed via a per-thread stack keyed by
/// mutex address (see file comment); an entry pushed before the runtime
/// gate flipped off is still popped, so the stack never leaks.
class TrackedSharedMutex : public BasicTrackedMutex<std::shared_mutex> {
 public:
  using BasicTrackedMutex::BasicTrackedMutex;

  void lock_shared() {
    if (!lock_internal::Enabled()) {
      mu_.lock_shared();
      return;
    }
    uint64_t wait = 0;
    if (!mu_.try_lock_shared()) {
      const uint64_t t0 = lock_internal::NowNs();
      mu_.lock_shared();
      wait = lock_internal::NowNs() - t0;
      site_->contended.fetch_add(1, std::memory_order_relaxed);
    }
    site_->shared_acquires.fetch_add(1, std::memory_order_relaxed);
    lock_internal::RecordWait(site_, wait);
    lock_internal::PushSharedHold(this, lock_internal::NowNs());
  }

  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
    if (lock_internal::Enabled()) {
      site_->shared_acquires.fetch_add(1, std::memory_order_relaxed);
      lock_internal::RecordWait(site_, 0);
      lock_internal::PushSharedHold(this, lock_internal::NowNs());
    }
    return true;
  }

  /// Pops the hold stack only when this thread has pushed onto it, so a
  /// dormant release never calls out of line. Testing the gate here
  /// instead would leak the entry of a hold that began while enabled.
  void unlock_shared() {
    uint64_t start = 0;
    if (lock_internal::t_shared_hold_count != 0 &&
        lock_internal::PopSharedHold(this, &start)) {
      site_->hold_ns.Record(lock_internal::NowNs() - start);
    }
    mu_.unlock_shared();
  }
};

}  // namespace educe::obs

#endif  // EDUCE_OBS_LOCK_PROFILER_H_
