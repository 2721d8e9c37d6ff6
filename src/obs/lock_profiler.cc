#include "obs/lock_profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "obs/profile.h"
#include "obs/trace.h"

namespace educe::obs {

namespace {

/// Strips the directory part so site JSON reads "buffer_pool.h:83"
/// rather than a build-machine-specific absolute path.
const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

}  // namespace

namespace lock_internal {

std::atomic<bool> g_enabled{false};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Contended waits below this are histogram-only: emitting a tracer
/// span per micro-wait would flood the rings with noise shorter than
/// the span-recording cost itself.
constexpr uint64_t kWaitSpanThresholdNs = 1000;

std::atomic<Tracer*> g_tracer{nullptr};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<LockSite>> sites;
};

/// Leaked on purpose: mutexes with static storage duration may record
/// during shutdown, after normal static destruction would have torn the
/// registry down. LSan does not flag it (still reachable via the static
/// pointer).
Registry& GlobalRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

/// Shared-hold timestamps, per thread. A thread can hold several shared
/// locks at once (nested dictionary + clause-store reads), so entries
/// are keyed by mutex address and searched newest-first. Depth stays in
/// the low single digits, so linear scan beats any map.
thread_local std::vector<std::pair<const void*, uint64_t>> t_shared_holds;

}  // namespace

void RecordWait(LockSite* site, uint64_t wait_ns) {
  site->wait_ns.Record(wait_ns);
  if (wait_ns < kWaitSpanThresholdNs) return;
  Tracer* tracer = g_tracer.load(std::memory_order_acquire);
  if (tracer != nullptr && tracer->enabled()) {
    tracer->RecordCompleted(SpanKind::kLockWait, wait_ns, site->id);
  }
}

void PushSharedHold(const void* mutex, uint64_t start_ns) {
  t_shared_holds.emplace_back(mutex, start_ns);
  ++t_shared_hold_count;
}

bool PopSharedHold(const void* mutex, uint64_t* start_ns) {
  auto& holds = t_shared_holds;
  for (size_t i = holds.size(); i-- > 0;) {
    if (holds[i].first == mutex) {
      *start_ns = holds[i].second;
      holds.erase(holds.begin() + static_cast<ptrdiff_t>(i));
      --t_shared_hold_count;
      return true;
    }
  }
  return false;
}

}  // namespace lock_internal

LockSite* RegisterLockSite(const char* name, const char* file, int line) {
  lock_internal::Registry& registry = lock_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& site : registry.sites) {
    if (site->line == line && std::strcmp(site->file, file) == 0 &&
        std::strcmp(site->name, name) == 0) {
      return site.get();
    }
  }
  registry.sites.push_back(std::make_unique<LockSite>(
      name, file, line, static_cast<uint32_t>(registry.sites.size())));
  return registry.sites.back().get();
}

void LockProfiler::SetEnabled(bool on) {
  lock_internal::g_enabled.store(on, std::memory_order_release);
}

bool LockProfiler::enabled() {
  return lock_internal::g_enabled.load(std::memory_order_relaxed);
}

void LockProfiler::Reset() {
  lock_internal::Registry& registry = lock_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& site : registry.sites) {
    site->wait_ns.Reset();
    site->hold_ns.Reset();
    site->exclusive_acquires.store(0, std::memory_order_relaxed);
    site->shared_acquires.store(0, std::memory_order_relaxed);
    site->contended.store(0, std::memory_order_relaxed);
  }
}

std::vector<LockSiteStats> LockProfiler::Snapshot() {
  lock_internal::Registry& registry = lock_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<LockSiteStats> out;
  out.reserve(registry.sites.size());
  for (const auto& site : registry.sites) {
    LockSiteStats stats;
    stats.id = site->id;
    stats.name = site->name;
    stats.file = Basename(site->file);
    stats.line = site->line;
    stats.exclusive_acquires =
        site->exclusive_acquires.load(std::memory_order_relaxed);
    stats.shared_acquires =
        site->shared_acquires.load(std::memory_order_relaxed);
    stats.contended = site->contended.load(std::memory_order_relaxed);
    stats.wait_ns = site->wait_ns.Snapshot();
    stats.hold_ns = site->hold_ns.Snapshot();
    out.push_back(std::move(stats));
  }
  return out;
}

void LockProfiler::AttachTracer(Tracer* tracer) {
  Tracer* expected = nullptr;
  lock_internal::g_tracer.compare_exchange_strong(expected, tracer,
                                                  std::memory_order_acq_rel);
}

void LockProfiler::DetachTracer(Tracer* tracer) {
  Tracer* expected = tracer;
  lock_internal::g_tracer.compare_exchange_strong(expected, nullptr,
                                                  std::memory_order_acq_rel);
}

std::string LockProfiler::SiteName(uint64_t id) {
  lock_internal::Registry& registry = lock_internal::GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (id >= registry.sites.size()) return "";
  return registry.sites[static_cast<size_t>(id)]->name;
}

std::vector<LockSiteStats> LockProfiler::TopContended(size_t k) {
  std::vector<LockSiteStats> sites = Snapshot();
  std::sort(sites.begin(), sites.end(),
            [](const LockSiteStats& a, const LockSiteStats& b) {
              if (a.wait_total_ns() != b.wait_total_ns()) {
                return a.wait_total_ns() > b.wait_total_ns();
              }
              return a.id < b.id;
            });
  if (sites.size() > k) sites.resize(k);
  return sites;
}

std::string LockProfiler::ToJson(size_t top_k) {
  const std::vector<LockSiteStats> sites =
      TopContended(std::numeric_limits<size_t>::max());
  std::string out = "{\"enabled\":";
  out += enabled() ? "true" : "false";
  out += ",\"sites\":[";
  char buf[160];
  for (size_t i = 0; i < sites.size(); ++i) {
    const LockSiteStats& s = sites[i];
    if (i != 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"site\":\"" +
           JsonEscape(s.file) + ":" + std::to_string(s.line) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"exclusive\":%llu,\"shared\":%llu,\"contended\":%llu,"
                  "\"wait_total_ns\":%llu,\"hold_total_ns\":%llu",
                  static_cast<unsigned long long>(s.exclusive_acquires),
                  static_cast<unsigned long long>(s.shared_acquires),
                  static_cast<unsigned long long>(s.contended),
                  static_cast<unsigned long long>(s.wait_total_ns()),
                  static_cast<unsigned long long>(s.hold_total_ns()));
    out += buf;
    out += ",\"wait_ns\":" + s.wait_ns.ToJson();
    out += ",\"hold_ns\":" + s.hold_ns.ToJson() + "}";
  }
  out += "],\"top_contended\":[";
  const size_t shown = std::min(top_k, sites.size());
  for (size_t i = 0; i < shown; ++i) {
    if (i != 0) out += ",";
    std::snprintf(buf, sizeof(buf), ",\"wait_total_ns\":%llu}",
                  static_cast<unsigned long long>(sites[i].wait_total_ns()));
    out += "{\"name\":\"" + JsonEscape(sites[i].name) + "\"" + buf;
  }
  out += "]}";
  return out;
}

}  // namespace educe::obs
