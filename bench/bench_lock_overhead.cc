// Lock-profiler cost gate (DESIGN.md §16.1). Three hard acceptance
// checks, each a std::abort on violation:
//
//  1. Structural dormancy — with the runtime gate off, a workload
//     hammering TrackedMutex/TrackedSharedMutex sites must leave every
//     site counter at exactly zero and push nothing onto any thread's
//     shared-hold stack. The disabled profiler does not merely stay
//     cheap, it provably records nothing.
//  2. Overhead — with the gate off, a lock/work/unlock loop with a ~1us
//     critical section must cost within 2% of the same loop over the raw
//     std mutex (median of paired per-rep ratios). Two legs: TrackedMutex
//     lock/unlock against std::mutex, and TrackedSharedMutex
//     lock_shared/unlock_shared against std::shared_mutex. This is the
//     bar that lets every build carry the profiler.
//  3. Ranking — with the gate on, four threads hammering one mutex
//     (sleeping while holding) versus an uncontended control, the
//     hammered site must come out as TopContended(1)[0] with nonzero
//     wait and contended counts.
//
// The bench also runs a small profiled Engine workload and writes the
// two observability artifacts CI uploads: chrome_trace.json (the
// Chrome trace_event export, loadable in Perfetto) and metrics.prom
// (the Prometheus text exposition).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "educe/engine.h"
#include "obs/lock_profiler.h"
#include "server/prometheus.h"

namespace educe {
namespace {

using bench::BenchJson;
using bench::Check;
using bench::CheckResult;
using bench::Table;
using obs::LockProfiler;
using obs::LockSiteStats;

/// Many short reps rather than a few long ones: on a busy host each rep
/// is a lottery ticket for an interruption-free window, and the min on
/// each side only needs one clean ticket.
constexpr uint64_t kOverheadIters = 4000;
constexpr int kOverheadReps = 60;
constexpr double kOverheadBar = 1.02;  // disabled wrapper within 2% of raw

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ~1us of branch-free integer work — the "realistic critical section"
/// both loops share. Returns a value the caller must consume so the
/// optimizer cannot delete the work.
uint64_t SpinWork(uint64_t seed) {
  uint64_t x = seed | 1;
  for (int i = 0; i < 220; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Presents the shared side of a SharedLockable as lock()/unlock(), so
/// the shared leg runs through the same TimedRep loop.
template <typename Mutex>
struct SharedSide {
  Mutex* mu;
  void lock() { mu->lock_shared(); }
  void unlock() { mu->unlock_shared(); }
};

/// One timed rep of the lock/work/unlock loop over any Lockable.
template <typename Mutex>
uint64_t TimedRep(Mutex* mu, uint64_t* sink) {
  const uint64_t t0 = NowNs();
  uint64_t acc = *sink;
  for (uint64_t i = 0; i < kOverheadIters; ++i) {
    mu->lock();
    acc = SpinWork(acc + i);
    mu->unlock();
  }
  *sink = acc;
  return NowNs() - t0;
}

/// The overhead estimate is the MEDIAN of per-rep tracked/raw ratios,
/// with the two loops interleaved back-to-back (alternating order every
/// rep). Two failure modes of naive timing are neutralized: measuring
/// all raw reps before all tracked reps folds clock-frequency drift
/// into the ratio, and any single rep can eat a scheduler interruption
/// — on a busy one-core host either alone can exceed the 2% bar this
/// gate enforces. Pairing kills the drift; the median kills the
/// outliers. The per-side minimums are also returned for reporting.
template <typename Raw, typename Tracked>
double InterleavedRatio(Raw* raw, Tracked* tracked, uint64_t* sink,
                        uint64_t* raw_best, uint64_t* tracked_best) {
  *raw_best = UINT64_MAX;
  *tracked_best = UINT64_MAX;
  std::vector<double> ratios;
  ratios.reserve(kOverheadReps);
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    uint64_t raw_ns, tracked_ns;
    if (rep % 2 == 0) {
      raw_ns = TimedRep(raw, sink);
      tracked_ns = TimedRep(tracked, sink);
    } else {
      tracked_ns = TimedRep(tracked, sink);
      raw_ns = TimedRep(raw, sink);
    }
    if (raw_ns < *raw_best) *raw_best = raw_ns;
    if (tracked_ns < *tracked_best) *tracked_best = tracked_ns;
    if (raw_ns > 0) {
      ratios.push_back(static_cast<double>(tracked_ns) / raw_ns);
    }
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
}

// --- check 1: structural dormancy -----------------------------------------

bool DormancyCheck() {
  LockProfiler::SetEnabled(false);
  LockProfiler::Reset();
  auto* excl_site = obs::RegisterLockSite("bench.dormant_excl", __FILE__, 0);
  auto* shared_site = obs::RegisterLockSite("bench.dormant_shared", __FILE__, 0);
  obs::TrackedMutex excl(excl_site);
  obs::TrackedSharedMutex shared(shared_site);
  std::atomic<bool> stack_ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&excl, &shared, &stack_ok] {
      for (int i = 0; i < 5000; ++i) {
        excl.lock();
        excl.unlock();
        shared.lock_shared();
        if (obs::lock_internal::t_shared_hold_count != 0) stack_ok = false;
        shared.unlock_shared();
        if (shared.try_lock_shared()) shared.unlock_shared();
        if (excl.try_lock()) excl.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!stack_ok) {
    std::fprintf(stderr, "FATAL dormancy violated: a shared hold taken with "
                         "the gate off pushed onto the hold stack\n");
    return false;
  }
  for (const LockSiteStats& s : LockProfiler::Snapshot()) {
    if (s.name != "bench.dormant_excl" && s.name != "bench.dormant_shared") {
      continue;
    }
    if (s.exclusive_acquires != 0 || s.shared_acquires != 0 ||
        s.contended != 0 || s.wait_ns.count() != 0 || s.hold_ns.count() != 0) {
      std::fprintf(stderr,
                   "FATAL dormancy violated at site %s: excl=%llu shared=%llu "
                   "contended=%llu wait_count=%llu hold_count=%llu\n",
                   s.name.c_str(),
                   static_cast<unsigned long long>(s.exclusive_acquires),
                   static_cast<unsigned long long>(s.shared_acquires),
                   static_cast<unsigned long long>(s.contended),
                   static_cast<unsigned long long>(s.wait_ns.count()),
                   static_cast<unsigned long long>(s.hold_ns.count()));
      return false;
    }
  }
  return true;
}

// --- check 3: contention ranking ------------------------------------------

bool RankingCheck() {
  LockProfiler::Reset();
  LockProfiler::SetEnabled(true);
  auto* hot_site = obs::RegisterLockSite("bench.hot", __FILE__, 0);
  auto* cold_site = obs::RegisterLockSite("bench.cold", __FILE__, 0);
  obs::TrackedMutex hot(hot_site);
  obs::TrackedMutex cold(cold_site);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hot, &cold] {
      for (int i = 0; i < 8; ++i) {
        hot.lock();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        hot.unlock();
        cold.lock();
        cold.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  LockProfiler::SetEnabled(false);

  const std::vector<LockSiteStats> top = LockProfiler::TopContended(1);
  if (top.empty() || top[0].name != "bench.hot" ||
      top[0].wait_total_ns() == 0 || top[0].contended == 0) {
    std::fprintf(stderr, "FATAL ranking: top site %s wait=%llu contended=%llu "
                         "(expected bench.hot with nonzero wait)\n",
                 top.empty() ? "<none>" : top[0].name.c_str(),
                 top.empty()
                     ? 0ull
                     : static_cast<unsigned long long>(top[0].wait_total_ns()),
                 top.empty()
                     ? 0ull
                     : static_cast<unsigned long long>(top[0].contended));
    return false;
  }
  return true;
}

// --- artifact workload -----------------------------------------------------

/// A short profiled Engine run so the exported trace and Prometheus
/// text have realistic spans/series. Returns the solution count
/// (deterministic, gated exactly by the regression checker).
uint64_t ArtifactWorkload() {
  EngineOptions options;
  options.profiling = true;
  options.lock_profiling = true;
  Engine engine(options);
  Check(engine.DeclareRelation("edge", 2), "declare edge");
  std::string facts;
  for (int i = 0; i < 32; ++i) {
    facts +=
        "edge(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  Check(engine.StoreFactsExternal(facts), "store facts");
  Check(engine.StoreRulesExternal(
            "reach(X, Y) :- edge(X, Y). "
            "reach(X, Y) :- edge(X, Z), reach(Z, Y)."),
        "store rules");

  uint64_t solutions = 0;
  for (int q = 0; q < 4; ++q) {
    auto result = engine.Query("reach(" + std::to_string(q) + ", Y)");
    auto query = CheckResult(std::move(result), "open query");
    while (CheckResult(query->Next(), "pump query")) ++solutions;
  }

  std::ofstream trace("chrome_trace.json", std::ios::trunc);
  trace << engine.DrainSpansChromeTrace();
  trace.close();
  std::ofstream prom("metrics.prom", std::ios::trunc);
  prom << server::RenderPrometheus(&engine, nullptr);
  prom.close();
  std::printf("wrote chrome_trace.json and metrics.prom\n");
  return solutions;
}

/// One overhead leg: the raw mutex vs the (disabled) tracked wrapper.
struct OverheadLeg {
  double ratio = 0.0;
  uint64_t raw_ns = 0;
  uint64_t tracked_ns = 0;
  bool ok() const { return ratio > 0.0 && ratio <= kOverheadBar; }
  std::string Detail() const {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%.1f vs %.1f ns/iter (ratio %.4f, bar %.2f)",
                  static_cast<double>(tracked_ns) / kOverheadIters,
                  static_cast<double>(raw_ns) / kOverheadIters, ratio,
                  kOverheadBar);
    return detail;
  }
};

template <typename Raw, typename Tracked>
OverheadLeg MeasureOverhead(Raw* raw, Tracked* tracked) {
  LockProfiler::SetEnabled(false);
  uint64_t sink = 1;
  // Warm both paths once before timing.
  (void)TimedRep(raw, &sink);
  (void)TimedRep(tracked, &sink);
  OverheadLeg leg;
  leg.ratio =
      InterleavedRatio(raw, tracked, &sink, &leg.raw_ns, &leg.tracked_ns);
  return leg;
}

int Run() {
  const bool dormant_ok = DormancyCheck();

  std::mutex raw;
  obs::TrackedMutex tracked(
      obs::RegisterLockSite("bench.overhead", __FILE__, 0));
  const OverheadLeg excl = MeasureOverhead(&raw, &tracked);
  std::shared_mutex raw_shared;
  obs::TrackedSharedMutex tracked_shared(
      obs::RegisterLockSite("bench.overhead_shared", __FILE__, 0));
  SharedSide<std::shared_mutex> raw_shared_side{&raw_shared};
  SharedSide<obs::TrackedSharedMutex> tracked_shared_side{&tracked_shared};
  const OverheadLeg shared =
      MeasureOverhead(&raw_shared_side, &tracked_shared_side);
  const bool overhead_ok = excl.ok();
  const bool shared_overhead_ok = shared.ok();

  const bool rank_ok = RankingCheck();
  const uint64_t solutions = ArtifactWorkload();
  const size_t lock_sites = LockProfiler::Snapshot().size();

  Table table("Lock profiler cost gates");
  table.Header({"check", "result", "detail"});
  table.Row({"dormancy", dormant_ok ? "ok" : "FAIL",
             "all site counters zero, no shared hold pushed"});
  table.Row({"overhead", overhead_ok ? "ok" : "FAIL", excl.Detail()});
  table.Row({"shared overhead", shared_overhead_ok ? "ok" : "FAIL",
             shared.Detail()});
  table.Row({"ranking", rank_ok ? "ok" : "FAIL",
             "bench.hot tops TopContended(1)"});
  table.Print();

  BenchJson json;
  json.Add("bench", std::string("lock_overhead"));
  json.AddHostCores();
  json.AddToolchain();
  json.Add("solutions", solutions);
  json.Add("lock_sites", static_cast<uint64_t>(lock_sites));
  json.Add("raw_ns_per_iter",
           static_cast<double>(excl.raw_ns) / kOverheadIters);
  json.Add("tracked_ns_per_iter",
           static_cast<double>(excl.tracked_ns) / kOverheadIters);
  json.Add("overhead_ratio", excl.ratio);
  json.Add("shared_raw_ns_per_iter",
           static_cast<double>(shared.raw_ns) / kOverheadIters);
  json.Add("shared_tracked_ns_per_iter",
           static_cast<double>(shared.tracked_ns) / kOverheadIters);
  json.Add("shared_overhead_ratio", shared.ratio);
  json.Add("dormant_ok", static_cast<uint64_t>(dormant_ok ? 1 : 0));
  json.Add("overhead_ok", static_cast<uint64_t>(overhead_ok ? 1 : 0));
  json.Add("shared_overhead_ok",
           static_cast<uint64_t>(shared_overhead_ok ? 1 : 0));
  json.Add("rank_ok", static_cast<uint64_t>(rank_ok ? 1 : 0));
  json.Print();

  if (!dormant_ok || !overhead_ok || !shared_overhead_ok || !rank_ok) {
    std::fflush(stdout);
    std::fprintf(stderr, "FATAL lock profiler gate failed (dormant=%d "
                         "overhead=%d shared_overhead=%d rank=%d)\n",
                 dormant_ok, overhead_ok, shared_overhead_ok, rank_ok);
    std::abort();
  }
  return 0;
}

}  // namespace
}  // namespace educe

int main() { return educe::Run(); }
