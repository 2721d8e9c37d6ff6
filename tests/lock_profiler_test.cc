// The lock-site contention profiler (DESIGN.md §16.1): site
// registration and dedup, wait/hold accounting through the Tracked
// mutex wrappers, the runtime gate, shared-hold timing, contention
// ranking under real multi-thread load, span emission for long waits,
// and the JSON export round-tripping through the server's strict
// parser. Most cases skip themselves when EDUCE_LOCK_PROFILING is
// compiled out — the compiled-out leg instead asserts the stubs stay
// inert.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "educe/engine.h"
#include "obs/histogram.h"
#include "obs/lock_profiler.h"
#include "obs/trace.h"
#include "server/json.h"

namespace educe {
namespace {

using obs::LockProfiler;
using obs::LockSiteStats;

/// Gate + counters restored/zeroed around every test: the registry is
/// process-wide, so counts would otherwise bleed between cases.
class LockProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LockProfiler::SetEnabled(false);
    LockProfiler::Reset();
  }
  void TearDown() override {
    LockProfiler::SetEnabled(false);
    LockProfiler::Reset();
  }

  static const LockSiteStats* FindSite(const std::vector<LockSiteStats>& sites,
                                       const std::string& name) {
    for (const auto& s : sites) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

// --- AtomicHistogram ------------------------------------------------------

TEST(AtomicHistogramTest, SnapshotMatchesPlainHistogram) {
  obs::AtomicHistogram atomic;
  obs::Histogram plain;
  for (uint64_t i = 1; i <= 500; ++i) {
    atomic.Record(i * 37);
    plain.Record(i * 37);
  }
  const obs::Histogram snap = atomic.Snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.sum(), plain.sum());
  EXPECT_EQ(snap.min(), plain.min());
  EXPECT_EQ(snap.max(), plain.max());
  EXPECT_EQ(snap.buckets(), plain.buckets());
}

TEST(AtomicHistogramTest, ConcurrentRecordsLoseNothing) {
  obs::AtomicHistogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kEach = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kEach; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 97));
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), kThreads * kEach);
}

TEST(AtomicHistogramTest, ResetZeroes) {
  obs::AtomicHistogram h;
  h.Record(42);
  h.Reset();
  const obs::Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.sum(), 0u);
}

// --- Registration ---------------------------------------------------------

TEST_F(LockProfilerTest, RegistrationDeduplicatesBySite) {
  if (!LockProfiler::compiled_in()) {
    // Compiled out: registration is a constant-null stub.
    EXPECT_EQ(obs::RegisterLockSite("x", "f.h", 1), nullptr);
    GTEST_SKIP() << "EDUCE_LOCK_PROFILING is off";
  }
  auto* a = obs::RegisterLockSite("test.dedup", "fake_file.h", 101);
  auto* b = obs::RegisterLockSite("test.dedup", "fake_file.h", 101);
  EXPECT_EQ(a, b);
  auto* c = obs::RegisterLockSite("test.dedup", "fake_file.h", 102);
  EXPECT_NE(a, c);  // different line = different site
}

// --- TrackedMutex accounting ----------------------------------------------

TEST_F(LockProfilerTest, ExclusiveAcquireRecordsWaitAndHold) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.excl", "fake_file.h", 201);
  obs::TrackedMutex mu(site);
  LockProfiler::SetEnabled(true);
  {
    mu.lock();
    mu.unlock();
  }
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.excl");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exclusive_acquires, 1u);
  EXPECT_EQ(s->contended, 0u);  // uncontended try_lock fast path
  EXPECT_EQ(s->wait_ns.count(), 1u);
  EXPECT_EQ(s->hold_ns.count(), 1u);
  EXPECT_EQ(s->file, "fake_file.h");
  EXPECT_EQ(s->line, 201);
}

TEST_F(LockProfilerTest, DisabledGateRecordsNothing) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.gated", "fake_file.h", 301);
  obs::TrackedMutex mu(site);
  ASSERT_FALSE(LockProfiler::enabled());
  for (int i = 0; i < 100; ++i) {
    mu.lock();
    mu.unlock();
    (void)mu.try_lock();
    mu.unlock();
  }
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.gated");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exclusive_acquires, 0u);
  EXPECT_EQ(s->wait_ns.count(), 0u);
  EXPECT_EQ(s->hold_ns.count(), 0u);
}

TEST_F(LockProfilerTest, TryLockCountsOnlySuccess) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.trylock", "fake_file.h", 401);
  obs::TrackedMutex mu(site);
  LockProfiler::SetEnabled(true);
  ASSERT_TRUE(mu.try_lock());
  std::thread failer([&mu] { EXPECT_FALSE(mu.try_lock()); });
  failer.join();
  mu.unlock();
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.trylock");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exclusive_acquires, 1u);  // the failed try recorded nothing
  EXPECT_EQ(s->hold_ns.count(), 1u);
}

TEST_F(LockProfilerTest, SharedHoldsNestAndUnwindInAnyOrder) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site_a = obs::RegisterLockSite("test.shared_a", "fake_file.h", 501);
  auto* site_b = obs::RegisterLockSite("test.shared_b", "fake_file.h", 502);
  obs::TrackedSharedMutex a(site_a), b(site_b);
  LockProfiler::SetEnabled(true);
  // Nested shared holds released out of acquisition order: each must be
  // timed against its own mutex via the per-thread hold stack.
  a.lock_shared();
  b.lock_shared();
  a.unlock_shared();
  b.unlock_shared();
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* sa = FindSite(sites, "test.shared_a");
  const LockSiteStats* sb = FindSite(sites, "test.shared_b");
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sa->shared_acquires, 1u);
  EXPECT_EQ(sb->shared_acquires, 1u);
  EXPECT_EQ(sa->hold_ns.count(), 1u);
  EXPECT_EQ(sb->hold_ns.count(), 1u);
  EXPECT_EQ(sa->exclusive_acquires, 0u);
}

TEST_F(LockProfilerTest, GateFlipMidHoldNeverLeaksTheHoldStack) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.midflip", "fake_file.h", 601);
  obs::TrackedSharedMutex mu(site);
  LockProfiler::SetEnabled(true);
  mu.lock_shared();
  LockProfiler::SetEnabled(false);  // flips while held
  mu.unlock_shared();               // must still pop the stack entry
  LockProfiler::SetEnabled(true);
  mu.lock_shared();
  mu.unlock_shared();
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.midflip");
  ASSERT_NE(s, nullptr);
  // Both unlocks popped; both holds that started while enabled recorded.
  EXPECT_EQ(s->hold_ns.count(), 2u);
}

// --- Contention ranking ---------------------------------------------------

TEST_F(LockProfilerTest, TopContendedRanksTheHammeredMutexFirst) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* hot_site = obs::RegisterLockSite("test.hot", "fake_file.h", 701);
  auto* cold_site = obs::RegisterLockSite("test.cold", "fake_file.h", 702);
  obs::TrackedMutex hot(hot_site), cold(cold_site);
  LockProfiler::SetEnabled(true);

  // Four threads fight over `hot`, each sleeping while holding it, so
  // every other thread provably accumulates wait time. `cold` is only
  // ever touched uncontended — its wait total stays exactly zero.
  constexpr int kThreads = 4, kRounds = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hot, &cold] {
      for (int i = 0; i < kRounds; ++i) {
        hot.lock();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        hot.unlock();
        cold.lock();
        cold.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto top = LockProfiler::TopContended(2);
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].name, "test.hot");
  EXPECT_GT(top[0].wait_total_ns(), 0u);
  EXPECT_GT(top[0].contended, 0u);
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s_cold = FindSite(sites, "test.cold");
  ASSERT_NE(s_cold, nullptr);
  EXPECT_EQ(s_cold->exclusive_acquires,
            static_cast<uint64_t>(kThreads * kRounds));
}

// --- Span emission --------------------------------------------------------

TEST_F(LockProfilerTest, LongWaitsEmitLockWaitSpans) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.span", "fake_file.h", 801);
  obs::TrackedMutex mu(site);
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  LockProfiler::AttachTracer(&tracer);
  LockProfiler::SetEnabled(true);

  // One thread parks on the lock while the holder sleeps well past the
  // ~1us span threshold.
  mu.lock();
  std::thread waiter([&mu] {
    mu.lock();
    mu.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  mu.unlock();
  waiter.join();
  LockProfiler::DetachTracer(&tracer);

  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  bool found = false;
  for (const auto& span : spans) {
    if (span.kind != obs::SpanKind::kLockWait) continue;
    found = true;
    EXPECT_EQ(LockProfiler::SiteName(span.detail), "test.span");
    EXPECT_GE(span.duration_ns, 1000u);
  }
  EXPECT_TRUE(found);
}

// --- Concurrent snapshot (TSan food) --------------------------------------

TEST_F(LockProfilerTest, SnapshotWhileRecordingIsSafe) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.race", "fake_file.h", 901);
  obs::TrackedMutex mu(site);
  LockProfiler::SetEnabled(true);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> iterations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&mu, &stop, &iterations] {
      while (!stop.load(std::memory_order_relaxed)) {
        mu.lock();
        mu.unlock();
        iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Snapshot concurrently with the workers until they have provably
  // made progress (they may take a while to even start).
  int drains = 0;
  while (drains < 50 || iterations.load(std::memory_order_relaxed) < 100) {
    (void)LockProfiler::Snapshot();
    (void)LockProfiler::ToJson();
    ++drains;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.race");
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->exclusive_acquires, 0u);
  EXPECT_EQ(s->wait_ns.count(), s->exclusive_acquires);
}

// Fact decode resolves each stored atom by a probe of the internal
// dictionary; the external dictionary's mutex is taken only on a probe
// miss, once per distinct symbol however many rows repeat it.
TEST_F(LockProfilerTest, FactDecodeTakesTheExternalDictionaryOncePerSymbol) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("row", 2).ok());
  std::string facts;
  for (int i = 0; i < 300; ++i) {
    facts += "row(" + std::to_string(i) + ", tag_" + std::to_string(i % 5) +
             "). ";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());
  LockProfiler::SetEnabled(true);
  for (int round = 0; round < 3; ++round) {
    auto count = engine.CountSolutions("row(I, T)");
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, 300u);
  }
  LockProfiler::SetEnabled(false);
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "external_dictionary.mu");
  ASSERT_NE(s, nullptr);
  // 900 rows decoded; six distinct symbols: row/2 and tag_0 .. tag_4.
  EXPECT_GE(s->exclusive_acquires, 1u);
  EXPECT_LE(s->exclusive_acquires, 6u);
}

// --- Export ---------------------------------------------------------------

TEST_F(LockProfilerTest, ToJsonParsesStrictlyWhateverTheBuildMode) {
  // Valid JSON in both build modes (compiled out it is the constant
  // empty document) — ExportMetricsJson embeds it verbatim.
  if (LockProfiler::compiled_in()) {
    auto* site = obs::RegisterLockSite("test.json \"quoted\"", "fake_file.h",
                                       1001);
    obs::TrackedMutex mu(site);
    LockProfiler::SetEnabled(true);
    mu.lock();
    mu.unlock();
  }
  const std::string json = LockProfiler::ToJson(/*top_k=*/3);
  auto doc = server::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << json;
  ASSERT_TRUE(doc->is_object());
  const server::JsonValue* compiled = doc->Find("compiled");
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->bool_value, LockProfiler::compiled_in());
  const server::JsonValue* sites = doc->Find("sites");
  ASSERT_NE(sites, nullptr);
  const server::JsonValue* top = doc->Find("top_contended");
  ASSERT_NE(top, nullptr);
  if (LockProfiler::compiled_in()) {
    EXPECT_FALSE(sites->array.empty());
    EXPECT_LE(top->array.size(), 3u);
  } else {
    EXPECT_TRUE(sites->array.empty());
    EXPECT_TRUE(LockProfiler::Snapshot().empty());
    EXPECT_FALSE(LockProfiler::enabled());
  }
}

TEST_F(LockProfilerTest, ResetZeroesEverySite) {
  if (!LockProfiler::compiled_in()) GTEST_SKIP();
  auto* site = obs::RegisterLockSite("test.reset", "fake_file.h", 1101);
  obs::TrackedMutex mu(site);
  LockProfiler::SetEnabled(true);
  mu.lock();
  mu.unlock();
  LockProfiler::Reset();
  const auto sites = LockProfiler::Snapshot();
  const LockSiteStats* s = FindSite(sites, "test.reset");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->exclusive_acquires, 0u);
  EXPECT_EQ(s->wait_ns.count(), 0u);
  EXPECT_EQ(s->hold_ns.count(), 0u);
}

}  // namespace
}  // namespace educe
