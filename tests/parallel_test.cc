// Concurrency tests for worker sessions over a shared EDB (DESIGN.md §10):
// shared-substrate safety (dictionary, clause store, code cache), overlay
// isolation, invalidation under load, and the engine's session guards.
// Run under TSan via scripts/check_sanitizers.sh thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dict/dictionary.h"
#include "educe/engine.h"

namespace educe {
namespace {

std::string ItemFacts(int n) {
  std::ostringstream out;
  for (int i = 0; i < n; ++i) {
    out << "item(" << i << ", " << 2 * i << "). ";
  }
  return out.str();
}

TEST(ParallelTest, ConcurrentInterningIsConsistent) {
  dict::Dictionary dictionary;
  constexpr int kThreads = 8;
  constexpr int kNames = 500;
  // Every thread interns the same overlapping name set; ids must be
  // unique per (name, arity) regardless of interleaving.
  std::vector<std::vector<dict::SymbolId>> ids(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ids[t].resize(kNames);
      for (int i = 0; i < kNames; ++i) {
        auto id = dictionary.Intern("sym" + std::to_string(i), i % 4);
        if (!id.ok()) {
          ++failures;
          return;
        }
        ids[t][i] = *id;
        if (!dictionary.IsLive(*id)) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t << " saw different ids";
  }
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(dictionary.NameOf(ids[0][i]), "sym" + std::to_string(i));
  }
}

TEST(ParallelTest, ConcurrentFactQueriesAgree) {
  Engine engine;
  constexpr int kRows = 300;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    threads.emplace_back(
        [&failures, s = std::move(*session)]() mutable {
          for (int round = 0; round < kRounds; ++round) {
            auto all = s->CountSolutions("item(X, Y)");
            if (!all.ok() || *all != kRows) ++failures;
            auto one = s->CountSolutions("item(7, Y)");
            if (!one.ok() || *one != 1) ++failures;
          }
        });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.active_sessions(), 0u);
}

TEST(ParallelTest, ConcurrentCompiledRuleQueriesShareCache) {
  Engine engine;
  constexpr int kRows = 120;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("pair(X, Y) :- item(X, Y).").ok());
  engine.ResetStats();

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    threads.emplace_back(
        [&failures, s = std::move(*session)]() mutable {
          for (int round = 0; round < kRounds; ++round) {
            auto count = s->CountSolutions("pair(X, Y)");
            if (!count.ok() || *count != kRows) ++failures;
          }
        });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // One load decodes and links; every other session round hits the shared
  // cache entry.
  EngineStats stats = engine.Stats();
  EXPECT_GE(stats.code_cache.hits + stats.code_cache.pattern_hits +
                stats.code_cache.selection_hits,
            static_cast<uint64_t>(kThreads * kRounds - kThreads));
  EXPECT_GE(engine.loader()->cache()->entry_count(), 1u);
}

TEST(ParallelTest, SessionOverlayAssertIsIsolated) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2).").ok());
  auto s1 = engine.OpenSession();
  auto s2 = engine.OpenSession();
  ASSERT_TRUE(s1.ok() && s2.ok());

  auto asserted = (*s1)->Succeeds("assertz(p(3))");
  ASSERT_TRUE(asserted.ok()) << asserted.status();
  EXPECT_TRUE(*asserted);

  auto in_s1 = (*s1)->CountSolutions("p(X)");
  ASSERT_TRUE(in_s1.ok());
  EXPECT_EQ(*in_s1, 3u);  // copy-on-write shadow sees base + own assert

  auto in_s2 = (*s2)->CountSolutions("p(X)");
  ASSERT_TRUE(in_s2.ok());
  EXPECT_EQ(*in_s2, 2u);  // sibling overlay never sees it

  s1->reset();
  s2->reset();
  auto in_base = engine.CountSolutions("p(X)");
  ASSERT_TRUE(in_base.ok());
  EXPECT_EQ(*in_base, 2u);  // the shared base was never written
}

TEST(ParallelTest, QueryScaffoldingIsolatedAcrossSessions) {
  // Disjunctions compile auxiliary predicates; with per-session aux-name
  // ranges the overlays must never shadow each other's $aux procs, and
  // each overlay's $query proc shadows the base's and its siblings'.
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). p(3). q(4). q(5).").ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    threads.emplace_back(
        [&failures, s = std::move(*session)]() mutable {
          for (int round = 0; round < kRounds; ++round) {
            auto count = s->CountSolutions("(p(X) ; q(X))");
            if (!count.ok() || *count != 5) ++failures;
            auto found = s->Succeeds("findall(X, p(X), [_, _, _])");
            if (!found.ok() || !*found) ++failures;
          }
        });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelTest, SessionsDecodeAtomsMintedByAConcurrentWriter) {
  // Each assert mints a fresh atom and functor, so the readers' first
  // decode of every new row takes the probe's miss path (external
  // dictionary round trip, intern, mark) while other readers probe the
  // same slots and the writer interns more. Every answer must pair each
  // key with exactly its own atom.
  Engine engine;
  constexpr int kBase = 40;
  constexpr int kWrites = 120;
  constexpr int kReaders = 4;
  ASSERT_TRUE(engine.DeclareRelation("tagged", 2, {0}).ok());
  std::ostringstream facts;
  for (int i = 0; i < kBase; ++i) {
    facts << "tagged(" << i << ", base_" << i << "). ";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts.str()).ok());
  auto expected_tag = [](int key) {
    if (key < kBase) return "base_" + std::to_string(key);
    const std::string n = std::to_string(key - 1000);
    return "m_" + n + "(minted_" + n + ",[l_" + n + "])";
  };

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  // Checks one full answer to tagged(K, T); returns its row count.
  auto check_all = [&](Session* s) -> uint64_t {
    auto q = s->Query("tagged(K, T)");
    if (!q.ok()) {
      ++failures;
      return 0;
    }
    std::set<int> keys;
    for (;;) {
      auto more = (*q)->Next();
      if (!more.ok()) ++failures;
      if (!more.ok() || !*more) break;
      const int key = std::stoi((*q)->Binding("K"));
      if ((*q)->Binding("T") != expected_tag(key)) ++failures;
      if (!keys.insert(key).second) ++failures;
    }
    return keys.size();
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    readers.emplace_back([&, t, s = std::move(*session)]() mutable {
      uint64_t last = kBase;
      while (!writer_done.load(std::memory_order_acquire)) {
        const uint64_t rows = check_all(s.get());
        // Rows only ever appear: a later scan never sees fewer.
        if (rows < last || rows > kBase + kWrites) ++failures;
        last = rows;
        // A point lookup on a freshly minted row, spread across readers.
        const int key = 1000 + static_cast<int>(rows - kBase) - 1 - t;
        if (key >= 1000) {
          auto first = s->Query("tagged(" + std::to_string(key) + ", T)");
          if (!first.ok()) {
            ++failures;
            continue;
          }
          auto more = (*first)->Next();
          if (!more.ok() || !*more ||
              (*first)->Binding("T") != expected_tag(key)) {
            ++failures;
          }
        }
      }
      if (check_all(s.get()) != kBase + kWrites) ++failures;
    });
  }
  {
    auto writer = engine.OpenSession();
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < kWrites; ++i) {
      const std::string n = std::to_string(i);
      auto ok = (*writer)->Succeeds("edb_assert(tagged(" +
                                    std::to_string(1000 + i) + ", m_" + n +
                                    "(minted_" + n + ", [l_" + n + "])))");
      if (!ok.ok() || !*ok) ++failures;
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelTest, InvalidationUnderLoadServesOldOrNewCode) {
  // A writer keeps appending clauses to an external compiled rule while
  // reader sessions execute it. Every observed solution count must equal
  // a clause-set snapshot (a multiple of the per-clause count) — stale
  // complete code is fine, torn code is not.
  Engine engine;
  constexpr int kRows = 20;
  constexpr int kAppends = 30;
  ASSERT_TRUE(engine.DeclareRelation("r", 1).ok());
  std::ostringstream facts;
  for (int i = 0; i < kRows; ++i) facts << "r(" << i << "). ";
  ASSERT_TRUE(engine.StoreFactsExternal(facts.str()).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("s(X) :- r(X).").ok());

  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    readers.emplace_back(
        [&failures, &writer_done, s = std::move(*session)]() mutable {
          while (!writer_done.load(std::memory_order_acquire)) {
            auto count = s->CountSolutions("s(X)");
            if (!count.ok() || *count == 0 || *count % kRows != 0 ||
                *count > kRows * (kAppends + 1)) {
              ++failures;
            }
          }
        });
  }
  for (int i = 0; i < kAppends; ++i) {
    // Plain clauses (no control constructs) may be stored under load;
    // each append bumps the version and push-invalidates cached code.
    ASSERT_TRUE(engine.StoreRulesExternal("s(X) :- r(X).").ok());
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);

  auto final_count = engine.CountSolutions("s(X)");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(*final_count, static_cast<uint64_t>(kRows * (kAppends + 1)));
}

TEST(ParallelTest, EngineOpsRefusedWhileSessionsActive) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(engine.active_sessions(), 1u);

  // Engine::Query runs on the engine's own session, beside worker ones.
  auto answered = engine.CountSolutions("p(X)");
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(*answered, 1u);
  EXPECT_TRUE(engine.Consult("p(2).").IsFailedPrecondition());
  EXPECT_TRUE(engine.CollectDictionary().status().IsFailedPrecondition());
  // Control constructs need aux clauses in the frozen base program.
  EXPECT_TRUE(engine.StoreRulesExternal("t(X) :- (p(X) ; p(X)).")
                  .IsFailedPrecondition());

  // The session itself still works, and the EDB remains writable.
  auto ok = (*session)->Succeeds("p(1)");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_TRUE(engine.StoreFactsExternal("live(1).").ok());

  session->reset();
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_TRUE(engine.Query("p(X)").ok());
  EXPECT_TRUE(engine.Consult("p(2).").ok());
}

namespace {
// Every answer of `goal`, sorted ("" per solution without named
// variables); `query` opens it on some owner.
template <typename Owner>
std::vector<std::string> SortedAnswers(Owner* owner, const std::string& goal) {
  std::vector<std::string> out;
  auto solutions = owner->Query(goal);
  if (!solutions.ok()) return {"error: " + solutions.status().ToString()};
  while (true) {
    auto more = (*solutions)->Next();
    if (!more.ok()) return {"error: " + more.status().ToString()};
    if (!*more) break;
    std::string row;
    for (const auto& [name, value] : (*solutions)->All()) {
      row += name + "=" + value + " ";
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

// Engine::Query runs on the engine's own session while 3 worker sessions
// query on threads and a fourth writes the EDB (edb_assert into another
// relation): every answer equals the same goal's answer with no session
// open. Runs in the TSan sweep.
TEST(ParallelTest, EngineQueryAnswersBesideBusySessions) {
  Engine engine;
  constexpr int kRows = 60;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("pair(X, Y) :- item(X, Y).").ok());
  ASSERT_TRUE(engine
                  .Consult("even(X) :- item(X, _), (X mod 2 =:= 0 -> true ; "
                           "fail).\n"
                           "small(X) :- member(X, [1, 2, 3]).")
                  .ok());
  const std::vector<std::string> goals = {
      "item(7, Y)", "pair(X, 20)", "even(X)",
      "findall(Y, item(_, Y), L), length(L, N)", "small(X), item(X, Y)"};
  std::vector<std::vector<std::string>> want;
  for (const std::string& goal : goals) {
    want.push_back(SortedAnswers(&engine, goal));
    ASSERT_FALSE(want.back().empty()) << goal;
  }

  constexpr int kReaders = 3;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int w = 0; w < kReaders + 1; ++w) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(std::move(*session));
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> attempts{0};
  std::atomic<uint64_t> written{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kReaders; ++w) {
    threads.emplace_back([&, w, session = sessions[w].get()] {
      for (size_t i = w; !done.load(); ++i) {
        const size_t g = i % goals.size();
        if (SortedAnswers(session, goals[g]) != want[g]) ++failures;
      }
    });
  }
  threads.emplace_back([&, writer = sessions[kReaders].get()] {
    for (int i = 0; !done.load(); ++i) {
      auto ok = writer->Succeeds("edb_assert(log(" + std::to_string(i) + "))");
      if (ok.ok() && *ok) {
        ++written;
      } else {
        ++failures;
      }
      ++attempts;
    }
  });
  // At least 20 rounds, and until the writer has run beside them.
  for (int round = 0; round < 20 || attempts.load() < 10; ++round) {
    for (size_t g = 0; g < goals.size(); ++g) {
      EXPECT_EQ(SortedAnswers(&engine, goals[g]), want[g]) << goals[g];
    }
  }
  done.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  sessions.clear();
  auto logged = engine.CountSolutions("log(X)");
  ASSERT_TRUE(logged.ok()) << logged.status();
  EXPECT_EQ(*logged, written.load());
}

TEST(ParallelTest, CloseRefusedWhileSessionsActive) {
  const std::string path = testing::TempDir() + "parallel_close_test.edb";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  EngineOptions options;
  options.db_path = path;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
    ASSERT_TRUE(engine.StoreFactsExternal("item(1, 2).").ok());
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok());
    EXPECT_TRUE(engine.Close().IsFailedPrecondition());
    session->reset();
    EXPECT_TRUE(engine.Close().ok());
  }
  // The image written after the session retired must reopen cleanly.
  Engine reopened(options);
  EXPECT_TRUE(reopened.attached());
  auto count = reopened.CountSolutions("item(X, Y)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  std::remove(path.c_str());
}

TEST(ParallelTest, SolveParallelMatchesSequential) {
  Engine engine;
  constexpr int kRows = 100;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("pair(X, Y) :- item(X, Y).").ok());

  std::vector<std::string> goals;
  for (int i = 0; i < 40; ++i) {
    goals.push_back("item(" + std::to_string(i % kRows) + ", Y)");
    goals.push_back("pair(X, " + std::to_string(2 * (i % kRows)) + ")");
  }
  auto sequential = engine.SolveParallel(goals, 1, /*collect_bindings=*/true);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  auto parallel = engine.SolveParallel(goals, 4, /*collect_bindings=*/true);
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ(sequential->size(), goals.size());
  ASSERT_EQ(parallel->size(), goals.size());
  for (size_t i = 0; i < goals.size(); ++i) {
    EXPECT_EQ((*parallel)[i].count, (*sequential)[i].count) << goals[i];
    std::multiset<std::string> seq_rows((*sequential)[i].rows.begin(),
                                        (*sequential)[i].rows.end());
    std::multiset<std::string> par_rows((*parallel)[i].rows.begin(),
                                        (*parallel)[i].rows.end());
    EXPECT_EQ(par_rows, seq_rows) << goals[i];
  }
}

TEST(ParallelTest, SolveParallelSurfacesErrors) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  std::vector<std::string> goals = {"p(X)", "p(X"};  // second is malformed
  auto result = engine.SolveParallel(goals, 2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(engine.active_sessions(), 0u);
}

TEST(ParallelTest, StatsAggregateAcrossSessions) {
  Engine engine;
  constexpr int kRows = 50;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  engine.ResetStats();

  std::vector<std::string> goals;
  for (int i = 0; i < 64; ++i) {
    goals.push_back("item(" + std::to_string(i % kRows) + ", Y)");
  }
  auto result = engine.SolveParallel(goals, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const SolveOutcome& outcome : *result) EXPECT_EQ(outcome.count, 1u);

  // Every goal is one EDB fact call; each session query must add its
  // resolver counters to the aggregate exactly once.
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.resolver.fact_calls, goals.size());
  // Residency gauges stay coherent with the cache's own accounting.
  EXPECT_EQ(stats.code_cache.entries.load(),
            engine.loader()->cache()->entry_count());
}

TEST(ParallelTest, PerWorkerHistogramsMergeToSameTotals) {
  // DESIGN.md §11: every query records its latency into the engine-wide
  // atomic histogram as it retires (no engine lock on the hot path), so
  // the same goal batch run with 1 worker and with 4 workers must land
  // the same number of samples — and the same solution totals — whatever
  // order the queries retire in.
  Engine engine;
  constexpr int kRows = 40;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());

  std::vector<std::string> goals;
  for (int i = 0; i < 48; ++i) {
    goals.push_back("item(" + std::to_string(i % kRows) + ", Y)");
  }

  engine.ResetStats();
  auto single = engine.SolveParallel(goals, 1);
  ASSERT_TRUE(single.ok()) << single.status();
  const obs::Histogram single_latency = engine.QueryLatencyHistogram();
  EXPECT_EQ(single_latency.count(), goals.size());

  engine.ResetStats();
  auto parallel = engine.SolveParallel(goals, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  const obs::Histogram merged_latency = engine.QueryLatencyHistogram();
  EXPECT_EQ(merged_latency.count(), goals.size());

  uint64_t single_solutions = 0, parallel_solutions = 0;
  for (size_t i = 0; i < goals.size(); ++i) {
    single_solutions += (*single)[i].count;
    parallel_solutions += (*parallel)[i].count;
  }
  EXPECT_EQ(single_solutions, parallel_solutions);
  // Sample counts are exact; the recorded durations differ run to run,
  // but every sample must be accounted for (sum of all buckets == count).
  uint64_t bucket_sum = 0;
  for (uint64_t b : merged_latency.buckets()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, merged_latency.count());
}

TEST(ParallelTest, ProfilingUnderParallelQueriesIsClean) {
  // Profiled parallel runs exercise the tracer's thread-striped rings
  // and the obs mutex from every worker; under TSan this asserts the
  // recording paths are race-free. Counter-exactness across workers is
  // not asserted here (subsystem counters interleave), only coherence.
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  constexpr int kRows = 30;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("val(Y) :- item(_, Y).").ok());
  engine.ResetStats();

  std::vector<std::string> goals;
  for (int i = 0; i < 32; ++i) {
    goals.push_back(i % 2 == 0
                        ? "item(" + std::to_string(i % kRows) + ", Y)"
                        : "val(Y)");
  }
  auto result = engine.SolveParallel(goals, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(engine.QueryLatencyHistogram().count(), goals.size());
  EXPECT_EQ(engine.RecentProfiles().size(),
            std::min<size_t>(goals.size(), 64));
  EXPECT_GT(engine.tracer()->recorded(), 0u);
  // The export assembles under the same locks the workers used.
  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"recent_queries\""), std::string::npos);
}

// Session queries publish their machine and resolver counters into
// Stats() as each query retires: a batch spread over 4 live sessions must
// cost exactly what the same goals cost one at a time on one session,
// both while the sessions are open and after they close (nothing is
// counted twice).
TEST(ParallelTest, LiveSessionsPublishCountersOnceAsQueriesRetire) {
  Engine engine;
  constexpr int kRows = 40;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  ASSERT_TRUE(engine.StoreRulesExternal("val(Y) :- item(_, Y).").ok());
  std::vector<std::string> goals;
  for (int i = 0; i < 48; ++i) {
    goals.push_back(i % 3 == 0 ? "val(Y)"
                               : "item(" + std::to_string(i % kRows) + ", Y)");
  }

  uint64_t want_instructions = 0, want_fact_calls = 0;
  {
    auto single = engine.OpenSession();
    ASSERT_TRUE(single.ok()) << single.status();
    for (const std::string& goal : goals) {
      ASSERT_TRUE((*single)->CountSolutions(goal).ok()) << goal;
    }
    want_instructions = (*single)->machine()->stats().instructions;
    want_fact_calls = (*single)->resolver()->stats().fact_calls;
  }
  ASSERT_GT(want_instructions, 0u);
  ASSERT_GT(want_fact_calls, 0u);

  engine.ResetStats();
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int w = 0; w < kSessions; ++w) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(std::move(*session));
  }
  std::atomic<size_t> next{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kSessions; ++w) {
    threads.emplace_back([&, session = sessions[w].get()] {
      for (size_t i; (i = next.fetch_add(1)) < goals.size();) {
        if (!session->CountSolutions(goals[i]).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  EngineStats open = engine.Stats();
  EXPECT_EQ(open.machine.instructions, want_instructions);
  EXPECT_EQ(open.resolver.fact_calls, want_fact_calls);
  EXPECT_EQ(engine.QueryLatencyHistogram().count(), goals.size());
  sessions.clear();
  EngineStats closed = engine.Stats();
  EXPECT_EQ(closed.machine.instructions, want_instructions);
  EXPECT_EQ(closed.resolver.fact_calls, want_fact_calls);
  EXPECT_EQ(engine.QueryLatencyHistogram().count(), goals.size());
}

// Stats() and the latency histogram are read from another thread while 4
// sessions retire queries into them; under TSan this asserts the
// publishing path is race-free.
TEST(ParallelTest, StatsReadableWhileSessionsQuery) {
  Engine engine;
  constexpr int kRows = 30;
  ASSERT_TRUE(engine.DeclareRelation("item", 2).ok());
  ASSERT_TRUE(engine.StoreFactsExternal(ItemFacts(kRows)).ok());
  engine.ResetStats();

  constexpr int kSessions = 4;
  constexpr int kRounds = 40;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int w = 0; w < kSessions; ++w) {
    auto session = engine.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(std::move(*session));
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t calls = engine.Stats().resolver.fact_calls;
      const uint64_t samples = engine.QueryLatencyHistogram().count();
      if (calls < last || samples > kSessions * kRounds) ++failures;
      last = calls;
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kSessions; ++w) {
    workers.emplace_back([&, session = sessions[w].get()] {
      for (int round = 0; round < kRounds; ++round) {
        auto count = session->CountSolutions(
            "item(" + std::to_string(round % kRows) + ", Y)");
        if (!count.ok() || *count != 1u) ++failures;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.QueryLatencyHistogram().count(),
            static_cast<uint64_t>(kSessions * kRounds));
  EXPECT_EQ(engine.Stats().resolver.fact_calls,
            static_cast<uint64_t>(kSessions * kRounds));
}

}  // namespace
}  // namespace educe
