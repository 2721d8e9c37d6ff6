// Parallel query throughput over a shared EDB (DESIGN.md §10): worker
// sessions — each its own WAM machine + Program overlay — share one
// clause store, buffer pool, and code cache. The paper's system ran one
// OS process per user session with the EDB shared beneath (§2); this
// bench is that architecture in-process, measuring aggregate throughput
// at 1/2/4/8 workers on two workloads:
//   1. Wisconsin-style selections (rel-bench conventions) through the
//      Engine EDB: exact-match key selections plus 1%-selection rules.
//   2. The synthetic MVV workload (§5.1) with compiled external rules.
//
// Bars (abort on miss):
//   - every worker count produces the identical per-goal solution counts;
//   - 1 worker stays within 20% of the plain single-threaded query loop
//     (sessions must not tax the sequential path). The two are timed as
//     kOverheadPairs interleaved pairs, alternating which runs first, and
//     the bar reads the median of the per-pair ratios: a best-of-3 on
//     each side, taken minutes apart, read 0.96-1.23x on unchanged code;
//   - with >= 4 hardware cores, 4 workers deliver >= 3x the 1-worker
//     aggregate throughput on the Wisconsin selections. On smaller hosts
//     the speedup is reported but not enforced — there is nothing to
//     overlap onto.
//
// `bench_parallel --lock-profile` also turns the lock profiler on around
// the Wisconsin section and prints LockProfiler::ToJson after it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/stopwatch.h"
#include "bench/bench_util.h"
#include "educe/engine.h"
#include "obs/lock_profiler.h"
#include "workloads/mvv.h"

namespace educe {
namespace {

using bench::BenchJson;
using bench::Check;
using bench::CheckResult;
using bench::Ms;
using bench::Num;
using bench::Table;

constexpr int kWiscRows = 10000;
constexpr int kWiscSelections = 160;
constexpr int kWiscPctQueries = 40;
constexpr int kRepeats = 3;  // best-of, to tame scheduler noise
constexpr int kOverheadPairs = 7;  // direct loop vs 1 worker, interleaved
// Each section repeats its goal list so one rep runs >= 200 ms at 1
// worker: a rep of a few ms measures scheduler noise, not scaling.
constexpr int kWiscGoalRepeats = 14;
constexpr int kMvvGoalRepeats = 240;

/// Wisconsin-flavoured rows: wisc(Unique1, Unique2, Ten, OnePercent).
/// Unique1 is the clustering key (declared first key attribute), Unique2
/// a shuffled unique column, Ten = Unique1 mod 10, OnePercent =
/// Unique1 mod 100 — the columns the classic selection queries filter on.
std::string WisconsinFacts() {
  std::ostringstream out;
  uint64_t shuffle = 7919;  // odd => bijection mod kWiscRows
  for (int i = 0; i < kWiscRows; ++i) {
    const uint64_t unique2 = (i * shuffle + 13) % kWiscRows;
    out << "wisc(" << i << ", " << unique2 << ", " << i % 10 << ", "
        << i % 100 << ").\n";
  }
  return out.str();
}

/// `goals` concatenated `times` times.
std::vector<std::string> Repeated(const std::vector<std::string>& goals,
                                  int times) {
  std::vector<std::string> out;
  out.reserve(goals.size() * times);
  for (int i = 0; i < times; ++i) {
    out.insert(out.end(), goals.begin(), goals.end());
  }
  return out;
}

std::vector<std::string> WisconsinGoals() {
  std::vector<std::string> goals;
  goals.reserve(kWiscSelections + kWiscPctQueries);
  // Exact-match selections on the clustering key, spread over the table.
  for (int i = 0; i < kWiscSelections; ++i) {
    const int key = (i * 61) % kWiscRows;
    goals.push_back("wisc(" + std::to_string(key) + ", U, T, P)");
  }
  // 1% selections through a compiled external rule (100 rows each).
  for (int i = 0; i < kWiscPctQueries; ++i) {
    goals.push_back("one_pct(" + std::to_string(i % 100) + ", X)");
  }
  return Repeated(goals, kWiscGoalRepeats);
}

struct WorkerRun {
  double seconds = 0;             // best-of-kRepeats wall time
  std::vector<uint64_t> counts;   // per-goal solution counts
  uint64_t total_solutions = 0;
};

WorkerRun RunWorkers(Engine* engine, const std::vector<std::string>& goals,
                     uint32_t workers) {
  WorkerRun out;
  out.seconds = 1e100;
  for (int rep = 0; rep < kRepeats; ++rep) {
    base::Stopwatch watch;
    auto results =
        CheckResult(engine->SolveParallel(goals, workers), "SolveParallel");
    const double seconds = watch.ElapsedSeconds();
    std::vector<uint64_t> counts;
    counts.reserve(results.size());
    uint64_t total = 0;
    for (const SolveOutcome& outcome : results) {
      counts.push_back(outcome.count);
      total += outcome.count;
    }
    if (rep == 0) {
      out.counts = std::move(counts);
      out.total_solutions = total;
    } else if (counts != out.counts) {
      std::fprintf(stderr, "FATAL: solution counts changed between reps\n");
      std::abort();
    }
    out.seconds = std::min(out.seconds, seconds);
  }
  return out;
}

void RequireSameCounts(const WorkerRun& base, const WorkerRun& run,
                       const char* what) {
  if (base.counts != run.counts) {
    std::fprintf(stderr, "FATAL %s: solution sets differ across workers\n",
                 what);
    std::abort();
  }
}

struct SectionResult {
  double w4_speedup = 0;
  std::vector<std::pair<uint32_t, WorkerRun>> runs;
};

SectionResult RunSection(Engine* engine, const std::vector<std::string>& goals,
                         const char* title, Table* table) {
  SectionResult section;
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    WorkerRun run = RunWorkers(engine, goals, workers);
    if (!section.runs.empty()) {
      RequireSameCounts(section.runs.front().second, run, title);
    }
    const double throughput = goals.size() / run.seconds;
    const double speedup =
        section.runs.empty() ? 1.0 : section.runs.front().second.seconds /
                                         run.seconds;
    if (workers == 4) section.w4_speedup = speedup;
    char speedup_text[32], throughput_text[32];
    std::snprintf(speedup_text, sizeof(speedup_text), "%.2fx", speedup);
    std::snprintf(throughput_text, sizeof(throughput_text), "%.0f",
                  throughput);
    table->Row({std::string(title), Num(workers), Ms(run.seconds),
                throughput_text, speedup_text,
                Num(run.total_solutions)});
    section.runs.emplace_back(workers, std::move(run));
  }
  return section;
}

int Main(int argc, char** argv) {
  bool lock_profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--lock-profile") {
      std::fprintf(stderr, "usage: bench_parallel [--lock-profile]\n");
      return 2;
    }
    lock_profile = true;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("bench_parallel: %u hardware core(s)\n", cores);

  // --- Section 1: Wisconsin selections ----------------------------------
  Engine wisc_engine;
  Check(wisc_engine.DeclareRelation("wisc", 4, {0}), "declare wisc");
  Check(wisc_engine.StoreFactsExternal(WisconsinFacts()), "wisc facts");
  Check(wisc_engine.StoreRulesExternal(
            "one_pct(C, X) :- wisc(X, U, T, C)."),
        "one_pct rule");
  const std::vector<std::string> wisc_goals = WisconsinGoals();

  Table table("Parallel query throughput (worker sessions, shared EDB)");
  table.Header({"workload", "workers", "wall ms", "goals/s", "speedup",
                "solutions"});
  if (lock_profile) {
    obs::LockProfiler::Reset();
    obs::LockProfiler::SetEnabled(true);
  }
  SectionResult wisc =
      RunSection(&wisc_engine, wisc_goals, "wisconsin", &table);
  if (lock_profile) {
    obs::LockProfiler::SetEnabled(false);
    std::printf("lock profile (wisconsin section): %s\n",
                obs::LockProfiler::ToJson().c_str());
    // Keep a later FATAL on stderr from landing inside the JSON line.
    std::fflush(stdout);
  }
  // The single-threaded baseline is the plain engine query loop, no
  // sessions involved. Each pair times it and a 1-worker run back to
  // back, so host drift between pairs cancels in the pair's ratio.
  uint64_t direct_solutions = 0;
  auto time_direct = [&]() {
    base::Stopwatch watch;
    uint64_t total = 0;
    for (const std::string& goal : wisc_goals) {
      total += CheckResult(wisc_engine.CountSolutions(goal), goal.c_str());
    }
    direct_solutions = total;
    return watch.ElapsedSeconds();
  };
  auto time_one_worker = [&]() {
    base::Stopwatch watch;
    CheckResult(wisc_engine.SolveParallel(wisc_goals, 1), "SolveParallel");
    return watch.ElapsedSeconds();
  };
  std::vector<double> ratios, direct_times;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double direct = 0, one_worker = 0;
    if (pair % 2 == 0) {
      direct = time_direct();
      one_worker = time_one_worker();
    } else {
      one_worker = time_one_worker();
      direct = time_direct();
    }
    ratios.push_back(one_worker / direct);
    direct_times.push_back(direct);
  }
  if (wisc.runs.front().second.total_solutions != direct_solutions) {
    std::fprintf(stderr, "FATAL: session solutions != direct solutions\n");
    return 1;
  }
  std::string pair_ratios;
  for (double ratio : ratios) {
    char text[16];
    std::snprintf(text, sizeof(text), " %.3f", ratio);
    pair_ratios += text;
  }
  std::sort(ratios.begin(), ratios.end());
  std::sort(direct_times.begin(), direct_times.end());
  const double overhead = ratios[ratios.size() / 2];
  const double direct_seconds = direct_times[direct_times.size() / 2];

  // --- Section 2: MVV route queries, compiled external rules -------------
  EngineOptions mvv_options;
  mvv_options.rule_storage = RuleStorage::kCompiled;
  Engine mvv_engine(mvv_options);
  workloads::MvvWorkload mvv;
  Check(mvv.Setup(&mvv_engine, /*rules_external=*/true), "mvv setup");
  std::vector<std::string> mvv_round = mvv.class1_queries();
  for (const std::string& goal : mvv.class2_queries()) {
    mvv_round.push_back(goal);
  }
  const std::vector<std::string> mvv_goals =
      Repeated(mvv_round, kMvvGoalRepeats);
  SectionResult mvv_section =
      RunSection(&mvv_engine, mvv_goals, "mvv", &table);

  table.Print();

  std::printf("\n1-worker vs direct loop: %.3fx, the median of %d paired "
              "ratios (%s); direct loop median %.2f ms\n",
              overhead, kOverheadPairs, pair_ratios.c_str(),
              direct_seconds * 1e3);

  BenchJson json;
  json.Add("bench", std::string("parallel"));
  json.AddHostCores();
  json.AddToolchain();
  json.Add("wisc_goals", static_cast<uint64_t>(wisc_goals.size()));
  json.Add("wisc_direct_ms", direct_seconds * 1e3);
  json.Add("single_worker_overhead", overhead);
  for (const auto& [workers, run] : wisc.runs) {
    json.Add("wisc_w" + std::to_string(workers) + "_ms", run.seconds * 1e3);
  }
  json.Add("wisc_speedup_w4", wisc.w4_speedup);
  json.Add("mvv_goals", static_cast<uint64_t>(mvv_goals.size()));
  for (const auto& [workers, run] : mvv_section.runs) {
    json.Add("mvv_w" + std::to_string(workers) + "_ms", run.seconds * 1e3);
  }
  json.Add("mvv_speedup_w4", mvv_section.w4_speedup);
  json.Print();

  // --- Bars ---------------------------------------------------------------
  if (overhead > 1.20) {
    std::fprintf(stderr,
                 "FATAL: 1-worker session run is %.2fx the direct loop "
                 "(bar: 1.20x)\n",
                 overhead);
    return 1;
  }
  if (cores >= 4) {
    if (wisc.w4_speedup < 3.0) {
      std::fprintf(stderr,
                   "FATAL: 4-worker speedup %.2fx on wisconsin selections "
                   "(bar: 3.0x on >=4 cores)\n",
                   wisc.w4_speedup);
      return 1;
    }
  } else {
    std::printf(
        "NOTE: %u core(s) — 4-worker speedup %.2fx reported, 3.0x bar "
        "enforced only on >=4 cores\n",
        cores, wisc.w4_speedup);
  }
  std::printf("bench_parallel: OK\n");
  return 0;
}

}  // namespace
}  // namespace educe

int main(int argc, char** argv) { return educe::Main(argc, argv); }
