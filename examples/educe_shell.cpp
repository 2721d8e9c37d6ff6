// An interactive Educe* toplevel — the "session" the paper's kernel
// serves. Reads line-oriented input (works piped or interactive):
//
//   p(1).                      clauses consult into main memory
//   ?- p(X).                   queries print every solution
//   :facts  edge(a,b). ...     store ground facts in the EDB
//   :rules  r(X) :- edge(X,_). store rules in the EDB (compiled mode)
//   :workers N                 worker sessions for :par (default 1)
//   :par  g1(X). g2(Y). ...    run a goal batch across worker sessions
//   :stats                     engine counters + unified memory report
//   :profile on|off            toggle tracing + per-query cost profiles
//   :spans                     drain buffered trace spans as JSON
//   :locks [on|off]            toggle lock profiling / show the most
//                              contended lock sites (DESIGN.md §16)
//   :metrics                   full metrics document (ExportMetricsJson)
//   :strategy p/2 [mode]       inspect / force bottom-up Datalog per
//                              procedure (auto | wam | bottom-up)
//   :cold                      drop buffer cache AND code cache
//   :governor [rebalance]      memory-governor state; force a rebalance
//   :save                      checkpoint the database image now
//   :halt                      exit
//
//   $ printf 'p(1).\np(2).\n?- p(X).\n:halt\n' | ./examples/educe_shell
//
// With a path argument the session is persistent: an existing image at
// the path is attached (catalog, facts, rules),
// checkpointed on :save and written back on :halt:
//
//   $ ./examples/educe_shell /tmp/my.edb
//
// A numeric argument sets a shared memory budget (bytes) governed across
// the buffer pool and code cache (DESIGN.md §12); inspect with :governor:
//
//   $ ./examples/educe_shell /tmp/my.edb 4194304

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "educe/engine.h"

namespace {

void Report(const educe::base::Status& status) {
  if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
}

void RunQuery(educe::Engine* engine, const std::string& goal) {
  auto query = engine->Query(goal);
  if (!query.ok()) {
    Report(query.status());
    return;
  }
  int solutions = 0;
  while (solutions < 20) {
    auto more = (*query)->Next();
    if (!more.ok()) {
      Report(more.status());
      return;
    }
    if (!*more) break;
    ++solutions;
    const auto bindings = (*query)->All();
    if (bindings.empty()) {
      std::printf("true\n");
      break;  // ground query: one confirmation suffices
    }
    std::string line;
    for (const auto& [name, value] : bindings) {
      if (!line.empty()) line += ", ";
      line += name + " = " + value;
    }
    std::printf("%s ;\n", line.c_str());
  }
  if (solutions == 0) std::printf("false\n");
  else if (solutions == 20) std::printf("... (stopped after 20 solutions)\n");
}

// :locks — the top contended lock sites, worst first. Meaningful only in
// an EDUCE_LOCK_PROFILING build with the gate on; says so otherwise.
void PrintLocks() {
  if (!educe::obs::LockProfiler::compiled_in()) {
    std::printf("lock profiling not compiled in "
                "(configure with -DEDUCE_LOCK_PROFILING=ON)\n");
    return;
  }
  if (!educe::obs::LockProfiler::enabled()) {
    std::printf("lock profiling is off (':locks on' to enable)\n");
  }
  const auto sites = educe::obs::LockProfiler::TopContended(10);
  std::printf("%-24s %-22s %10s %10s %12s %12s\n", "site", "location",
              "acquires", "contended", "wait_ms", "hold_ms");
  for (const auto& s : sites) {
    std::printf("%-24s %-22s %10llu %10llu %12.3f %12.3f\n", s.name.c_str(),
                (s.file + ":" + std::to_string(s.line)).c_str(),
                static_cast<unsigned long long>(s.exclusive_acquires +
                                                s.shared_acquires),
                static_cast<unsigned long long>(s.contended),
                static_cast<double>(s.wait_total_ns()) / 1e6,
                static_cast<double>(s.hold_total_ns()) / 1e6);
  }
  if (sites.empty()) std::printf("(no lock sites recorded yet)\n");
}

void PrintStats(educe::Engine* engine) {
  const educe::EngineStats s = engine->Stats();
  std::printf(
      "machine: %llu instructions, %llu calls, %llu choice points, %llu "
      "gc runs (%llu cells)\n"
      "edb:     %llu facts stored, %llu rules stored, %llu fact rows "
      "fetched (%llu filtered in the page), %llu clauses decoded\n"
      "disc:    %llu pages read, %llu written; buffer %llu hits / %llu "
      "misses\n"
      "cache:   %llu hits / %llu misses, %llu invalidations, %llu entries "
      "(%llu bytes)\n",
      static_cast<unsigned long long>(s.machine.instructions),
      static_cast<unsigned long long>(s.machine.calls),
      static_cast<unsigned long long>(s.machine.choice_points),
      static_cast<unsigned long long>(s.machine.gc_runs),
      static_cast<unsigned long long>(s.machine.cells_collected),
      static_cast<unsigned long long>(s.clause_store.facts_stored),
      static_cast<unsigned long long>(s.clause_store.rules_stored),
      static_cast<unsigned long long>(s.clause_store.fact_rows_fetched),
      static_cast<unsigned long long>(s.clause_store.fact_rows_filtered),
      static_cast<unsigned long long>(s.loader.clauses_decoded),
      static_cast<unsigned long long>(s.paged_file.pages_read),
      static_cast<unsigned long long>(s.paged_file.pages_written),
      static_cast<unsigned long long>(s.buffer_pool.hits),
      static_cast<unsigned long long>(s.buffer_pool.misses),
      static_cast<unsigned long long>(s.code_cache.hits),
      static_cast<unsigned long long>(s.code_cache.misses),
      static_cast<unsigned long long>(s.code_cache.invalidations),
      static_cast<unsigned long long>(s.code_cache.entries),
      static_cast<unsigned long long>(s.code_cache.bytes_resident));
  // The unified memory report: both in-memory consumers side by side.
  std::printf(
      "memory:  buffer pool %llu / %llu bytes resident, code cache %llu / "
      "%llu bytes, paged file %llu bytes\n"
      "         cache shard skew %llu max / %llu min bytes\n",
      static_cast<unsigned long long>(s.memory.buffer_resident_bytes),
      static_cast<unsigned long long>(s.memory.buffer_capacity_bytes),
      static_cast<unsigned long long>(s.memory.code_cache_resident_bytes),
      static_cast<unsigned long long>(s.memory.code_cache_capacity_bytes),
      static_cast<unsigned long long>(s.memory.paged_file_bytes),
      static_cast<unsigned long long>(s.memory.code_cache_shard_max_bytes),
      static_cast<unsigned long long>(s.memory.code_cache_shard_min_bytes));
  // Query-latency percentiles (nanoseconds) from the always-on histogram.
  const educe::obs::Histogram latency = engine->QueryLatencyHistogram();
  if (latency.count() > 0) {
    std::printf(
        "latency: %llu queries, p50 %llu ns, p95 %llu ns, p99 %llu ns, "
        "max %llu ns\n",
        static_cast<unsigned long long>(latency.count()),
        static_cast<unsigned long long>(latency.Percentile(50)),
        static_cast<unsigned long long>(latency.Percentile(95)),
        static_cast<unsigned long long>(latency.Percentile(99)),
        static_cast<unsigned long long>(latency.max()));
  }
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Runs a '.'-separated goal batch across `workers` sessions and prints
/// each goal's solutions (DESIGN.md §10: the paper's concurrent user
/// sessions over one shared EDB, driven from a single toplevel).
void RunParallel(educe::Engine* engine, const std::string& batch,
                 uint32_t workers) {
  std::vector<std::string> goals;
  std::string current;
  for (char c : batch) {
    if (c == '.') {
      const std::string goal = Trim(current);
      if (!goal.empty()) goals.push_back(goal);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!Trim(current).empty()) goals.push_back(Trim(current));
  if (goals.empty()) {
    std::printf("usage: :par goal1. goal2. ...\n");
    return;
  }
  auto results =
      engine->SolveParallel(goals, workers, /*collect_bindings=*/true);
  if (!results.ok()) {
    Report(results.status());
    return;
  }
  for (size_t i = 0; i < goals.size(); ++i) {
    const educe::SolveOutcome& outcome = (*results)[i];
    std::printf("%s: %llu solution(s)\n", goals[i].c_str(),
                static_cast<unsigned long long>(outcome.count));
    size_t shown = 0;
    for (const std::string& row : outcome.rows) {
      if (shown++ == 5) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  %s\n", row.empty() ? "true" : row.c_str());
    }
  }
}

/// Prints the governor's budget, current split and recent decisions.
void PrintWal(educe::Engine* engine) {
  if (engine->wal() == nullptr) {
    std::printf("wal: off (no db path, or wal=false)\n");
    return;
  }
  const educe::EngineStats s = engine->Stats();
  std::printf(
      "wal:     lsn %llu appended / %llu durable, %llu records replayed "
      "at boot\n"
      "         %llu records (%llu bytes) appended, %llu commits "
      "(%llu grouped), %llu fsyncs\n"
      "         %llu file bytes, %llu torn bytes dropped\n",
      static_cast<unsigned long long>(s.wal_last_lsn),
      static_cast<unsigned long long>(s.wal_durable_lsn),
      static_cast<unsigned long long>(s.wal_records_replayed),
      static_cast<unsigned long long>(s.wal.records_appended),
      static_cast<unsigned long long>(s.wal.bytes_appended),
      static_cast<unsigned long long>(s.wal.commits),
      static_cast<unsigned long long>(s.wal.group_commits),
      static_cast<unsigned long long>(s.wal.fsyncs),
      static_cast<unsigned long long>(s.memory.wal_file_bytes),
      static_cast<unsigned long long>(s.wal.torn_bytes_dropped));
}

void PrintGovernor(educe::Engine* engine) {
  educe::MemoryGovernor* governor = engine->governor();
  if (governor == nullptr) {
    std::printf("no memory governor (start with a budget argument)\n");
    return;
  }
  const educe::MemoryGovernor::Split split = governor->CurrentSplit();
  std::printf(
      "governor: budget %llu bytes -> pool %llu, cache %llu; %llu "
      "decision(s), %llu moved bytes\n",
      static_cast<unsigned long long>(governor->budget_bytes()),
      static_cast<unsigned long long>(split.pool_bytes),
      static_cast<unsigned long long>(split.cache_bytes),
      static_cast<unsigned long long>(governor->decisions()),
      static_cast<unsigned long long>(governor->rebalances()));
  for (const educe::GovernorDecision& d : governor->RecentDecisions()) {
    std::printf("  #%llu: pool %.4f ns/B vs cache %.4f ns/B -> moved %lld "
                "(pool %llu / cache %llu)\n",
                static_cast<unsigned long long>(d.seq),
                d.pool_benefit_ns_per_byte, d.cache_benefit_ns_per_byte,
                static_cast<long long>(d.bytes_moved),
                static_cast<unsigned long long>(d.pool_target_bytes),
                static_cast<unsigned long long>(d.cache_target_bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  educe::EngineOptions options;
  for (int i = 1; i < argc; ++i) {
    // A pure number is a memory budget in bytes; anything else is the
    // database image path.
    const std::string arg = argv[i];
    if (!arg.empty() && arg.find_first_not_of("0123456789") == std::string::npos) {
      options.memory_budget_bytes = std::strtoull(arg.c_str(), nullptr, 10);
    } else {
      options.db_path = arg;
    }
  }
  // The shell enables the bottom-up Datalog mode so :strategy has teeth;
  // the default kAuto policy only reroutes recursive Datalog-range
  // procedures, everything else runs on the WAM as before.
  options.datalog = true;
  educe::Engine engine(options);
  std::printf("Educe* shell — clauses consult; '?- Goal.' queries; "
              ":facts/:rules store to the EDB; :workers N; :par goals; "
              ":load file; :stats; :profile on|off; :spans; :locks; :metrics; "
              ":wal; "
              ":strategy name/arity [mode]; :cold; :governor; :save; "
              ":halt\n");
  if (!options.db_path.empty()) {
    if (engine.attached()) {
      std::printf("attached %s\n", options.db_path.c_str());
    } else {
      std::printf("fresh database at %s\n", options.db_path.c_str());
    }
    Report(engine.open_status());
  }

  std::string line;
  std::string pending;   // clause text may span lines until a '.'
  uint32_t workers = 1;  // :workers N — session count for :par batches
  while (true) {
    std::printf(pending.empty() ? "educe> " : "     > ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;

    if (pending.empty() && trimmed[0] == ':') {
      std::istringstream words(trimmed);
      std::string command;
      words >> command;
      std::string rest;
      std::getline(words, rest);
      if (command == ":halt" || command == ":quit") break;
      if (command == ":load") {
        Report(engine.ConsultFile(Trim(rest)));
        continue;
      }
      if (command == ":stats") {
        PrintStats(&engine);
      } else if (command == ":profile") {
        const std::string arg = Trim(rest);
        if (arg == "on" || arg == "off") {
          engine.SetProfiling(arg == "on");
          std::printf("profiling %s\n", arg.c_str());
        } else {
          std::printf("usage: :profile on|off\n");
        }
      } else if (command == ":spans") {
        std::printf("%s\n", engine.DrainSpansJson().c_str());
      } else if (command == ":locks") {
        const std::string arg = Trim(rest);
        if (arg == "on" || arg == "off") {
          educe::obs::LockProfiler::SetEnabled(arg == "on");
          std::printf("lock profiling %s%s\n", arg.c_str(),
                      educe::obs::LockProfiler::compiled_in()
                          ? ""
                          : " (no effect: not compiled in)");
        } else {
          PrintLocks();
        }
      } else if (command == ":metrics") {
        std::printf("%s\n", engine.ExportMetricsJson().c_str());
      } else if (command == ":wal") {
        PrintWal(&engine);
      } else if (command == ":cold") {
        Report(engine.ResetBufferCache(/*drop_code_cache=*/true));
        std::printf("buffer cache and code cache dropped\n");
      } else if (command == ":governor") {
        if (Trim(rest) == "rebalance") {
          if (engine.governor() != nullptr) engine.governor()->ForceRebalance();
        }
        PrintGovernor(&engine);
      } else if (command == ":save") {
        // Checkpoint, not Close: the session stays live and later
        // mutations are covered by the next :save / :halt.
        Report(engine.Checkpoint());
      } else if (command == ":facts") {
        Report(engine.StoreFactsExternal(rest));
      } else if (command == ":rules") {
        Report(engine.StoreRulesExternal(rest));
      } else if (command == ":workers") {
        const int n = std::atoi(Trim(rest).c_str());
        if (n < 1) {
          std::printf("usage: :workers N (N >= 1)\n");
        } else {
          workers = static_cast<uint32_t>(n);
          std::printf("parallel batches now use %u worker session(s)\n",
                      workers);
        }
      } else if (command == ":par") {
        RunParallel(&engine, rest, workers);
      } else if (command == ":strategy") {
        // :strategy name/arity [auto|wam|bottom-up] — inspect or force
        // the evaluation strategy of one procedure (DESIGN.md §15).
        std::istringstream args(Trim(rest));
        std::string spec, mode;
        args >> spec >> mode;
        const size_t slash = spec.rfind('/');
        int arity = -1;
        if (slash != std::string::npos) {
          arity = std::atoi(spec.substr(slash + 1).c_str());
        }
        if (spec.empty() || slash == 0 || slash == std::string::npos ||
            arity < 0) {
          std::printf("usage: :strategy name/arity [auto|wam|bottom-up]\n");
        } else {
          const std::string name = spec.substr(0, slash);
          const uint32_t a = static_cast<uint32_t>(arity);
          if (mode.empty()) {
            std::printf("%s\n",
                        engine.datalog_manager()->Describe(name, a).c_str());
          } else if (mode == "auto" || mode == "wam" || mode == "bottom-up") {
            const educe::DatalogStrategy strategy =
                mode == "auto" ? educe::DatalogStrategy::kAuto
                : mode == "wam" ? educe::DatalogStrategy::kWam
                                : educe::DatalogStrategy::kBottomUp;
            engine.datalog_manager()->SetStrategy(name, a, strategy);
            std::printf("%s\n",
                        engine.datalog_manager()->Describe(name, a).c_str());
          } else {
            std::printf("usage: :strategy name/arity [auto|wam|bottom-up]\n");
          }
        }
      } else {
        std::printf("unknown command %s\n", command.c_str());
      }
      continue;
    }

    pending += line + "\n";
    // A '.' at end of line terminates the clause/query.
    if (trimmed.back() != '.') continue;
    std::string input = pending;
    pending.clear();

    const std::string t = Trim(input);
    if (t.rfind("?-", 0) == 0) {
      std::string goal = Trim(t.substr(2));
      if (!goal.empty() && goal.back() == '.') goal.pop_back();
      RunQuery(&engine, goal);
    } else {
      Report(engine.Consult(input));
    }
  }
  if (!engine.options().db_path.empty()) {
    Report(engine.Close());
  }
  std::printf("\nbye.\n");
  return 0;
}
