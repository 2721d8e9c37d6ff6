// Crash-recovery drill: the out-of-process half of the CI recovery
// gauntlet (DESIGN.md §17.5; tests/recovery_test.cc is the in-process
// twin). Two modes over the same database path:
//
//   recovery_drill crash <db> <n_ops> [batch]
//       Opens <db> and stores n_ops drill(I, 2I, tagI) facts, `batch`
//       (default 1) per StoreFactsExternal call, appending each index of
//       a call to <db>.ack — written and fsynced only AFTER the call
//       returned, so an acked line is a durability claim. Each run
//       stores its own index range (run r stores r*n_ops ..
//       r*n_ops + n_ops - 1) and opens it with a "#run <first> <n_ops>
//       <batch>" line. A checkpoint fires before the call holding the
//       run's middle fact. Run it under EDUCE_FAULT_POINT=
//       "<site>:kill:<n>" and the process dies mid-I/O at the chosen
//       point (exit 137); without a fault armed it completes and exits 0.
//
//   recovery_drill verify <db>
//       Reopens <db> (recovery runs in the constructor), then checks
//       the contract: every recovered row is intact and unique, every
//       acked fact is present, and each run's rows are a prefix of what
//       it stored that runs at most one batch past its acks — the
//       in-flight call's rows, logged but not acked when the process
//       died. Exits 0 on success, 1 on any lost ack or torn state.
//
// The CI gauntlet loops: crash (killed at site S, op N) -> verify ->
// next (S, N). A verify failure is a durability bug, never flake.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "educe/engine.h"

namespace {

std::string AckPath(const std::string& db) { return db + ".ack"; }

std::string Fact(long i) {
  // The atom argument drags the external dictionary into the blast
  // radius: its entry is WAL-logged (kWalDictEntry) ahead of the row,
  // and verify fails on NotFound if recovery drops it.
  return "drill(" + std::to_string(i) + ", " + std::to_string(2 * i) +
         ", tag" + std::to_string(i) + ").";
}

/// One crash invocation as recorded in the ack file.
struct Run {
  long first = 0;  // index of the run's first fact
  long n_ops = 0;
  long batch = 1;
  std::vector<long> acked;  // in ack order
};

std::vector<Run> ReadRuns(const std::string& db) {
  std::vector<Run> runs;
  FILE* f = std::fopen(AckPath(db).c_str(), "r");
  if (f == nullptr) return runs;  // died before the first marker: fine
  char buf[96];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    // A kill mid-ack can tear the final line; only full lines count
    // (a torn ack was never a completed durability claim).
    if (std::strchr(buf, '\n') == nullptr) continue;
    if (buf[0] == '#') {
      Run run;
      if (std::sscanf(buf, "#run %ld %ld %ld", &run.first, &run.n_ops,
                      &run.batch) == 3) {
        runs.push_back(run);
      }
    } else if (!runs.empty()) {
      runs.back().acked.push_back(std::atol(buf));
    }
  }
  std::fclose(f);
  return runs;
}

bool WriteAndSync(int fd, const std::string& bytes) {
  return ::write(fd, bytes.data(), bytes.size()) ==
             static_cast<ssize_t>(bytes.size()) &&
         ::fsync(fd) == 0;
}

int RunCrash(const std::string& db, long n_ops, long batch) {
  // Runs store disjoint index ranges, so verify can tell which run (and
  // which of its calls) a recovered row came from.
  const long first = static_cast<long>(ReadRuns(db).size()) * n_ops;
  educe::EngineOptions options;
  options.db_path = db;
  educe::Engine engine(options);
  if (!engine.open_status().ok()) {
    std::fprintf(stderr, "crash: open failed: %s\n",
                 engine.open_status().ToString().c_str());
    return 1;
  }
  // O_APPEND + fsync per ack: the ack file itself must survive the very
  // kill -9 it is a witness for.
  const int ack_fd = ::open(AckPath(db).c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ack_fd < 0) {
    std::fprintf(stderr, "crash: cannot open ack file\n");
    return 1;
  }
  if (!WriteAndSync(ack_fd, "#run " + std::to_string(first) + " " +
                                std::to_string(n_ops) + " " +
                                std::to_string(batch) + "\n")) {
    std::fprintf(stderr, "crash: ack marker write failed\n");
    return 1;
  }
  for (long start = 0; start < n_ops; start += batch) {
    const long end = std::min(start + batch, n_ops);
    if (start <= n_ops / 2 && n_ops / 2 < end) {
      // Mid-run checkpoint: puts the image-save and WAL-reset paths in
      // the fault's blast radius, with live state on both sides of it.
      const educe::base::Status ck = engine.Checkpoint();
      if (!ck.ok()) {
        std::fprintf(stderr, "crash: checkpoint failed: %s\n",
                     ck.ToString().c_str());
        return 1;
      }
    }
    std::string facts;
    std::string acks;
    for (long i = first + start; i < first + end; ++i) {
      facts += Fact(i) + "\n";
      acks += std::to_string(i) + "\n";
    }
    const educe::base::Status stored = engine.StoreFactsExternal(facts);
    if (!stored.ok()) {
      std::fprintf(stderr, "crash: store %ld..%ld failed: %s\n",
                   first + start, first + end - 1, stored.ToString().c_str());
      return 1;
    }
    if (!WriteAndSync(ack_fd, acks)) {
      std::fprintf(stderr, "crash: ack write failed at %ld\n", first + start);
      return 1;
    }
  }
  ::close(ack_fd);
  const educe::base::Status closed = engine.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "crash: close failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  std::printf("crash: completed %ld ops in batches of %ld without dying\n",
              n_ops, batch);
  return 0;
}

int RunVerify(const std::string& db) {
  const std::vector<Run> runs = ReadRuns(db);
  educe::EngineOptions options;
  options.db_path = db;
  educe::Engine engine(options);
  if (!engine.open_status().ok()) {
    std::fprintf(stderr, "verify: recovery failed: %s\n",
                 engine.open_status().ToString().c_str());
    return 1;
  }
  // Every recovered row, by index; each must be intact and unique.
  std::set<long> rows;
  if (engine.clause_store()->Find("drill", 3) != nullptr) {
    auto solutions = engine.Query("drill(I, X, T)");
    if (!solutions.ok()) {
      std::fprintf(stderr, "verify: scan failed: %s\n",
                   solutions.status().ToString().c_str());
      return 1;
    }
    while (true) {
      auto more = (*solutions)->Next();
      if (!more.ok()) {
        std::fprintf(stderr, "verify: scan failed: %s\n",
                     more.status().ToString().c_str());
        return 1;
      }
      if (!*more) break;
      const long i = std::atol((*solutions)->Binding("I").c_str());
      const std::string x = (*solutions)->Binding("X");
      const std::string t = (*solutions)->Binding("T");
      if (x != std::to_string(2 * i) || t != "tag" + std::to_string(i)) {
        std::fprintf(stderr, "verify: fact %ld torn: X=%s T=%s\n", i,
                     x.c_str(), t.c_str());
        return 1;
      }
      if (!rows.insert(i).second) {
        std::fprintf(stderr, "verify: fact %ld recovered twice\n", i);
        return 1;
      }
    }
  }
  size_t acked_total = 0;
  size_t rows_in_runs = 0;
  for (const Run& run : runs) {
    // The run's recovered rows must be a prefix of what it stored.
    long present = 0;
    while (present < run.n_ops && rows.count(run.first + present) != 0) {
      ++present;
    }
    const auto past_gap = rows.lower_bound(run.first + present);
    if (past_gap != rows.end() && *past_gap < run.first + run.n_ops) {
      std::fprintf(stderr,
                   "verify: run from %ld recovered fact %ld past a gap at "
                   "%ld\n",
                   run.first, *past_gap, run.first + present);
      return 1;
    }
    for (const long i : run.acked) {
      if (i < run.first || i >= run.first + present) {
        std::fprintf(stderr, "verify: acked fact %ld LOST\n", i);
        return 1;
      }
    }
    // Beyond the acks, only the in-flight call's rows may have landed.
    const long surplus = present - static_cast<long>(run.acked.size());
    if (surplus > run.batch) {
      std::fprintf(stderr,
                   "verify: run from %ld recovered %ld rows for %zu acks "
                   "(batch %ld)\n",
                   run.first, present, run.acked.size(), run.batch);
      return 1;
    }
    acked_total += run.acked.size();
    rows_in_runs += static_cast<size_t>(present);
  }
  if (rows_in_runs != rows.size()) {
    std::fprintf(stderr, "verify: %zu recovered rows belong to no run\n",
                 rows.size() - rows_in_runs);
    return 1;
  }
  std::printf("verify: OK — %zu acked facts recovered, %zu rows total over "
              "%zu runs (%llu WAL records replayed)\n",
              acked_total, rows.size(), runs.size(),
              static_cast<unsigned long long>(
                  engine.Stats().wal_records_replayed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "crash") {
    const long n_ops = argc >= 4 ? std::atol(argv[3]) : 120;
    const long batch = argc >= 5 ? std::atol(argv[4]) : 1;
    return RunCrash(argv[2], n_ops > 0 ? n_ops : 120, batch > 0 ? batch : 1);
  }
  if (argc >= 3 && std::string(argv[1]) == "verify") {
    return RunVerify(argv[2]);
  }
  std::fprintf(stderr,
               "usage: recovery_drill crash <db> [n_ops [batch]]\n"
               "       recovery_drill verify <db>\n"
               "Arm a crash with EDUCE_FAULT_POINT=\"<site>:kill:<n>\" "
               "(sites: wal_append, wal_fsync, image_page_write, "
               "checkpoint).\n");
  return 2;
}
