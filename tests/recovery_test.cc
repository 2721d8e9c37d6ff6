// Crash-recovery tests (DESIGN.md §17): kill -9 at every durability fault
// site, in-process injected I/O failures, and concurrent mutation under
// live reader sessions. The fork-based matrix is the in-repo twin of the
// CI recovery gauntlet (examples/recovery_drill.cpp drives the same
// protocol across processes).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "base/hash.h"
#include "educe/engine.h"
#include "storage/io_util.h"
#include "storage/paged_file.h"
#include "storage/wal.h"

namespace educe {
namespace {

std::string TempDbPath(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("educe_recovery_" + name + ".edb"))
          .string();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

void RemoveDb(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

std::string Fact(int i) {
  // The atom argument is load-bearing: its external-dictionary entry
  // must survive the crash alongside the row embedding its hash
  // (kWalDictEntry), or the recovered fact decodes to NotFound.
  return "r(" + std::to_string(i) + ", " + std::to_string(2 * i) + ", tag" +
         std::to_string(i) + ").";
}

/// Forks a child that stores facts one by one, acking each *returned*
/// store over a pipe, with `action` armed against the `nth` I/O at
/// `site`; a Checkpoint() fires mid-run so checkpoint-path sites get
/// exercised under a half-built image. Returns the acked indices (the
/// child's death closes the pipe). The contract under test: an acked
/// fact is durable, no matter where the process died.
std::vector<int> RunCrashChild(const std::string& path, const char* site,
                               uint64_t nth) {
  int pipefd[2];
  EXPECT_EQ(pipe(pipefd), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    close(pipefd[0]);
    storage::fault::Arm(site, storage::fault::Action::kKill, nth);
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    for (int32_t i = 0; i < 120; ++i) {
      if (i == 60) (void)engine.Checkpoint();
      if (!engine.StoreFactsExternal(Fact(i)).ok()) break;
      // Ack only after the store returned: StoreFactsExternal commits
      // (fsyncs) the record before returning, so an acked fact claims
      // durability and recovery must honour it.
      if (write(pipefd[1], &i, sizeof(i)) != sizeof(i)) break;
    }
    // The armed kill should have ended the process already; exiting
    // without Close() models losing the race to a crash anyway.
    _exit(0);
  }
  close(pipefd[1]);
  std::vector<int> acked;
  int32_t v = 0;
  while (read(pipefd[0], &v, sizeof(v)) == static_cast<ssize_t>(sizeof(v))) {
    acked.push_back(v);
  }
  close(pipefd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return acked;
}

void VerifyRecovered(const std::string& path, const std::vector<int>& acked) {
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  // The image may be absent (death before the first completed
  // checkpoint) or stale; either way open_status stays OK — a torn WAL
  // tail is expected, not an error.
  EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
  for (int i : acked) {
    auto first = engine.First("r(" + std::to_string(i) + ", X, T)");
    ASSERT_TRUE(first.ok()) << "acked fact " << i
                            << " lost after recovery: " << first.status();
    EXPECT_EQ((*first)["X"], std::to_string(2 * i)) << "fact " << i;
    EXPECT_EQ((*first)["T"], "tag" + std::to_string(i)) << "fact " << i;
  }
  // No torn surplus: at most the single in-flight fact beyond the acks
  // may have landed (logged but not yet acked when the process died).
  auto total = engine.CountSolutions("r(I, X, T)");
  if (!total.ok()) {
    // r/2 can only be missing if the child died before even its declare
    // record reached the log — legal only when nothing was acked.
    EXPECT_TRUE(acked.empty()) << total.status();
    return;
  }
  EXPECT_GE(*total, acked.size());
  EXPECT_LE(*total, acked.size() + 1);
}

// The site is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put a per-build value into
// the registered test name.
class RecoveryGauntletTest : public ::testing::TestWithParam<
                                 std::pair<std::string, uint64_t>> {};

TEST_P(RecoveryGauntletTest, Kill9LosesNoAckedFact) {
  const auto& [site, nth] = GetParam();
  const std::string path =
      TempDbPath("kill_" + site + "_" + std::to_string(nth));
  const std::vector<int> acked = RunCrashChild(path, site.c_str(), nth);
  VerifyRecovered(path, acked);
  RemoveDb(path);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, RecoveryGauntletTest,
    ::testing::Values(std::make_pair(std::string("wal_append"), uint64_t{1}),
                      std::make_pair(std::string("wal_append"), uint64_t{7}),
                      std::make_pair(std::string("wal_append"), uint64_t{64}),
                      std::make_pair(std::string("wal_fsync"), uint64_t{1}),
                      std::make_pair(std::string("wal_fsync"), uint64_t{9}),
                      std::make_pair(std::string("image_page_write"),
                                     uint64_t{1}),
                      std::make_pair(std::string("image_page_write"),
                                     uint64_t{5}),
                      std::make_pair(std::string("checkpoint"), uint64_t{1})),
    [](const auto& info) {
      return info.param.first + "_n" + std::to_string(info.param.second);
    });

TEST(RecoveryTest, KillDuringCloseRecoversFromWal) {
  const std::string path = TempDbPath("kill_close");
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    close(pipefd[0]);
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    int32_t stored = 0;
    for (; stored < 20; ++stored) {
      if (!engine.StoreFactsExternal(Fact(stored)).ok()) break;
    }
    (void)write(pipefd[1], &stored, sizeof(stored));
    // Die inside Close()'s image save: the old image (none) must stay
    // authoritative and the WAL must carry everything.
    storage::fault::Arm("image_page_write", storage::fault::Action::kKill, 2);
    (void)engine.Close();
    _exit(0);
  }
  close(pipefd[1]);
  int32_t stored = 0;
  ASSERT_EQ(read(pipefd[0], &stored, sizeof(stored)),
            static_cast<ssize_t>(sizeof(stored)));
  close(pipefd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 137)
      << "child did not die at the armed fault";

  std::vector<int> acked(stored);
  for (int i = 0; i < stored; ++i) acked[i] = i;
  VerifyRecovered(path, acked);
  RemoveDb(path);
}

TEST(RecoveryTest, InjectedAppendFailureLeavesEngineConsistent) {
  const std::string path = TempDbPath("append_fail");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreFactsExternal("r(1, 2).").ok());
  // Log-before-update: a failed append must leave the relation untouched.
  storage::fault::Arm("wal_append", storage::fault::Action::kFail, 1);
  EXPECT_FALSE(engine.StoreFactsExternal("r(3, 6).").ok());
  storage::fault::Disarm();
  auto count = engine.CountSolutions("r(I, X)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  // The engine (and its log) stay usable after the failure.
  ASSERT_TRUE(engine.StoreFactsExternal("r(5, 10).").ok());
  ASSERT_TRUE(engine.Close().ok());
  {
    Engine reopened(options);
    auto after = reopened.CountSolutions("r(I, X)");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, 2u);
  }
  RemoveDb(path);
}

TEST(RecoveryTest, InjectedFsyncFailureSurfacesOnCommit) {
  const std::string path = TempDbPath("fsync_fail");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  storage::fault::Arm("wal_fsync", storage::fault::Action::kFail, 1);
  const base::Status st = engine.StoreFactsExternal("r(1, 2).");
  storage::fault::Disarm();
  EXPECT_FALSE(st.ok()) << "a commit whose fsync failed must not claim "
                           "durability";
  RemoveDb(path);
}

TEST(RecoveryTest, EintrDuringWalAppendIsAbsorbed) {
  const std::string path = TempDbPath("eintr");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  storage::fault::Arm("wal_append", storage::fault::Action::kEintr, 1);
  EXPECT_TRUE(engine.StoreFactsExternal("r(1, 2).").ok());
  EXPECT_EQ(storage::fault::triggered(), 1u);
  storage::fault::Disarm();
  ASSERT_TRUE(engine.Close().ok());
  RemoveDb(path);
}

TEST(RecoveryTest, ShortWriteDuringWalAppendIsCompleted) {
  const std::string path = TempDbPath("short");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  storage::fault::Arm("wal_append", storage::fault::Action::kShort, 1);
  EXPECT_TRUE(engine.StoreFactsExternal("r(1, 2).").ok());
  EXPECT_EQ(storage::fault::triggered(), 1u);
  storage::fault::Disarm();
  // The completed frame must be intact, not torn at the short boundary.
  {
    EngineOptions reopen = options;
    Engine recovered(reopen);
    auto count = recovered.CountSolutions("r(I, X)");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1u);
  }
  RemoveDb(path);
}

TEST(RecoveryTest, ConcurrentWritersAndReadersWithOnlineCheckpoint) {
  const std::string path = TempDbPath("concurrent");
  EngineOptions options;
  options.db_path = path;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 120;
  {
    Engine engine(options);
    // Pre-declare so concurrent first-use auto-declares cannot race.
    ASSERT_TRUE(engine.DeclareRelation("w", 2).ok());
    ASSERT_TRUE(engine.StoreFactsExternal("w(99, 0).").ok());

    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < kWriters + kReaders; ++i) {
      auto session = engine.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status();
      sessions.push_back(std::move(session).value());
    }
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Session* session = sessions[w].get();
        for (int i = 0; i < kPerWriter; ++i) {
          auto ok = session->Succeeds("edb_assert(w(" + std::to_string(w) +
                                      ", " + std::to_string(i) + "))");
          if (!ok.ok() || !*ok) ++errors;
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        Session* session = sessions[kWriters + r].get();
        uint64_t last = 0;
        for (int i = 0; i < 40; ++i) {
          auto count = session->CountSolutions("w(I, X)");
          if (!count.ok()) {
            ++errors;
            return;
          }
          // Visibility is monotone: a later scan can never see fewer
          // committed facts than an earlier one.
          if (*count < last) ++errors;
          last = *count;
        }
      });
    }
    // An online checkpoint lands mid-stampede: it must neither deadlock
    // with the writers nor tear the image.
    base::Status checkpointed = engine.Checkpoint();
    EXPECT_TRUE(checkpointed.ok()) << checkpointed;
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(errors.load(), 0);
    sessions.clear();
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    Engine reopened(options);
    EXPECT_TRUE(reopened.open_status().ok()) << reopened.open_status();
    for (int w = 0; w < kWriters; ++w) {
      auto count =
          reopened.CountSolutions("w(" + std::to_string(w) + ", X)");
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, static_cast<uint64_t>(kPerWriter)) << "writer " << w;
    }
    auto total = reopened.CountSolutions("w(I, X)");
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(*total, static_cast<uint64_t>(kWriters * kPerWriter + 1));
  }
  RemoveDb(path);
}

TEST(RecoveryTest, RejectedDeclareDoesNotWedgeRecovery) {
  const std::string path = TempDbPath("bad_declare");
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    close(pipefd[0]);
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    int32_t ok = 0;
    // A declare rejected for validation must leave no WAL record:
    // replay tolerates only AlreadyExists, so a logged-then-refused
    // declare would corrupt every recovery after this child dies.
    if (engine.StoreFactsExternal(Fact(0)).ok() &&
        !engine.DeclareRelation("bad", 3, {9}).ok() &&  // attr out of range
        !engine
             .DeclareRelation("wide", 20,
                              {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                               14, 15, 16})
             .ok() &&  // >16 key attrs
        engine.StoreFactsExternal(Fact(1)).ok()) {
      ok = 1;
    }
    (void)write(pipefd[1], &ok, sizeof(ok));
    _exit(0);  // die without Close(): recovery must replay the log
  }
  close(pipefd[1]);
  int32_t child_ok = 0;
  ASSERT_EQ(read(pipefd[0], &child_ok, sizeof(child_ok)),
            static_cast<ssize_t>(sizeof(child_ok)));
  close(pipefd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_EQ(child_ok, 1) << "child scenario did not run as scripted";
  VerifyRecovered(path, {0, 1});
  RemoveDb(path);
}

TEST(RecoveryTest, V1SuperblockImageOpensWithZeroWatermark) {
  const std::string path = TempDbPath("v1_super");
  EngineOptions options;
  options.db_path = path;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.StoreFactsExternal("r(1, 2, tag1).").ok());
    ASSERT_TRUE(engine.Close().ok());
  }
  // Downgrade the image's superblock to the pre-WAL v1 layout (44
  // bytes: no wal_lsn, checksum over the first 36 at offset 36), as a
  // database written before the log format existed would carry.
  {
    storage::PagedFile file;
    ASSERT_TRUE(file.LoadImage(path).ok());
    std::vector<char> page(file.page_size());
    ASSERT_TRUE(file.Read(0, page.data()).ok());
    const uint32_t v1 = 1;
    std::memcpy(page.data() + 8, &v1, 4);
    const uint64_t checksum =
        base::Fnv1a64(std::string_view(page.data(), 36));
    std::memcpy(page.data() + 36, &checksum, 8);
    std::memset(page.data() + 44, 0, 8);  // stale v2 checksum bytes
    ASSERT_TRUE(file.Write(0, page.data()).ok());
    ASSERT_TRUE(file.SaveImage(path).ok());
  }
  std::remove((path + ".wal").c_str());  // pre-WAL databases have no log
  {
    Engine engine(options);
    EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
    auto count = engine.CountSolutions("r(I, X, T)");
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, 1u);
    // New mutations log and checkpoint normally; Close rewrites v2.
    ASSERT_TRUE(engine.StoreFactsExternal("r(3, 6, tag3).").ok());
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    Engine engine(options);
    EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
    auto count = engine.CountSolutions("r(I, X, T)");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 2u);
  }
  RemoveDb(path);
}

TEST(RecoveryTest, OnlineCheckpointConcurrentWithFreshAtomAsserts) {
  // Every fact carries a never-seen atom, so each store mints an
  // external-dictionary entry (kWalDictEntry + dictionary page writes)
  // while Checkpoint() fences, flushes and truncates around it. The
  // as-if-crashed copy then proves no entry falls between an image that
  // missed it and a log that dropped it (the race REVIEW.md flagged);
  // under TSan this doubles as the page-mutation-vs-FlushAll check.
  const std::string path = TempDbPath("ckpt_atoms");
  const std::string crashed = TempDbPath("ckpt_atoms_crashed");
  EngineOptions options;
  options.db_path = path;
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 80;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.DeclareRelation("a", 2).ok());
    std::vector<std::unique_ptr<Session>> sessions;
    for (int i = 0; i < kWriters; ++i) {
      auto session = engine.OpenSession();
      ASSERT_TRUE(session.ok()) << session.status();
      sessions.push_back(std::move(session).value());
    }
    std::atomic<int> errors{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Session* session = sessions[w].get();
        for (int i = 0; i < kPerWriter; ++i) {
          const std::string atom =
              "fresh_" + std::to_string(w) + "_" + std::to_string(i);
          auto ok = session->Succeeds("edb_assert(a(" +
                                      std::to_string(w * kPerWriter + i) +
                                      ", " + atom + "))");
          if (!ok.ok() || !*ok) ++errors;
        }
      });
    }
    std::thread checkpointer([&] {
      while (!done.load(std::memory_order_relaxed)) {
        if (!engine.Checkpoint().ok()) ++errors;
      }
    });
    for (auto& thread : threads) thread.join();
    done.store(true, std::memory_order_relaxed);
    checkpointer.join();
    EXPECT_EQ(errors.load(), 0);
    // Crash model: copy image + log of the still-open engine; every
    // assert above was acked (committed), so the copy must recover all
    // of them with their atoms resolvable.
    std::filesystem::copy_file(
        path, crashed, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        path + ".wal", crashed + ".wal",
        std::filesystem::copy_options::overwrite_existing);
    sessions.clear();
    ASSERT_TRUE(engine.Close().ok());
  }
  for (const std::string& db : {crashed, path}) {
    EngineOptions reopen;
    reopen.db_path = db;
    Engine engine(reopen);
    EXPECT_TRUE(engine.open_status().ok()) << db << ": "
                                           << engine.open_status();
    auto count = engine.CountSolutions("a(I, X)");
    ASSERT_TRUE(count.ok()) << db << ": " << count.status();
    EXPECT_EQ(*count, static_cast<uint64_t>(kWriters * kPerWriter)) << db;
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kPerWriter; ++i) {
        auto first = engine.First(
            "a(" + std::to_string(w * kPerWriter + i) + ", T)");
        ASSERT_TRUE(first.ok())
            << db << ": fact " << w * kPerWriter + i
            << " lost or its atom unresolvable: " << first.status();
        EXPECT_EQ((*first)["T"], "fresh_" + std::to_string(w) + "_" +
                                     std::to_string(i));
      }
    }
  }
  RemoveDb(path);
  RemoveDb(crashed);
}

TEST(RecoveryTest, ReplayedAtomsDecodeThroughAFreshDictionary) {
  // A reopened engine starts with a fresh internal dictionary: no symbol
  // is marked as checked against the external dictionary, and the atoms
  // minted by asserts after the last checkpoint come back only through
  // WAL replay. Every decode then takes the miss path first; the answers
  // must equal the pre-crash ones, for the as-if-crashed copy (image +
  // log replay) and for the cleanly closed database alike.
  const std::string path = TempDbPath("fresh_dict");
  const std::string crashed = TempDbPath("fresh_dict_crashed");
  EngineOptions options;
  options.db_path = path;
  const std::vector<std::string> goals = {
      "a(I, X)", "a(12, X)", "a(I, minted_3(G, L))", "a(I, f(two, [H|T]))",
      "b(K, V)"};
  auto answers = [&goals](Engine* engine) {
    std::vector<std::string> out;
    for (const std::string& goal : goals) {
      auto q = engine->Query(goal);
      EXPECT_TRUE(q.ok()) << goal << ": " << q.status();
      if (!q.ok()) continue;
      std::vector<std::string> rows;
      for (;;) {
        auto more = (*q)->Next();
        EXPECT_TRUE(more.ok()) << goal << ": " << more.status();
        if (!more.ok() || !*more) break;
        std::string row = goal + " ->";
        for (const auto& [name, value] : (*q)->All()) {
          row += " " + name + "=" + value;
        }
        rows.push_back(std::move(row));
      }
      std::sort(rows.begin(), rows.end());
      out.insert(out.end(), rows.begin(), rows.end());
    }
    return out;
  };
  std::vector<std::string> before;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.DeclareRelation("a", 2).ok());
    ASSERT_TRUE(engine.StoreFactsExternal("a(1, one). a(2, f(two, [x, y])).")
                    .ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    for (int i = 0; i < 20; ++i) {
      const std::string n = std::to_string(i);
      auto ok = engine.Succeeds("edb_assert(a(" + std::to_string(10 + i) +
                                ", minted_" + n + "(g" + n + ", [m" + n +
                                ", 'Minted " + n + "'])))");
      ASSERT_TRUE(ok.ok() && *ok) << i;
    }
    ASSERT_TRUE(engine.Succeeds("edb_assert(b(k, fresh_value))").ok());
    before = answers(&engine);
    ASSERT_EQ(before.size(), 22u + 1u + 1u + 1u + 1u);
    std::filesystem::copy_file(
        path, crashed, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        path + ".wal", crashed + ".wal",
        std::filesystem::copy_options::overwrite_existing);
    ASSERT_TRUE(engine.Close().ok());
  }
  for (const std::string& db : {crashed, path}) {
    EngineOptions reopen;
    reopen.db_path = db;
    Engine engine(reopen);
    ASSERT_TRUE(engine.open_status().ok()) << db << ": "
                                           << engine.open_status();
    EXPECT_FALSE(engine.dictionary()->Lookup("minted_3", 2).has_value())
        << "the reopened dictionary should not know the minted atoms yet";
    EXPECT_EQ(answers(&engine), before) << db;
  }
  RemoveDb(path);
  RemoveDb(crashed);
}

TEST(RecoveryTest, WalDisabledFallsBackToCheckpointDurability) {
  const std::string path = TempDbPath("wal_off");
  EngineOptions options;
  options.db_path = path;
  options.wal = false;
  {
    Engine engine(options);
    EXPECT_EQ(engine.wal(), nullptr);
    ASSERT_TRUE(engine.StoreFactsExternal("r(1, 2).").ok());
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    Engine engine(options);
    auto count = engine.CountSolutions("r(I, X)");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 1u);
  }
  RemoveDb(path);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Crash model: copies the image (absent before the first checkpoint)
/// and log of a still-open engine to `to`, as a kill -9 would leave them.
void CopyAsIfCrashed(const std::string& from, const std::string& to) {
  RemoveDb(to);
  if (std::filesystem::exists(from)) {
    std::filesystem::copy_file(from, to);
  }
  std::filesystem::copy_file(from + ".wal", to + ".wal");
}

TEST(RecoveryTest, FailedReplayLeavesImageAndLogUntouched) {
  const std::string path = TempDbPath("failed_replay");
  const std::string crashed = TempDbPath("failed_replay_crashed");
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    ASSERT_TRUE(engine.StoreFactsExternal("r(1, 2, tag1).").ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    ASSERT_TRUE(engine.StoreFactsExternal("r(3, 6, tag3). r(5, 10, tag5).")
                    .ok());
    CopyAsIfCrashed(path, crashed);
  }
  // A record no replay can apply, behind two that it can: the open
  // redoes r(3) and r(5) and then stops with an error.
  {
    auto wal = storage::Wal::Open(crashed + ".wal");
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(0x7f, "junk").ok());
    ASSERT_TRUE((*wal)->SyncAll().ok());
  }
  const std::string image = ReadFileBytes(crashed);
  const std::string log = ReadFileBytes(crashed + ".wal");
  ASSERT_FALSE(image.empty());
  ASSERT_FALSE(log.empty());
  EngineOptions options;
  options.db_path = crashed;
  std::string error;
  {
    Engine engine(options);
    ASSERT_FALSE(engine.open_status().ok());
    error = engine.open_status().ToString();
  }  // ~Engine closes: it must not save the partial store over the image.
  EXPECT_TRUE(ReadFileBytes(crashed) == image) << "image rewritten";
  EXPECT_TRUE(ReadFileBytes(crashed + ".wal") == log) << "log rewritten";
  {
    Engine engine(options);
    EXPECT_EQ(engine.open_status().ToString(), error);
    // The store is a truncated copy of what was acknowledged: reads would
    // answer from it, and writes would land behind the record replay
    // stopped at, where no later replay reaches them. All are refused.
    auto query = engine.Query("r(I, X, T)");
    EXPECT_EQ(query.status().ToString(), error);
    EXPECT_EQ(engine.Succeeds("r(1, 2, tag1)").status().ToString(), error);
    EXPECT_EQ(engine.CountSolutions("r(I, X, T)").status().ToString(),
              error);
    EXPECT_EQ(engine.OpenSession().status().ToString(), error);
    EXPECT_EQ(engine.DeclareRelation("s", 1).ToString(), error);
    EXPECT_EQ(engine.StoreFactsExternal("r(7, 14, tag7).").ToString(),
              error);
    EXPECT_EQ(engine.StoreRulesExternal("t(X) :- r(X, _, _).").ToString(),
              error);
    EXPECT_EQ(engine.Consult(":- edb_assert(r(9, 18, tag9)).").ToString(),
              error);
    EXPECT_EQ(engine.Checkpoint().ToString(), error);
    EXPECT_EQ(engine.Close().ToString(), error);
  }
  EXPECT_TRUE(ReadFileBytes(crashed) == image) << "image rewritten";
  EXPECT_TRUE(ReadFileBytes(crashed + ".wal") == log) << "log rewritten";
  RemoveDb(path);
  RemoveDb(crashed);
}

TEST(RecoveryTest, OneCommitAndOneFsyncPerStoreCall) {
  const std::string path = TempDbPath("commit_unit");
  const std::string crashed = TempDbPath("commit_unit_crashed");
  EngineOptions options;
  options.db_path = path;
  ASSERT_EQ(options.wal_sync, storage::Wal::SyncPolicy::kCommit);
  Engine engine(options);
  // Runs one acknowledging call and checks it committed exactly once,
  // with exactly one fsync, however many records it appended.
  auto once = [&](const char* what, const std::function<base::Status()>& call) {
    auto counts = [&] {
      const EngineStats stats = engine.Stats();
      return std::make_pair(static_cast<uint64_t>(stats.wal.commits),
                            static_cast<uint64_t>(stats.wal.fsyncs));
    };
    const auto before = counts();
    const base::Status st = call();
    ASSERT_TRUE(st.ok()) << what << ": " << st;
    const auto after = counts();
    EXPECT_EQ(after.first - before.first, 1u) << what << " commits";
    EXPECT_EQ(after.second - before.second, 1u) << what << " fsyncs";
  };
  // After each call, a kill -9 copy must recover everything acked so far.
  auto recovers = [&](const std::vector<std::pair<std::string, uint64_t>>&
                          counts) {
    CopyAsIfCrashed(path, crashed);
    EngineOptions reopen;
    reopen.db_path = crashed;
    Engine recovered(reopen);
    ASSERT_TRUE(recovered.open_status().ok()) << recovered.open_status();
    for (const auto& [goal, want] : counts) {
      auto got = recovered.CountSolutions(goal);
      ASSERT_TRUE(got.ok()) << goal << ": " << got.status();
      EXPECT_EQ(*got, want) << goal;
    }
  };

  // 1,000 facts over two relations, each minting a fresh atom: two
  // first-use declares, 1,000 dictionary entries and 1,000 rows.
  std::string facts;
  for (int i = 0; i < 500; ++i) {
    const std::string n = std::to_string(i);
    facts += "a(" + n + ", fa" + n + "). b(" + n + ", fb" + n + ").\n";
  }
  once("StoreFactsExternal", [&] { return engine.StoreFactsExternal(facts); });
  recovers({{"a(I, T)", 500}, {"b(I, T)", 500}, {"a(7, fa7)", 1},
            {"b(499, fb499)", 1}});

  once("StoreRulesExternal", [&] {
    return engine.StoreRulesExternal(
        "pa(X) :- a(X, _).\n"
        "pb(X) :- b(X, _).\n"
        "both(X) :- pa(X), pb(X).\n");
  });
  recovers({{"a(I, T)", 500}, {"both(X)", 500}});

  once("edb_assert", [&]() -> base::Status {
    auto ok = engine.Succeeds("edb_assert(c(1, fresh_c))");
    if (!ok.ok()) return ok.status();
    return *ok ? base::Status::OK() : base::Status::Internal("failed");
  });
  recovers({{"a(I, T)", 500}, {"both(X)", 500}, {"c(1, fresh_c)", 1}});
  RemoveDb(path);
  RemoveDb(crashed);
}

TEST(RecoveryTest, StatsExposeWalWatermarks) {
  const std::string path = TempDbPath("stats");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreFactsExternal("r(1, 2). r(3, 6).").ok());
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.wal_last_lsn, 0u);
  EXPECT_EQ(stats.wal_last_lsn, stats.wal_durable_lsn);
  EXPECT_GT(static_cast<uint64_t>(stats.wal.records_appended), 0u);
  EXPECT_GT(static_cast<uint64_t>(stats.wal.commits), 0u);
  const std::string metrics = engine.ExportMetricsJson();
  EXPECT_NE(metrics.find("\"wal\":{\"enabled\":true"), std::string::npos);
  RemoveDb(path);
}

}  // namespace
}  // namespace educe
