// The persistent database image: superblock, external dictionary and
// procedure catalog written at Checkpoint()/Close() and attached at the
// next open. A rejected image degrades to a fresh start; an older image
// whose superblock still names a cached-code segment opens unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "base/hash.h"
#include "educe/engine.h"
#include "storage/page.h"
#include "storage/paged_file.h"

namespace educe {
namespace {

std::string TempDbPath(const std::string& name) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("educe_persist_" + name + ".edb"))
                               .string();
  std::remove(path.c_str());
  // A stale log from an earlier run would replay into the fresh database.
  std::remove((path + ".wal").c_str());
  return path;
}

void RemoveDb(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

constexpr int kNodes = 25;  // n0 .. n24

/// A small DAG whose transitive closure takes several recursion levels.
/// Must stay acyclic: reach/2 below is plain transitive closure and
/// diverges on cycles. Returns the number of edge facts stored.
uint64_t BuildDatabase(Engine* engine) {
  std::string facts;
  uint64_t edges = 0;
  for (int i = 0; i + 1 < kNodes; ++i) {
    facts += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
    ++edges;
    if (i % 4 == 0 && i + 7 < kNodes) {
      facts += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 7) +
               ").\n";
      ++edges;
    }
  }
  EXPECT_TRUE(engine->StoreFactsExternal(facts).ok());
  EXPECT_TRUE(engine
                  ->StoreRulesExternal(
                      "reach(X, Y) :- edge(X, Y).\n"
                      "reach(X, Z) :- edge(X, Y), reach(Y, Z).")
                  .ok());
  return edges;
}

uint64_t Count(Engine* engine, const std::string& goal) {
  auto count = engine->CountSolutions(goal);
  EXPECT_TRUE(count.ok()) << goal << ": " << count.status();
  return count.ok() ? *count : 0;
}

uint64_t CountReach(Engine* engine, const std::string& from) {
  return Count(engine, "reach(" + from + ", X)");
}

TEST(PersistenceTest, CatalogPersistsAcrossReopen) {
  const std::string path = TempDbPath("catalog");
  uint64_t cold_solutions = 0;
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    EXPECT_FALSE(engine.attached());
    BuildDatabase(&engine);
    cold_solutions = CountReach(&engine, "n3");
    EXPECT_GT(cold_solutions, 0u);
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    EXPECT_TRUE(engine.attached());
    EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
    // Facts and rules come back from the restored catalog; the loader
    // decodes and links the stored relative code, as in every session.
    EXPECT_EQ(CountReach(&engine, "n3"), cold_solutions);
    EXPECT_GT(engine.Stats().loader.clauses_decoded, 0u);
  }
  RemoveDb(path);
}

TEST(PersistenceTest, CheckpointWritesImageMidSession) {
  const std::string path = TempDbPath("checkpoint");
  const std::string copy = TempDbPath("checkpoint_copy");
  uint64_t checkpoint_solutions = 0;
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    BuildDatabase(&engine);
    checkpoint_solutions = CountReach(&engine, "n0");
    ASSERT_TRUE(engine.Checkpoint().ok());

    // Model a crash between checkpoints: preserve the image as of the
    // checkpoint, then keep mutating the live engine. The copy must
    // reopen to exactly the checkpointed state.
    std::filesystem::copy_file(path, copy);
    ASSERT_TRUE(engine.StoreFactsExternal("edge(n99, n0).").ok());
    EXPECT_GT(CountReach(&engine, "n99"), 0u);
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    EngineOptions options;
    options.db_path = copy;
    Engine engine(options);
    EXPECT_TRUE(engine.attached());
    EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
    // State as of the checkpoint: reach/n0 agrees, and the
    // post-checkpoint fact never existed here.
    EXPECT_EQ(CountReach(&engine, "n0"), checkpoint_solutions);
    EXPECT_EQ(CountReach(&engine, "n99"), 0u);
    // The checkpointed engine stays usable for further checkpoints.
    ASSERT_TRUE(engine.Checkpoint().ok());
    EXPECT_EQ(CountReach(&engine, "n0"), checkpoint_solutions);
  }
  RemoveDb(path);
  RemoveDb(copy);
}

TEST(PersistenceTest, CheckpointRunsWhileSessionsActive) {
  const std::string path = TempDbPath("checkpoint_sessions");
  EngineOptions options;
  options.db_path = path;
  Engine engine(options);
  BuildDatabase(&engine);

  // Checkpoints are online (DESIGN.md §17.5): the store's latches are
  // all taken shared, so a live session blocks nothing and the image is
  // still consistent. Close keeps refusing — it ends the session's
  // substrate for good.
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(engine.Checkpoint().ok());
  auto count = (*session)->CountSolutions("reach(n0, X)");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_GT(*count, 0u);
  EXPECT_TRUE(engine.Close().IsFailedPrecondition());
  session->reset();
  EXPECT_TRUE(engine.Checkpoint().ok());

  // A memory-only engine has nothing to checkpoint to.
  Engine transient;
  EXPECT_TRUE(transient.Checkpoint().IsFailedPrecondition());
  RemoveDb(path);
}

TEST(PersistenceTest, TruncatedImageFallsBackToFresh) {
  const std::string path = TempDbPath("truncated_image");
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    BuildDatabase(&engine);
    ASSERT_TRUE(engine.Close().ok());
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  {
    EngineOptions options;
    options.db_path = path;
    Engine engine(options);
    EXPECT_FALSE(engine.attached());
    EXPECT_FALSE(engine.open_status().ok());
    // The session starts fresh and fully usable.
    ASSERT_TRUE(engine.Consult("p(1).").ok());
    auto ok = engine.Succeeds("p(1)");
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
  RemoveDb(path);
}

TEST(PersistenceTest, ImageWithCodeSegmentRootOpens) {
  // Superblock offset 32 is a reserved u32. Images written before it was
  // reserved carry the root page of a cached-code segment there; such an
  // image must attach cleanly and answer everything from its catalog.
  constexpr size_t kReservedOffset = 32;
  constexpr size_t kCatalogRootOffset = 28;
  constexpr size_t kChecksumOffset = 44;
  const std::string path = TempDbPath("code_segment_root");
  EngineOptions options;
  options.db_path = path;
  uint64_t edges = 0;
  std::vector<uint64_t> reach(kNodes);
  {
    Engine engine(options);
    edges = BuildDatabase(&engine);
    for (int i = 0; i < kNodes; ++i) {
      reach[i] = CountReach(&engine, "n" + std::to_string(i));
    }
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    storage::PagedFile file;
    ASSERT_TRUE(file.LoadImage(path).ok());
    std::vector<char> page(file.page_size());
    ASSERT_TRUE(file.Read(0, page.data()).ok());
    storage::PageId slot;
    std::memcpy(&slot, page.data() + kReservedOffset, 4);
    EXPECT_EQ(slot, storage::kInvalidPage);
    // Point the slot at a live segment of some other kind — the catalog —
    // so a reader that still followed it would find bytes that are not
    // code. Then re-stamp the checksum so the superblock stays valid.
    std::memcpy(&slot, page.data() + kCatalogRootOffset, 4);
    ASSERT_NE(slot, storage::kInvalidPage);
    std::memcpy(page.data() + kReservedOffset, &slot, 4);
    const uint64_t checksum =
        base::Fnv1a64(std::string_view(page.data(), kChecksumOffset));
    std::memcpy(page.data() + kChecksumOffset, &checksum, 8);
    ASSERT_TRUE(file.Write(0, page.data()).ok());
    ASSERT_TRUE(file.SaveImage(path).ok());
  }
  {
    Engine engine(options);
    EXPECT_TRUE(engine.open_status().ok()) << engine.open_status();
    EXPECT_TRUE(engine.attached());
    EXPECT_EQ(Count(&engine, "edge(X, Y)"), edges);
    for (int i = 0; i < kNodes; ++i) {
      EXPECT_EQ(CountReach(&engine, "n" + std::to_string(i)), reach[i])
          << "reach from n" << i;
    }
    ASSERT_TRUE(engine.Close().ok());
  }
  {
    // The next image written clears the slot again.
    storage::PagedFile file;
    ASSERT_TRUE(file.LoadImage(path).ok());
    std::vector<char> page(file.page_size());
    ASSERT_TRUE(file.Read(0, page.data()).ok());
    storage::PageId slot;
    std::memcpy(&slot, page.data() + kReservedOffset, 4);
    EXPECT_EQ(slot, storage::kInvalidPage);
  }
  RemoveDb(path);
}

TEST(PersistenceTest, ResetBufferCacheCanDropCodeCache) {
  Engine engine;
  BuildDatabase(&engine);
  EXPECT_GT(CountReach(&engine, "n0"), 0u);
  EXPECT_GT(engine.Stats().code_cache.entries, 0u);

  ASSERT_TRUE(engine.ResetBufferCache(/*drop_code_cache=*/false).ok());
  EXPECT_GT(engine.Stats().code_cache.entries, 0u);  // code survives

  ASSERT_TRUE(engine.ResetBufferCache(/*drop_code_cache=*/true).ok());
  EXPECT_EQ(engine.Stats().code_cache.entries, 0u);
  EXPECT_EQ(engine.Stats().memory.code_cache_resident_bytes, 0u);

  // Fully cold, everything still answers.
  EXPECT_GT(CountReach(&engine, "n0"), 0u);
}

TEST(PersistenceTest, MemoryReportIsCoherent) {
  Engine engine;
  BuildDatabase(&engine);
  EXPECT_GT(CountReach(&engine, "n0"), 0u);
  const EngineStats s = engine.Stats();
  EXPECT_GT(s.memory.buffer_resident_bytes, 0u);
  EXPECT_LE(s.memory.buffer_resident_bytes, s.memory.buffer_capacity_bytes);
  EXPECT_GT(s.memory.code_cache_resident_bytes, 0u);
  EXPECT_LE(s.memory.code_cache_resident_bytes,
            s.memory.code_cache_capacity_bytes);
  EXPECT_GT(s.memory.paged_file_bytes, 0u);
  EXPECT_EQ(s.memory.code_cache_resident_bytes, s.code_cache.bytes_resident);
}

}  // namespace
}  // namespace educe
