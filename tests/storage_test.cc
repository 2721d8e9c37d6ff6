#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <cstring>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include "base/rng.h"
#include "base/stopwatch.h"
#include "storage/io_util.h"
#include "storage/bang_file.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "storage/slotted_page.h"

namespace educe::storage {
namespace {

TEST(PagedFileTest, AllocateReadWrite) {
  PagedFile file;
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  EXPECT_NE(a, b);

  std::vector<char> buf(file.page_size(), 'x');
  ASSERT_TRUE(file.Write(a, buf.data()).ok());
  std::vector<char> out(file.page_size());
  ASSERT_TRUE(file.Read(a, out.data()).ok());
  EXPECT_EQ(out[0], 'x');

  // Fresh pages read back zeroed.
  ASSERT_TRUE(file.Read(b, out.data()).ok());
  EXPECT_EQ(out[100], 0);

  EXPECT_EQ(file.stats().pages_read, 2u);
  EXPECT_EQ(file.stats().pages_written, 1u);
  EXPECT_FALSE(file.Read(99, out.data()).ok());
}

TEST(BufferPoolTest, HitsAndMisses) {
  PagedFile file;
  BufferPool pool(&file, 4);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  const PageId id = page->page_id();
  page->data()[0] = 'z';
  page->MarkDirty();
  page->Release();

  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 'z');
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBack) {
  PagedFile file;
  BufferPool pool(&file, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<char>('a' + i);
    page->MarkDirty();
    ids.push_back(page->page_id());
  }
  // Only 2 frames: early pages were evicted and written back.
  EXPECT_GE(pool.stats().evictions, 2u);
  EXPECT_GE(pool.stats().writebacks, 2u);
  auto first = pool.Fetch(ids[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->data()[0], 'a');
}

TEST(BufferPoolTest, PinnedPagesCannotAllBeEvicted) {
  PagedFile file;
  BufferPool pool(&file, 2);
  auto p1 = pool.New();
  auto p2 = pool.New();
  ASSERT_TRUE(p1.ok() && p2.ok());
  auto p3 = pool.New();  // both frames pinned
  EXPECT_FALSE(p3.ok());
}

TEST(BufferPoolTest, ResizeGrowTakesEffectImmediately) {
  PagedFile file;
  BufferPool pool(&file, 2);
  ASSERT_TRUE(pool.Resize(4).ok());
  EXPECT_EQ(pool.num_frames(), 4u);
  EXPECT_EQ(pool.capacity_bytes(), 4u * file.page_size());

  // All four frames can be pinned at once now.
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 4; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    pinned.push_back(std::move(*page));
  }
  EXPECT_FALSE(pool.New().ok());  // the fifth still fails
}

TEST(BufferPoolTest, ResizeShrinkEvictsColdestAndPreservesData) {
  PagedFile file;
  BufferPool pool(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<char>('a' + i);
    page->MarkDirty();
    ids.push_back(page->page_id());
  }
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_GE(pool.stats().evictions, 6u);  // dirty pages written back

  // Every page survives the shrink via writeback.
  for (int i = 0; i < 8; ++i) {
    auto page = pool.Fetch(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<char>('a' + i));
  }
}

TEST(BufferPoolTest, ResizeShrinkStopsAtPinnedTailFrames) {
  PagedFile file;
  BufferPool pool(&file, 4);
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 4; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<char>('p' + i);
    pinned.push_back(std::move(*page));
  }
  // Every frame pinned: the shrink must not invalidate a live handle, so
  // it returns OK having kept all four frames.
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.num_frames(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pinned[i].data()[0], static_cast<char>('p' + i));
  }

  // Once the pins drop, a later resize completes.
  for (auto& page : pinned) page.Release();
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.num_frames(), 2u);
}

TEST(BufferPoolTest, ResizeClampsToTwoFrames) {
  PagedFile file;
  BufferPool pool(&file, 4);
  ASSERT_TRUE(pool.Resize(0).ok());
  EXPECT_EQ(pool.num_frames(), 2u);
}

TEST(BufferPoolTest, InvalidateDropsCleanState) {
  PagedFile file;
  BufferPool pool(&file, 4);
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  const PageId id = page->page_id();
  page->data()[7] = 'q';
  page->MarkDirty();
  page->Release();

  ASSERT_TRUE(pool.Invalidate().ok());
  pool.ResetStats();
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[7], 'q');  // survived via writeback
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(SlottedPageTest, InsertGetDelete) {
  std::vector<char> data(4096, 0);
  SlottedPage page(data.data(), 4096, 8);
  page.Format();
  auto a = page.Insert("hello");
  auto b = page.Insert("world!");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*page.Get(*a), "hello");
  EXPECT_EQ(*page.Get(*b), "world!");
  EXPECT_TRUE(page.Delete(*a));
  EXPECT_FALSE(page.Get(*a).has_value());
  EXPECT_FALSE(page.Delete(*a));
  EXPECT_EQ(page.LiveCount(), 1u);
}

TEST(SlottedPageTest, FillsUntilFull) {
  std::vector<char> data(512, 0);
  SlottedPage page(data.data(), 512, 8);
  page.Format();
  int inserted = 0;
  while (page.Insert(std::string(20, 'x'))) ++inserted;
  EXPECT_GT(inserted, 10);
  EXPECT_LT(inserted, 30);
}

TEST(SlottedPageTest, CompactReclaimsDeletedSpace) {
  std::vector<char> data(512, 0);
  SlottedPage page(data.data(), 512, 8);
  page.Format();
  std::vector<uint16_t> slots;
  while (true) {
    auto slot = page.Insert(std::string(20, 'x'));
    if (!slot) break;
    slots.push_back(*slot);
  }
  // Delete every other record, compact, and insert again.
  for (size_t i = 0; i < slots.size(); i += 2) page.Delete(slots[i]);
  const std::string survivor(*page.Get(slots[1]));
  page.Compact();
  EXPECT_EQ(*page.Get(slots[1]), survivor);
  EXPECT_TRUE(page.Insert(std::string(20, 'y')).has_value());
}

// --- BANG file -------------------------------------------------------------

TEST(BangFileTest, ExactMatchRetrieval) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 2);
  ASSERT_TRUE(bang.ok());

  ASSERT_TRUE(bang->Insert({10, 20}, "alpha").ok());
  ASSERT_TRUE(bang->Insert({10, 21}, "beta").ok());
  ASSERT_TRUE(bang->Insert({11, 20}, "gamma").ok());

  auto cursor = bang->OpenScan({10, 20});
  BangFile::Record record;
  ASSERT_TRUE(cursor.Next(&record));
  EXPECT_EQ(record.payload, "alpha");
  EXPECT_FALSE(cursor.Next(&record));
}

TEST(BangFileTest, PartialMatchRetrieval) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 3);
  ASSERT_TRUE(bang.ok());
  for (uint64_t a = 0; a < 5; ++a) {
    for (uint64_t b = 0; b < 5; ++b) {
      ASSERT_TRUE(bang->Insert({a, b, a + b},
                               std::to_string(a) + ":" + std::to_string(b))
                      .ok());
    }
  }
  // Bind only attribute 0.
  auto cursor = bang->OpenScan({3, kBangWildcard, kBangWildcard});
  BangFile::Record record;
  int count = 0;
  while (cursor.Next(&record)) {
    EXPECT_EQ(record.keys[0], 3u);
    ++count;
  }
  EXPECT_EQ(count, 5);
}

TEST(BangFileTest, FullScanSeesEverything) {
  PagedFile file;
  BufferPool pool(&file, 64);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  const int n = 2000;  // forces many splits
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        bang->Insert({static_cast<uint64_t>(i)}, std::to_string(i)).ok());
  }
  EXPECT_EQ(bang->record_count(), static_cast<uint64_t>(n));
  EXPECT_GT(bang->stats().splits, 0u);

  auto cursor = bang->OpenScan({kBangWildcard});
  BangFile::Record record;
  std::set<std::string> seen;
  while (cursor.Next(&record)) seen.insert(record.payload);
  ASSERT_TRUE(cursor.status().ok());
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));
}

TEST(BangFileTest, BoundScanNarrowsBuckets) {
  PagedFile file;
  BufferPool pool(&file, 64);
  auto bang = BangFile::Create(&pool, 2);
  ASSERT_TRUE(bang.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(bang->Insert({static_cast<uint64_t>(i % 50),
                              static_cast<uint64_t>(i)},
                             "p")
                    .ok());
  }
  bang->ResetStats();
  auto bound = bang->OpenScan({7, kBangWildcard});
  BangFile::Record record;
  while (bound.Next(&record)) {
  }
  const uint64_t bound_buckets = bang->stats().buckets_scanned;

  bang->ResetStats();
  auto open = bang->OpenScan({kBangWildcard, kBangWildcard});
  while (open.Next(&record)) {
  }
  const uint64_t open_buckets = bang->stats().buckets_scanned;
  EXPECT_LT(bound_buckets * 2, open_buckets)
      << "binding an attribute must prune at least half the buckets";
}

TEST(BangFileTest, DeleteRemovesRecord) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  ASSERT_TRUE(bang->Insert({5}, "gone").ok());
  ASSERT_TRUE(bang->Insert({6}, "stays").ok());

  auto cursor = bang->OpenScan({5});
  BangFile::Record record;
  ASSERT_TRUE(cursor.Next(&record));
  ASSERT_TRUE(bang->Delete(record.rid).ok());
  EXPECT_EQ(bang->record_count(), 1u);

  auto again = bang->OpenScan({5});
  EXPECT_FALSE(again.Next(&record));
  auto other = bang->OpenScan({6});
  EXPECT_TRUE(other.Next(&record));
}

TEST(BangFileTest, DuplicateKeysAllowed) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bang->Insert({42}, "dup" + std::to_string(i)).ok());
  }
  auto cursor = bang->OpenScan({42});
  BangFile::Record record;
  int count = 0;
  while (cursor.Next(&record)) ++count;
  EXPECT_EQ(count, 10);
}

TEST(BangFileTest, WildcardKeyRejectedOnInsert) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  EXPECT_FALSE(bang->Insert({kBangWildcard}, "bad").ok());
}

TEST(BangFileTest, OversizeRecordRejected) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  ASSERT_TRUE(bang->Insert({1}, "kept").ok());

  EXPECT_FALSE(bang->Insert({2}, std::string(pool.page_size(), 'x')).ok());
  EXPECT_EQ(bang->record_count(), 1u);
  auto cursor = bang->OpenScan({kBangWildcard});
  BangFile::Record record;
  std::vector<std::string> seen;
  while (cursor.Next(&record)) seen.push_back(record.payload);
  ASSERT_TRUE(cursor.status().ok());
  EXPECT_EQ(seen, std::vector<std::string>{"kept"});
}

uint64_t PoolAccesses(const BufferPool& pool) {
  return pool.stats().hits + pool.stats().misses;
}

// A cursor pins each page once while it walks the page's slots, so a
// scan costs one pool access per page — primary buckets and overflow
// pages alike — however many records the pages hold.
TEST(BangFileTest, ScanCostsOnePoolAccessPerPage) {
  PagedFile file;
  BufferPool pool(&file, 64);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  const std::string payload(100, 'p');
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(bang->Insert({i}, payload).ok());
  }
  // One key repeated past a page's capacity: its bucket splits to the
  // maximum depth and then chains overflow pages.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(bang->Insert({7}, payload).ok());
  }
  ASSERT_GT(bang->stats().overflow_pages, 1u);

  for (const std::vector<uint64_t>& pattern :
       {std::vector<uint64_t>{kBangWildcard}, std::vector<uint64_t>{7}}) {
    const uint64_t accesses = PoolAccesses(pool);
    const uint64_t pages = bang->stats().buckets_scanned;
    const uint64_t rows = bang->stats().records_examined;
    auto cursor = bang->OpenScan(pattern);
    BangFile::Record record;
    uint64_t matched = 0;
    while (cursor.Next(&record)) ++matched;
    ASSERT_TRUE(cursor.status().ok());
    const uint64_t visited = bang->stats().buckets_scanned - pages;
    EXPECT_EQ(matched, pattern[0] == 7 ? 201u : 500u);
    EXPECT_GT(visited, bang->stats().overflow_pages);
    EXPECT_EQ(PoolAccesses(pool) - accesses, visited);
    EXPECT_GT(bang->stats().records_examined - rows, 2 * visited);
  }
}

// The row filter sees the payload of key-matching rows only, and a row
// it rejects is never returned.
TEST(BangFileTest, RowFilterRejectsInThePage) {
  PagedFile file;
  BufferPool pool(&file, 32);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(bang->Insert({i % 5}, std::to_string(i)).ok());
  }
  uint64_t offered = 0;
  auto cursor = bang->OpenScan({3}, [&offered](std::string_view payload) {
    ++offered;
    return payload.back() == '8';
  });
  BangFile::Record record;
  std::set<std::string> seen;
  while (cursor.Next(&record)) seen.insert(record.payload);
  ASSERT_TRUE(cursor.status().ok());
  EXPECT_EQ(offered, 100u);  // i % 5 == 3
  EXPECT_EQ(seen.size(), 50u);  // ... and i ends in 8
  for (const std::string& p : seen) EXPECT_EQ(p.back(), '8');
  EXPECT_EQ(bang->stats().records_matched, 100u);
}

// In a pool of two frames (the smallest the engine allows) a cursor that
// is exhausted, or abandoned mid-page, must leave no pin behind:
// otherwise an insert or a resize after the scan would find every frame
// pinned.
TEST(BangFileTest, FinishedOrAbandonedCursorLeavesNoPin) {
  PagedFile file;
  BufferPool pool(&file, 2);
  auto bang = BangFile::Create(&pool, 1);
  ASSERT_TRUE(bang.ok());
  const std::string payload(100, 'p');
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(bang->Insert({i}, payload).ok());
  }
  ASSERT_GT(file.page_count(), 4u);
  auto both_frames_free = [&]() {
    auto a = pool.Fetch(0);
    auto b = pool.Fetch(file.page_count() - 1);
    return a.ok() && b.ok();
  };

  auto exhausted = bang->OpenScan({kBangWildcard});
  BangFile::Record record;
  uint64_t count = 0;
  while (exhausted.Next(&record)) ++count;
  ASSERT_TRUE(exhausted.status().ok());
  EXPECT_EQ(count, 200u);
  EXPECT_TRUE(both_frames_free());  // `exhausted` is still alive
  EXPECT_TRUE(bang->Insert({1000}, payload).ok());

  {
    auto abandoned = bang->OpenScan({kBangWildcard});
    ASSERT_TRUE(abandoned.Next(&record));  // pins its first page
  }
  EXPECT_TRUE(both_frames_free());
  EXPECT_TRUE(bang->Insert({1001}, payload).ok());
  ASSERT_TRUE(pool.Resize(4).ok());
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_TRUE(both_frames_free());
}

// Property: BANG partial-match results always equal a model filter.
class BangPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BangPropertyTest, MatchesModel) {
  base::Rng rng(GetParam());
  PagedFile file;
  BufferPool pool(&file, 64);
  auto bang = BangFile::Create(&pool, 3);
  ASSERT_TRUE(bang.ok());

  std::vector<std::pair<std::vector<uint64_t>, std::string>> model;
  for (int i = 0; i < 1500; ++i) {
    std::vector<uint64_t> keys = {rng.Below(8), rng.Below(8), rng.Below(8)};
    std::string payload = "r" + std::to_string(i);
    ASSERT_TRUE(bang->Insert(keys, payload).ok());
    model.emplace_back(keys, payload);
  }

  for (int probe = 0; probe < 30; ++probe) {
    std::vector<uint64_t> pattern(3);
    for (auto& k : pattern) {
      k = rng.Below(3) == 0 ? kBangWildcard : rng.Below(8);
    }
    std::multiset<std::string> expected;
    for (const auto& [keys, payload] : model) {
      bool match = true;
      for (int i = 0; i < 3; ++i) {
        if (pattern[i] != kBangWildcard && pattern[i] != keys[i]) {
          match = false;
        }
      }
      if (match) expected.insert(payload);
    }
    std::multiset<std::string> actual;
    auto cursor = bang->OpenScan(pattern);
    BangFile::Record record;
    while (cursor.Next(&record)) actual.insert(record.payload);
    ASSERT_TRUE(cursor.status().ok());
    EXPECT_EQ(actual, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BangPropertyTest,
                         ::testing::Values(11, 22, 33, 44));


// Property: under a random pin/write/evict workload, page contents always
// match a shadow model — the pool never loses or mixes up page bytes.
class BufferPoolPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferPoolPropertyTest, ContentsMatchModel) {
  base::Rng rng(GetParam());
  PagedFile file;
  BufferPool pool(&file, 8);  // small pool: constant eviction

  std::vector<std::vector<char>> model;
  for (int i = 0; i < 40; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    model.emplace_back(file.page_size(), 0);
  }
  // Release all pins before the churn (New() returns pinned handles).
  // (handles already destroyed at loop scope end)

  for (int step = 0; step < 2000; ++step) {
    const PageId id = static_cast<PageId>(rng.Below(model.size()));
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok());
    // Verify current contents against the model.
    ASSERT_EQ(std::memcmp(page->data(), model[id].data(), 64), 0)
        << "page " << id << " diverged at step " << step;
    if (rng.Below(2) == 0) {
      const char v = static_cast<char>(rng.Below(256));
      const size_t at = rng.Below(64);
      page->data()[at] = v;
      model[id][at] = v;
      page->MarkDirty();
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // After flushing, the backing file agrees byte for byte.
  std::vector<char> buf(file.page_size());
  for (PageId id = 0; id < model.size(); ++id) {
    ASSERT_TRUE(file.Read(id, buf.data()).ok());
    EXPECT_EQ(std::memcmp(buf.data(), model[id].data(), file.page_size()), 0)
        << "page " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPoolPropertyTest,
                         ::testing::Values(3, 33, 333));

// --- io_util: full-transfer I/O under signals and partial syscalls ------

// Writer trickles the payload through a pipe in small chunks: every
// read() returns short, and ReadFull must keep looping until the full
// count (or EOF) arrives.
TEST(IoUtilTest, ReadFullAssemblesPartialPipeReads) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  constexpr size_t kBytes = 64 << 10;
  std::vector<char> sent(kBytes);
  for (size_t i = 0; i < kBytes; ++i) sent[i] = static_cast<char>(i * 31 + 7);
  std::thread writer([&] {
    size_t off = 0;
    while (off < kBytes) {
      const size_t chunk = std::min<size_t>(513, kBytes - off);
      ASSERT_TRUE(WriteFull(fds[1], sent.data() + off, chunk).ok());
      off += chunk;
    }
    close(fds[1]);
  });
  std::vector<char> got(kBytes + 100);
  auto n = ReadFull(fds[0], got.data(), got.size());
  writer.join();
  ASSERT_TRUE(n.ok()) << n.status();
  // EOF after exactly kBytes: the short return is explicit, not silent.
  EXPECT_EQ(*n, kBytes);
  EXPECT_EQ(std::memcmp(got.data(), sent.data(), kBytes), 0);
  close(fds[0]);
}

// A signal with a no-SA_RESTART handler makes blocking pipe I/O fail
// with EINTR (and can leave writes short). Both helpers must retry and
// still move every byte. The old fstream-based image paths treated this
// as a stream failure at best and silent truncation at worst.
TEST(IoUtilTest, FullTransferSurvivesSignalInterruption) {
  struct sigaction sa = {};
  struct sigaction old_sa;
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately not SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old_sa), 0);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  constexpr size_t kBytes = 1 << 20;  // far beyond the pipe buffer
  std::vector<char> sent(kBytes);
  for (size_t i = 0; i < kBytes; ++i) sent[i] = static_cast<char>(i * 131 + 3);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Blocks repeatedly on the full pipe; signals interrupt it mid-write.
    EXPECT_TRUE(WriteFull(fds[1], sent.data(), kBytes).ok());
    close(fds[1]);
    done.store(true);
  });
  // Pepper the blocked writer with signals while draining slowly.
  std::vector<char> got;
  got.reserve(kBytes);
  std::vector<char> buf(4096);
  pthread_t writer_handle = writer.native_handle();
  int signals_sent = 0;
  while (true) {
    if (!done.load() && signals_sent < 64) {
      pthread_kill(writer_handle, SIGUSR1);
      ++signals_sent;
    }
    auto n = ReadFull(fds[0], buf.data(), buf.size());
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;  // EOF: writer finished and closed
    got.insert(got.end(), buf.data(), buf.data() + *n);
  }
  writer.join();
  ASSERT_EQ(got.size(), kBytes);
  EXPECT_EQ(std::memcmp(got.data(), sent.data(), kBytes), 0);
  close(fds[0]);
  sigaction(SIGUSR1, &old_sa, nullptr);
}

TEST(IoUtilTest, ReadFullReportsRealErrors) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);
  close(fds[1]);
  char buf[8];
  auto n = ReadFull(fds[0], buf, sizeof(buf));  // closed fd -> EBADF
  EXPECT_FALSE(n.ok());
  auto wrote = WriteFull(fds[1], buf, sizeof(buf));
  EXPECT_FALSE(wrote.ok());
}

TEST(PagedFileTest, SaveLoadImageRoundTripsThroughPosixPath) {
  const std::string path = ::testing::TempDir() + "/io_util_image.educe";
  PagedFile file;
  const PageId id = file.Allocate();
  std::vector<char> page(file.page_size(), 0);
  std::snprintf(page.data(), page.size(), "hardened image page");
  ASSERT_TRUE(file.Write(id, page.data()).ok());
  ASSERT_TRUE(file.SaveImage(path).ok());

  PagedFile reloaded;
  ASSERT_TRUE(reloaded.LoadImage(path).ok());
  ASSERT_EQ(reloaded.page_count(), file.page_count());
  std::vector<char> back(reloaded.page_size());
  ASSERT_TRUE(reloaded.Read(id, back.data()).ok());
  EXPECT_STREQ(back.data(), "hardened image page");

  // Truncation is an explicit Corruption, not a short-read success.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  PagedFile truncated;
  base::Status st = truncated.LoadImage(path);
  EXPECT_FALSE(st.ok());
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// SaveImage re-hashes only pages written since the last save or load. Its
// image must be byte-identical to one saved from a fresh file holding the
// same pages, whose every page hash is computed from scratch.
TEST(PagedFileTest, CachedPageHashesMatchFullRecompute) {
  const std::string path = ::testing::TempDir() + "/cached_hashes.educe";
  const std::string fresh_path = ::testing::TempDir() + "/full_hashes.educe";
  base::Rng rng(24);
  PagedFile file;
  for (int i = 0; i < 16; ++i) file.Allocate();
  std::vector<char> page(file.page_size());

  auto check_against_fresh = [&](PagedFile& saved) {
    ASSERT_TRUE(saved.SaveImage(path).ok());
    PagedFile fresh;
    std::vector<char> copy(saved.page_size());
    for (PageId id = 0; id < saved.page_count(); ++id) {
      ASSERT_TRUE(saved.Read(id, copy.data()).ok());
      ASSERT_EQ(fresh.Allocate(), id);
      ASSERT_TRUE(fresh.Write(id, copy.data()).ok());
    }
    ASSERT_TRUE(fresh.SaveImage(fresh_path).ok());
    EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(fresh_path));
  };

  for (int round = 0; round < 8; ++round) {
    // Round 0 writes nothing: every hash is still cold.
    const int writes = round == 0 ? 0 : static_cast<int>(rng.Below(6));
    for (int w = 0; w < writes; ++w) {
      for (char& c : page) c = static_cast<char>(rng.Next());
      ASSERT_TRUE(
          file.Write(static_cast<PageId>(rng.Below(file.page_count())),
                     page.data())
              .ok());
    }
    if (round % 3 == 2) file.Allocate();
    check_against_fresh(file);
  }

  // A loaded file starts from the hashes its verification computed.
  PagedFile loaded;
  ASSERT_TRUE(loaded.LoadImage(path).ok());
  for (char& c : page) c = static_cast<char>(rng.Next());
  ASSERT_TRUE(loaded.Write(3, page.data()).ok());
  check_against_fresh(loaded);
  PagedFile reloaded;
  ASSERT_TRUE(reloaded.LoadImage(path).ok());

  // One flipped byte in a page image still fails the load.
  std::string bytes = ReadFileBytes(path);
  bytes[20 + 5 * file.page_size() + 7] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  PagedFile corrupt;
  base::Status st = corrupt.LoadImage(path);
  EXPECT_EQ(st.code(), base::StatusCode::kCorruption) << st;
  std::remove(path.c_str());
  std::remove(fresh_path.c_str());
}

TEST(PagedFileTest, SimulatedLatencyIsCharged) {
  PagedFile::Options options;
  options.simulated_latency_ns = 200000;  // 0.2 ms
  PagedFile file(options);
  const PageId id = file.Allocate();
  std::vector<char> buf(file.page_size());
  base::Stopwatch watch;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(file.Read(id, buf.data()).ok());
  }
  EXPECT_GE(watch.ElapsedSeconds(), 20 * 0.0002 * 0.8);
}

}  // namespace
}  // namespace educe::storage
