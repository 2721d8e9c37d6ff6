#include "dict/dictionary.h"

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/hash.h"
#include "base/rng.h"

namespace educe::dict {
namespace {

TEST(DictionaryTest, InternReturnsStableIds) {
  Dictionary dict;
  auto foo = dict.Intern("foo", 0);
  ASSERT_TRUE(foo.ok());
  auto foo2 = dict.Intern("foo", 0);
  ASSERT_TRUE(foo2.ok());
  EXPECT_EQ(*foo, *foo2);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, ArityDistinguishesSymbols) {
  Dictionary dict;
  auto foo0 = dict.Intern("foo", 0);
  auto foo2 = dict.Intern("foo", 2);
  ASSERT_TRUE(foo0.ok());
  ASSERT_TRUE(foo2.ok());
  EXPECT_NE(*foo0, *foo2);
  EXPECT_EQ(dict.ArityOf(*foo0), 0u);
  EXPECT_EQ(dict.ArityOf(*foo2), 2u);
}

TEST(DictionaryTest, LookupFindsInterned) {
  Dictionary dict;
  EXPECT_FALSE(dict.Lookup("bar", 1).has_value());
  auto bar = dict.Intern("bar", 1);
  ASSERT_TRUE(bar.ok());
  auto found = dict.Lookup("bar", 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, *bar);
}

TEST(DictionaryTest, NameAndHashRoundTrip) {
  Dictionary dict;
  auto id = dict.Intern("hello_world", 3);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dict.NameOf(*id), "hello_world");
  EXPECT_EQ(dict.HashOf(*id), base::HashFunctor("hello_world", 3));
}

TEST(DictionaryTest, RemoveMakesSlotReusableWithoutRelocation) {
  Dictionary dict;
  auto a = dict.Intern("a", 0);
  auto b = dict.Intern("b", 0);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(dict.Remove(*a).ok());
  EXPECT_FALSE(dict.IsLive(*a));
  // b is untouched (paper point 4: no relocation).
  EXPECT_TRUE(dict.IsLive(*b));
  EXPECT_EQ(dict.NameOf(*b), "b");
  // Removing again fails.
  EXPECT_FALSE(dict.Remove(*a).ok());
}

TEST(DictionaryTest, RemovedSymbolCanBeReinterned) {
  Dictionary dict;
  auto a = dict.Intern("transient", 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(dict.Remove(*a).ok());
  auto a2 = dict.Intern("transient", 5);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(dict.IsLive(*a2));
  EXPECT_EQ(dict.NameOf(*a2), "transient");
}

TEST(DictionaryTest, ExternalMarkIsClearedByRemoveAndSlotReuse) {
  Dictionary::Options options;
  options.segment_capacity = 8;
  Dictionary dict(options);
  auto alpha = dict.Intern("alpha", 0);
  ASSERT_TRUE(alpha.ok());
  const uint64_t alpha_hash = dict.HashOf(*alpha);
  // Unmarked: the probe does not answer for it.
  EXPECT_FALSE(dict.FindExternal(alpha_hash).has_value());
  dict.MarkExternal(*alpha, alpha_hash);
  auto found = dict.FindExternal(alpha_hash);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, *alpha);
  EXPECT_EQ(found->arity, 0u);

  // A removed slot is unmarked, and the probe never returns it.
  ASSERT_TRUE(dict.Remove(*alpha).ok());
  EXPECT_FALSE(dict.FindExternal(alpha_hash).has_value());

  // Another symbol whose home slot is alpha's lands on its tombstone and
  // takes its id; the reused slot starts unmarked.
  const uint32_t home = *alpha & (options.segment_capacity - 1);
  std::string other;
  for (int i = 0;; ++i) {
    other = "other" + std::to_string(i);
    if ((base::HashFunctor(other, 1) & (options.segment_capacity - 1)) ==
        home) {
      break;
    }
  }
  auto reused = dict.Intern(other, 1);
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(*reused, *alpha) << "expected the tombstone to be reused";
  EXPECT_FALSE(dict.FindExternal(alpha_hash).has_value());
  EXPECT_FALSE(dict.FindExternal(dict.HashOf(*reused)).has_value());
  dict.MarkExternal(*reused, dict.HashOf(*reused));
  found = dict.FindExternal(dict.HashOf(*reused));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, *reused);
  EXPECT_EQ(found->arity, 1u);
  EXPECT_FALSE(dict.FindExternal(alpha_hash).has_value());
}

TEST(DictionaryTest, MarkExternalRefusesAForeignHash) {
  // The external dictionary remaps the one hash BANG reserves; a symbol
  // whose external hash is not its own must stay on the miss path.
  Dictionary dict;
  auto beta = dict.Intern("beta", 2);
  ASSERT_TRUE(beta.ok());
  const uint64_t own = dict.HashOf(*beta);
  dict.MarkExternal(*beta, own ^ 1);
  EXPECT_FALSE(dict.FindExternal(own).has_value());
  EXPECT_FALSE(dict.FindExternal(own ^ 1).has_value());
}

TEST(DictionaryTest, SegmentsChainedPastHighWater) {
  Dictionary::Options options;
  options.segment_capacity = 64;
  options.high_water = 0.70;
  Dictionary dict(options);
  // Fill well past one segment's high-water mark.
  for (int i = 0; i < 200; ++i) {
    auto id = dict.Intern("sym" + std::to_string(i), 0);
    ASSERT_TRUE(id.ok());
  }
  EXPECT_GE(dict.segment_count(), 3u);
  EXPECT_EQ(dict.size(), 200u);
  // All lookups still resolve.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(dict.Lookup("sym" + std::to_string(i), 0).has_value())
        << "sym" << i;
  }
}

TEST(DictionaryTest, OccupancyStaysBelowOneAlways) {
  Dictionary::Options options;
  options.segment_capacity = 32;
  Dictionary dict(options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(dict.Intern("x" + std::to_string(i), 0).ok());
  }
  for (size_t s = 0; s < dict.segment_count(); ++s) {
    EXPECT_LE(dict.SegmentOccupancy(s), 1.0);
  }
}

TEST(DictionaryTest, TombstoneReuseCountsInStats) {
  Dictionary::Options options;
  options.segment_capacity = 32;
  options.high_water = 0.99;  // keep everything in one segment
  Dictionary dict(options);
  std::vector<SymbolId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = dict.Intern("t" + std::to_string(i), 0);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (SymbolId id : ids) ASSERT_TRUE(dict.Remove(id).ok());
  dict.ResetStats();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(dict.Intern("u" + std::to_string(i), 0).ok());
  }
  EXPECT_GT(dict.stats().slot_reuses, 0u);
}

TEST(DictionaryTest, InterningExistingNamesInsertsNothing) {
  Dictionary dict;
  std::vector<SymbolId> ids;
  for (int i = 0; i < 100; ++i) {
    auto id = dict.Intern("e" + std::to_string(i), i % 3);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const uint64_t inserts = dict.stats().inserts;
  for (int i = 0; i < 100; ++i) {
    auto id = dict.Intern("e" + std::to_string(i), i % 3);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, ids[i]);
  }
  EXPECT_EQ(dict.stats().inserts, inserts);
  EXPECT_EQ(dict.size(), 100u);
}

// Four threads intern one mix of existing and new names, each in its own
// order: every name gets one id, the same in every thread. Under TSan
// this races the shared-latch probe against inserts of new names.
TEST(DictionaryTest, ConcurrentInternsAgreeOnIds) {
  Dictionary::Options options;
  options.segment_capacity = 64;  // new names chain segments mid-race
  Dictionary dict(options);
  std::vector<std::string> names;
  std::map<std::string, SymbolId> existing;
  for (int i = 0; i < 40; ++i) {
    names.push_back("old" + std::to_string(i));
    auto id = dict.Intern(names.back(), 1);
    ASSERT_TRUE(id.ok());
    existing[names.back()] = *id;
  }
  for (int i = 0; i < 120; ++i) names.push_back("new" + std::to_string(i));
  const uint64_t inserts = dict.stats().inserts;

  constexpr int kThreads = 4;
  std::vector<std::vector<SymbolId>> got(kThreads,
                                         std::vector<SymbolId>(names.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t k = 0; k < names.size(); ++k) {
          // Each thread walks the names from its own offset.
          const size_t i = (k + static_cast<size_t>(t) * 37) % names.size();
          auto id = dict.Intern(names[i], 1);
          got[t][i] = id.ok() ? *id : kInvalidSymbol;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_NE(got[0][i], kInvalidSymbol) << names[i];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(got[t][i], got[0][i]) << names[i] << " thread " << t;
    }
    auto it = existing.find(names[i]);
    if (it != existing.end()) {
      EXPECT_EQ(got[0][i], it->second) << names[i];
    }
    if (got[0][i] != kInvalidSymbol) {
      EXPECT_EQ(dict.NameOf(got[0][i]), names[i]);
    }
  }
  EXPECT_EQ(dict.stats().inserts, inserts + 120);
  EXPECT_EQ(dict.size(), names.size());
}

// Property test: a random interleaving of intern/remove/lookup agrees with
// a reference std::map model.
class DictionaryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictionaryPropertyTest, AgreesWithModel) {
  base::Rng rng(GetParam());
  Dictionary::Options options;
  options.segment_capacity = 64;
  Dictionary dict(options);

  std::map<std::pair<std::string, uint32_t>, SymbolId> model;
  for (int step = 0; step < 3000; ++step) {
    const std::string name = "n" + std::to_string(rng.Below(300));
    const uint32_t arity = static_cast<uint32_t>(rng.Below(3));
    const auto key = std::make_pair(name, arity);
    switch (rng.Below(3)) {
      case 0: {  // intern
        auto id = dict.Intern(name, arity);
        ASSERT_TRUE(id.ok());
        auto it = model.find(key);
        if (it != model.end()) {
          EXPECT_EQ(*id, it->second) << "existing symbol must keep its id";
        } else {
          model[key] = *id;
        }
        break;
      }
      case 1: {  // remove
        auto it = model.find(key);
        if (it != model.end()) {
          EXPECT_TRUE(dict.Remove(it->second).ok());
          model.erase(it);
        }
        break;
      }
      default: {  // lookup
        auto found = dict.Lookup(name, arity);
        auto it = model.find(key);
        EXPECT_EQ(found.has_value(), it != model.end());
        if (found && it != model.end()) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(dict.size(), model.size());
  // Ids in the model are unique.
  std::set<SymbolId> ids;
  for (const auto& [key, id] : model) {
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id";
    EXPECT_EQ(dict.NameOf(id), key.first);
    EXPECT_EQ(dict.ArityOf(id), key.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictionaryPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace educe::dict
