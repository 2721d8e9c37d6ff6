#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workloads/integrity.h"
#include "workloads/mvv.h"
#include "workloads/wisconsin.h"

namespace educe::workloads {
namespace {

TEST(MvvWorkloadTest, CardinalitiesMatchPaper) {
  MvvWorkload mvv;
  // Count generated facts per relation.
  auto count = [&](const std::string& prefix) {
    size_t n = 0, pos = 0;
    while ((pos = mvv.facts().find(prefix, pos)) != std::string::npos) {
      ++n;
      pos += prefix.size();
    }
    return n;
  };
  EXPECT_EQ(count("location2("), 2307u);
  EXPECT_EQ(count("schedule3("), 8776u);
  EXPECT_EQ(count("schedule2("), 7260u);
  EXPECT_EQ(mvv.class1_queries().size(), 10u);
  EXPECT_EQ(mvv.class2_queries().size(), 10u);
}

TEST(MvvWorkloadTest, QueriesHaveSolutions) {
  MvvWorkload::Config config;
  config.num_stops = 300;          // small instance for test speed
  config.schedule3_rows = 1200;
  config.schedule2_rows = 900;
  config.num_lines = 20;
  MvvWorkload mvv(config);

  Engine engine;
  ASSERT_TRUE(mvv.Setup(&engine, /*rules_external=*/false).ok());

  int class1_hits = 0;
  for (const std::string& q : mvv.class1_queries()) {
    auto ok = engine.Succeeds(q);
    ASSERT_TRUE(ok.ok()) << ok.status() << " for " << q;
    class1_hits += *ok ? 1 : 0;
  }
  EXPECT_GE(class1_hits, 8) << "adjacent-stop queries should mostly succeed";

  int class2_hits = 0;
  for (const std::string& q : mvv.class2_queries()) {
    auto ok = engine.Succeeds(q);
    ASSERT_TRUE(ok.ok()) << ok.status() << " for " << q;
    class2_hits += *ok ? 1 : 0;
  }
  EXPECT_GE(class2_hits, 5) << "one-change queries should often succeed";
}

TEST(MvvWorkloadTest, ModesAgreeOnASmallInstance) {
  MvvWorkload::Config config;
  config.num_stops = 120;
  config.schedule3_rows = 400;
  config.schedule2_rows = 300;
  config.num_lines = 10;
  MvvWorkload mvv(config);

  auto count_solutions = [&](RuleStorage mode, bool external) {
    EngineOptions options;
    options.rule_storage = mode;
    Engine engine(options);
    EXPECT_TRUE(mvv.Setup(&engine, external).ok());
    uint64_t total = 0;
    for (const std::string& q : mvv.class2_queries()) {
      auto n = engine.CountSolutions(q);
      EXPECT_TRUE(n.ok()) << n.status();
      total += n.ValueOr(0);
    }
    return total;
  };

  const uint64_t internal = count_solutions(RuleStorage::kCompiled, false);
  const uint64_t compiled = count_solutions(RuleStorage::kCompiled, true);
  const uint64_t source = count_solutions(RuleStorage::kSource, true);
  EXPECT_EQ(compiled, internal);
  EXPECT_EQ(source, internal);
}

TEST(IntegrityWorkloadTest, ShapeMatchesPaper) {
  IntegrityWorkload ic;
  auto count = [&](const std::string& text, const std::string& prefix) {
    size_t n = 0, pos = 0;
    while ((pos = text.find(prefix, pos)) != std::string::npos) {
      ++n;
      pos += prefix.size();
    }
    return n;
  };
  EXPECT_EQ(count(ic.facts(), "employee("), 4000u);
  EXPECT_EQ(count(ic.facts(), "dept_location("), 48u);  // the ~50x2 relation
  EXPECT_EQ(count(ic.constraints(), "constraint("),
            5u * 30u);  // 5 schemas x variants
  EXPECT_EQ(ic.updates().size(), 5u);
}

TEST(IntegrityWorkloadTest, PreprocessSpecialises) {
  IntegrityWorkload::Config config;
  config.employee_rows = 50;  // facts are not touched by preprocess anyway
  config.variants_per_constraint = 6;
  IntegrityWorkload ic(config);

  Engine engine;
  ASSERT_TRUE(ic.Setup(&engine, /*constraints_external=*/false).ok());

  // Preprocess never touches the fact relations.
  engine.ResetStats();
  std::vector<uint64_t> counts;
  for (int k = 0; k < 5; ++k) {
    auto first = engine.First("spec_count(" + ic.updates()[k] + ", N)");
    ASSERT_TRUE(first.ok()) << first.status();
    counts.push_back(std::stoull((*first)["N"]));
  }
  EXPECT_EQ(engine.Stats().clause_store.fact_rows_fetched, 0u)
      << "preprocess must not read facts";

  // Updates are ordered by increasing generality: u5 (all variables)
  // matches at least as many literals as the ground u1.
  EXPECT_GT(counts[4], counts[0]);
  EXPECT_GT(counts[4], 0u);
  // The fully-general update resolves against every employee literal:
  // schemas C1..C5 contribute 1+1+2+1+1 = 6 per variant.
  EXPECT_EQ(counts[4], 6u * 6u);
}

TEST(IntegrityWorkloadTest, ExternalAndInternalAgree) {
  IntegrityWorkload::Config config;
  config.employee_rows = 20;
  config.variants_per_constraint = 4;
  IntegrityWorkload ic(config);

  auto run = [&](bool external) {
    Engine engine;
    EXPECT_TRUE(ic.Setup(&engine, external).ok());
    std::vector<std::string> out;
    for (int k = 0; k < 5; ++k) {
      auto first = engine.First("spec_count(" + ic.updates()[k] + ", N)");
      EXPECT_TRUE(first.ok()) << first.status();
      out.push_back(first.ok() ? (*first)["N"] : "?");
    }
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

using Wisconsin = WisconsinWorkload;

// Every row of `name`/16 as the engine answers an all-unbound goal, in
// solution order.
std::vector<Wisconsin::Row> ReadWisconsin(Engine* engine,
                                          std::string_view name) {
  std::vector<std::pair<Wisconsin::Column, std::string>> args;
  for (uint32_t c = 0; c < Wisconsin::kArity; ++c) {
    args.emplace_back(static_cast<Wisconsin::Column>(c),
                      "C" + std::to_string(c));
  }
  std::vector<Wisconsin::Row> rows;
  auto solutions = engine->Query(Wisconsin::Goal(name, args));
  EXPECT_TRUE(solutions.ok()) << solutions.status();
  if (!solutions.ok()) return rows;
  while (true) {
    auto more = (*solutions)->Next();
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    Wisconsin::Row row;
    for (uint32_t c = 0; c < Wisconsin::kArity; ++c) {
      const term::AstPtr value =
          (*solutions)->BindingAst("C" + std::to_string(c));
      if (c < Wisconsin::kIntColumns) {
        row.ints[c] = value->int_value;
      } else {
        row.strings[c - Wisconsin::kIntColumns] =
            std::string(engine->dictionary()->NameOf(value->functor));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(WisconsinWorkloadTest, WisconsinShape) {
  Engine engine;
  ASSERT_TRUE(Wisconsin::Store(&engine, "tenk", 1000, 42).ok());

  const std::vector<Wisconsin::Row> rows = ReadWisconsin(&engine, "tenk");
  ASSERT_EQ(rows.size(), 1000u);
  std::set<int64_t> unique1;
  std::set<int64_t> unique2;
  for (const Wisconsin::Row& row : rows) {
    const int64_t u1 = row.ints[Wisconsin::kUnique1];
    EXPECT_GE(u1, 0);
    EXPECT_LT(u1, 1000);
    unique1.insert(u1);
    unique2.insert(row.ints[Wisconsin::kUnique2]);
    EXPECT_EQ(row.ints[Wisconsin::kTwo], u1 % 2);
    EXPECT_EQ(row.ints[Wisconsin::kFour], u1 % 4);
    EXPECT_EQ(row.ints[Wisconsin::kTen], u1 % 10);
    EXPECT_EQ(row.ints[Wisconsin::kTwenty], u1 % 20);
    EXPECT_EQ(row.ints[Wisconsin::kOnePercent], u1 % 100);
    EXPECT_EQ(row.ints[Wisconsin::kTenPercent], u1 % 10);
    EXPECT_EQ(row.ints[Wisconsin::kTwentyPercent], u1 % 5);
    EXPECT_EQ(row.ints[Wisconsin::kFiftyPercent], u1 % 2);
    EXPECT_EQ(row.ints[Wisconsin::kUnique3], u1);
    EXPECT_EQ(row.ints[Wisconsin::kEvenOnePercent], (u1 % 100) * 2);
    EXPECT_EQ(row.ints[Wisconsin::kOddOnePercent], (u1 % 100) * 2 + 1);
    for (const std::string& text : row.strings) EXPECT_EQ(text.size(), 52u);
  }
  // unique1 is a permutation of [0, n); unique2 is [0, n).
  EXPECT_EQ(unique1.size(), 1000u);
  EXPECT_EQ(unique2.size(), 1000u);

  auto point = engine.CountSolutions(
      Wisconsin::Goal("tenk", {{Wisconsin::kUnique2, "500"}}));
  ASSERT_TRUE(point.ok()) << point.status();
  EXPECT_EQ(*point, 1u);
  auto one_percent = engine.CountSolutions(
      Wisconsin::Goal("tenk", {{Wisconsin::kOnePercent, "50"}}));
  ASSERT_TRUE(one_percent.ok()) << one_percent.status();
  EXPECT_EQ(*one_percent, 10u);  // 1% of 1000
}

TEST(WisconsinWorkloadTest, WisconsinDeterministicAcrossSeedReuse) {
  Engine a;
  Engine b;
  ASSERT_TRUE(Wisconsin::Store(&a, "w", 200, 7).ok());
  ASSERT_TRUE(Wisconsin::Store(&b, "w", 200, 7).ok());
  const std::vector<Wisconsin::Row> rows_a = ReadWisconsin(&a, "w");
  EXPECT_EQ(rows_a.size(), 200u);
  EXPECT_EQ(rows_a, ReadWisconsin(&b, "w"));
}

// The index format must stay an index probe: a regression that turns the
// unique2 point goal into a scan fails here, not only in bench_wisconsin.
// The bar counts rows the BANG key selected (a cursor walks one pinned
// page at a time, so pool accesses only count pages); the pages the key
// could not exclude show in records_examined.
TEST(WisconsinWorkloadTest, PointGoalOnKeyColumnBeatsScan) {
  Engine engine;
  ASSERT_TRUE(Wisconsin::Store(&engine, "tenk", 1000, 42).ok());
  const storage::BangFileStats& bang =
      engine.clause_store()->Find("tenk", Wisconsin::kArity)->relation->stats();
  const std::string point =
      Wisconsin::Goal("tenk", {{Wisconsin::kUnique2, "500"}});
  const std::string scan =
      Wisconsin::Goal("tenk", {{Wisconsin::kUnique2, "U2"}}) +
      ", U2 =:= 500";

  struct Cost {
    uint64_t matched;
    uint64_t examined;
  };
  auto cost = [&](const std::string& goal) {
    const Cost before{bang.records_matched, bang.records_examined};
    auto count = engine.CountSolutions(goal);
    EXPECT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(count.ok() ? *count : 0, 1u) << goal;
    return Cost{bang.records_matched - before.matched,
                bang.records_examined - before.examined};
  };
  const Cost point_cost = cost(point);
  const Cost scan_cost = cost(scan);
  EXPECT_GT(point_cost.matched, 0u);
  EXPECT_LT(point_cost.matched * 10, scan_cost.matched)
      << "point " << point_cost.matched << " vs scan " << scan_cost.matched;
  // Binding one of two interleaved key attributes excludes buckets too.
  EXPECT_LT(point_cost.examined * 4, scan_cost.examined)
      << "point " << point_cost.examined << " vs scan " << scan_cost.examined;
}

}  // namespace
}  // namespace educe::workloads
