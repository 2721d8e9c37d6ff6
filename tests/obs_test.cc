// The observability layer (DESIGN.md §11): histogram bucket math and
// merge associativity, tracer span recording, per-query cost profiles
// with the paper's §3.2.1 choice-point-elimination counters, the metrics
// export document, and the slow-query log.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "educe/engine.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace educe {
namespace {

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, BucketRoundTrip) {
  // Every value's bucket lower bound must land back in the same bucket,
  // and be no larger than the value (percentiles never overstate).
  const uint64_t samples[] = {0,    1,    3,         4,         5,         7,
                              8,    100,  1000,      123456789, UINT64_MAX};
  for (uint64_t v : samples) {
    const size_t index = obs::Histogram::BucketIndex(v);
    ASSERT_LT(index, obs::Histogram::kBuckets);
    const uint64_t lower = obs::Histogram::BucketLowerBound(index);
    EXPECT_LE(lower, v) << v;
    EXPECT_EQ(obs::Histogram::BucketIndex(lower), index) << v;
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  obs::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 3u);
  EXPECT_EQ(h.Percentile(100), 3u);
  EXPECT_EQ(h.Percentile(25), 0u);
}

TEST(HistogramTest, PercentilesBracketTheSamples) {
  obs::Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i * 1000);  // 1us..1ms
  EXPECT_EQ(h.count(), 1000u);
  // Bucket lower bounds are within one octave sub-bucket (~12.5%) below
  // the true percentile value.
  const uint64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, 400000u);
  EXPECT_LE(p50, 500000u);
  const uint64_t p99 = h.Percentile(99);
  EXPECT_GE(p99, 800000u);
  EXPECT_LE(p99, 990000u);
  EXPECT_EQ(h.Percentile(100), 1000000u);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  // Merging is bucket-wise addition, so any merge tree over the same
  // samples must yield the identical histogram — the property that makes
  // per-worker instances safe to fold in any retirement order.
  obs::Histogram a, b, c;
  for (uint64_t i = 0; i < 100; ++i) a.Record(i * 7 + 1);
  for (uint64_t i = 0; i < 50; ++i) b.Record(i * 1000 + 13);
  for (uint64_t i = 0; i < 77; ++i) c.Record(i * i + 3);

  obs::Histogram left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  obs::Histogram right = b;  // a + (b + c)
  right.Merge(c);
  obs::Histogram right_total = a;
  right_total.Merge(right);

  EXPECT_EQ(left.count(), right_total.count());
  EXPECT_EQ(left.sum(), right_total.sum());
  EXPECT_EQ(left.min(), right_total.min());
  EXPECT_EQ(left.max(), right_total.max());
  EXPECT_EQ(left.buckets(), right_total.buckets());
  for (double p : {50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(left.Percentile(p), right_total.Percentile(p)) << p;
  }

  obs::Histogram ba = b;  // commutativity
  ba.Merge(a);
  obs::Histogram ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.sum(), ba.sum());
}

TEST(HistogramTest, JsonHasPercentileKeys) {
  obs::Histogram h;
  h.Record(42);
  const std::string json = h.ToJson();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"max\":42"), std::string::npos);
}

// --- Tracer ---------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, obs::SpanKind::kDecode);
  }
  tracer.Record(obs::SpanKind::kResolve, 1, 2, 3);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Drain().empty());
}

TEST(TracerTest, RecordsAndDrainsInStartOrder) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.Record(obs::SpanKind::kDecode, /*start_ns=*/200, /*duration_ns=*/5,
                /*detail=*/1);
  tracer.Record(obs::SpanKind::kLink, /*start_ns=*/100, /*duration_ns=*/7,
                /*detail=*/2);
  EXPECT_EQ(tracer.recorded(), 2u);
  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kLink);
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[1].kind, obs::SpanKind::kDecode);
  // Drain clears the buffered window but not the cumulative counters.
  EXPECT_TRUE(tracer.Drain().empty());
  EXPECT_EQ(tracer.recorded(), 2u);
  tracer.Clear();
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, OverwritesOldestAndCountsDrops) {
  obs::Tracer tracer(/*ring_capacity=*/4);
  tracer.SetEnabled(true);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record(obs::SpanKind::kExecute, i, 1, i);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 4u);  // the newest window survives
  EXPECT_EQ(spans.front().start_ns, 6u);
  EXPECT_EQ(spans.back().start_ns, 9u);
}

TEST(TracerTest, ScopedSpanMeasuresDuration) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  {
    obs::ScopedSpan span(&tracer, obs::SpanKind::kPageRead, 77);
  }
  const std::vector<obs::SpanRecord> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kPageRead);
  EXPECT_EQ(spans[0].detail, 77u);
}

TEST(TracerTest, DrainJsonNamesTheKinds) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.Record(obs::SpanKind::kCacheLookup, 1, 2, 3);
  const std::string json = tracer.DrainJson();
  EXPECT_NE(json.find("cache_lookup"), std::string::npos) << json;
}

// --- Per-query profiles ---------------------------------------------------

// Paper §3.2.1: a retrieval whose clustering key is fully bound matches
// at most one record, so the resolver proves the choice point away — the
// profile must show zero choice points created and the elimination
// counted.
TEST(QueryProfileTest, FullyBoundKeyEliminatesChoicePoints) {
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  ASSERT_TRUE(engine.DeclareRelation("item", 2, {0}).ok());
  std::string facts;
  for (int i = 0; i < 50; ++i) {
    facts += "item(" + std::to_string(i) + ", v" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());
  engine.ResetStats();

  auto count = engine.CountSolutions("item(7, X)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);

  const std::vector<obs::QueryProfile> profiles = engine.RecentProfiles();
  ASSERT_EQ(profiles.size(), 1u);
  const obs::QueryProfile& p = profiles[0];
  EXPECT_EQ(p.goal, "item(7, X)");
  EXPECT_EQ(p.solutions, 1u);
  EXPECT_EQ(p.choice_points_created, 0u);
  EXPECT_GE(p.choice_points_eliminated, 1u);
  EXPECT_GT(p.instructions, 0u);
}

TEST(QueryProfileTest, AblationOffCreatesChoicePoints) {
  // The contrast run: with elimination disabled the same retrieval pays
  // a choice point and proves nothing away.
  EngineOptions options;
  options.profiling = true;
  options.choice_point_elimination = false;
  Engine engine(options);
  ASSERT_TRUE(engine.DeclareRelation("item", 2, {0}).ok());
  ASSERT_TRUE(engine.StoreFactsExternal("item(1, a). item(2, b).").ok());
  engine.ResetStats();

  auto count = engine.CountSolutions("item(1, X)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);

  const std::vector<obs::QueryProfile> profiles = engine.RecentProfiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_GE(profiles[0].choice_points_created, 1u);
  EXPECT_EQ(profiles[0].choice_points_eliminated, 0u);
}

TEST(QueryProfileTest, StoredRuleQueryReportsCostSplit) {
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreFactsExternal("edge(a, b). edge(b, c).").ok());
  ASSERT_TRUE(
      engine.StoreRulesExternal("hop(X, Y) :- edge(X, Z), edge(Z, Y).").ok());
  engine.ResetStats();

  auto count = engine.CountSolutions("hop(a, Y)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);

  const std::vector<obs::QueryProfile> profiles = engine.RecentProfiles();
  ASSERT_EQ(profiles.size(), 1u);
  const obs::QueryProfile& p = profiles[0];
  // The stored rule was decoded and linked for this query; both costs
  // are sub-components of the resolver trap, which is under the total.
  EXPECT_GT(p.clauses_decoded, 0u);
  EXPECT_GT(p.resolve_ns, 0u);
  EXPECT_LE(p.decode_ns + p.link_ns, p.resolve_ns);
  EXPECT_LE(p.resolve_ns, p.total_ns);
  EXPECT_EQ(p.execute_ns, p.total_ns - p.resolve_ns);
  // The opcode-class counters cover every instruction executed.
  uint64_t op_sum = 0;
  for (uint64_t n : p.op_class) op_sum += n;
  EXPECT_EQ(op_sum, p.instructions);
  EXPECT_GT(p.heap_high_water, 0u);
  // Its JSON carries the split.
  const std::string json = p.ToJson();
  EXPECT_NE(json.find("\"decode_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"choice_points_eliminated\""), std::string::npos);
}

TEST(QueryProfileTest, ProfilingOffCollectsNothing) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2).").ok());
  auto count = engine.CountSolutions("p(X)");
  ASSERT_TRUE(count.ok());
  EXPECT_TRUE(engine.RecentProfiles().empty());
  EXPECT_EQ(engine.tracer()->recorded(), 0u);
  // Latency is always-on, profiling or not.
  EXPECT_EQ(engine.QueryLatencyHistogram().count(), 1u);
}

TEST(QueryProfileTest, SlowQueryLogWritesJsonLine) {
  EngineOptions options;
  options.slow_query_ns = 1;  // every query is "slow"
  Engine engine(options);
  std::ostringstream log;
  engine.set_metrics_log(&log);
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  auto count = engine.CountSolutions("p(X)");
  ASSERT_TRUE(count.ok());
  const std::string line = log.str();
  EXPECT_NE(line.find("SLOW_QUERY "), std::string::npos) << line;
  EXPECT_NE(line.find("\"goal\":\"p(X)\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_ns\""), std::string::npos);
}

// --- Metrics export -------------------------------------------------------

TEST(MetricsExportTest, DocumentCarriesEverySection) {
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  ASSERT_TRUE(engine.DeclareRelation("item", 2, {0}).ok());
  ASSERT_TRUE(engine.StoreFactsExternal("item(1, a). item(2, b).").ok());
  ASSERT_TRUE(engine.StoreRulesExternal("r(X) :- item(X, _).").ok());
  ASSERT_TRUE(engine.CountSolutions("item(1, X)").ok());
  ASSERT_TRUE(engine.CountSolutions("r(X)").ok());

  const std::string json = engine.ExportMetricsJson();
  for (const char* key :
       {"\"profiling\":true", "\"query_latency_ns\"", "\"totals\"",
        "\"choice_points_created\"", "\"choice_points_eliminated\"",
        "\"decode_ns\"", "\"link_ns\"", "\"resolve_ns\"",
        "\"op_class_totals\"", "\"per_procedure\"", "\"spans\"",
        "\"memory\"", "\"paged_file_bytes\"",
        "\"code_cache_shard_max_bytes\"", "\"recent_queries\"",
        "\"execute_ns\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
  // The stored rule shows up in the per-procedure decode/link costs.
  EXPECT_NE(json.find("\"proc\":\"r/1\""), std::string::npos) << json;
}

TEST(MetricsExportTest, SpansSectionCarriesPerRingCounters) {
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ASSERT_TRUE(engine.CountSolutions("p(X)").ok());
  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"rings\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":"), std::string::npos);
}

TEST(MetricsExportTest, LocksSectionAlwaysPresent) {
  // Whatever the build mode, the locks section is valid and states
  // whether the profiler is compiled in (dashboards key off it).
  Engine engine;
  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"locks\":{"), std::string::npos) << json;
  const std::string expected = std::string("\"compiled\":") +
      (obs::LockProfiler::compiled_in() ? "true" : "false");
  EXPECT_NE(json.find(expected), std::string::npos) << json;
  EXPECT_NE(json.find("\"top_contended\""), std::string::npos);
}

TEST(MetricsExportTest, ShardOccupancyIsOrdered) {
  EngineOptions options;
  Engine engine(options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine
                    .StoreRulesExternal("q" + std::to_string(i) +
                                        "(X) :- X = " + std::to_string(i) +
                                        ".")
                    .ok());
    ASSERT_TRUE(engine.CountSolutions("q" + std::to_string(i) + "(X)").ok());
  }
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.memory.code_cache_shard_max_bytes,
            stats.memory.code_cache_shard_min_bytes);
  EXPECT_GT(stats.memory.code_cache_shard_max_bytes, 0u);
  // All shard occupancies sum to at most the global gauge; the max shard
  // cannot exceed the total resident bytes.
  EXPECT_LE(stats.memory.code_cache_shard_max_bytes,
            stats.memory.code_cache_resident_bytes);
}

TEST(MetricsExportTest, ResetStatsClearsObservability) {
  EngineOptions options;
  options.profiling = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ASSERT_TRUE(engine.CountSolutions("p(X)").ok());
  ASSERT_GE(engine.QueryLatencyHistogram().count(), 1u);
  ASSERT_FALSE(engine.RecentProfiles().empty());
  engine.ResetStats();
  EXPECT_EQ(engine.QueryLatencyHistogram().count(), 0u);
  EXPECT_TRUE(engine.RecentProfiles().empty());
  EXPECT_EQ(engine.tracer()->recorded(), 0u);
}

TEST(MetricsExportTest, ProfileToggleAtRuntime) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  EXPECT_FALSE(engine.profiling());
  engine.SetProfiling(true);
  EXPECT_TRUE(engine.profiling());
  ASSERT_TRUE(engine.CountSolutions("p(X)").ok());
  EXPECT_EQ(engine.RecentProfiles().size(), 1u);
  engine.SetProfiling(false);
  ASSERT_TRUE(engine.CountSolutions("p(X)").ok());
  EXPECT_EQ(engine.RecentProfiles().size(), 1u);  // unchanged
}

}  // namespace
}  // namespace educe
