// Reproduces paper Table 2a/2b — the Wisconsin benchmark selections and
// joins Educe* ran to show its conventional-relational capabilities
// (§5.2): two 10000-tuple relations and one 1000-tuple relation, stored
// as the `code = false` case of the scheme — external fact relations in
// the BANG-filed EDB, clustered on unique1 and unique2 — and queried
// through Engine goals.
//
//   Q1  1% selection over 10000 tuples (scan: one_percent is not a key)
//   Q2  10% selection over 10000 tuples (scan: ten_percent)
//   Q3  select 1 tuple from 10000 (index: unique2 bound; scan: the same
//       test as `U2 =:= 2001` after an unbound goal)
//   Q4  two-way join of two 10000-tuple relations with a selection
//   Q5  three-way join (10000 x 1000 x 10000) with selections
//
// Both joins run as WAM conjunctions: the selection scans one relation
// and each qualifying row probes the next on unique1 (index nested
// loop). The hash-join format is not expressible: `unique2 < 1000` is a
// builtin, which the bottom-up evaluator rejects, so forcing it there
// falls back to the WAM. We report elapsed time plus the I/O frequencies
// of Table 2b — buffer accesses, pages read and pages written — for a
// cold first run (buffer pool and code cache dropped) and warm runs, and
// the rows the storage scan handled: rows examined in the walked pages,
// rows the BANG key selected, and rows decoded and shipped to the WAM
// (the rest fail pre-unification in the page).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "educe/engine.h"
#include "obs/profile.h"
#include "workloads/wisconsin.h"

namespace educe {
namespace {

using bench::Check;
using bench::CheckResult;
using bench::Ms;
using bench::Num;
using bench::Table;
using W = workloads::WisconsinWorkload;

constexpr int64_t kBig = 10000;
constexpr int64_t kSmall = 1000;
// The indexed point lookup must stay this many times cheaper than its
// scan format, in rows the BANG key selected. (Buffer accesses count one
// pin per page walked; binding one of two interleaved key attributes
// leaves about sqrt of the pages to walk.)
constexpr uint64_t kIndexAdvantage = 50;

struct QueryResult {
  uint64_t rows;
  double seconds;
  uint64_t buffer_accesses;
  uint64_t pages_read;
  uint64_t pages_written;
  uint64_t records_examined;
  uint64_t records_matched;
  uint64_t fact_rows_fetched;
};

// BANG scan counters summed over the benchmark's three relations.
storage::BangFileStats ScanStats(Engine* engine) {
  storage::BangFileStats sum;
  for (const char* name : {"tenk1", "tenk2", "onek"}) {
    const storage::BangFileStats& s =
        engine->clause_store()->Find(name, W::kArity)->relation->stats();
    sum.records_examined += s.records_examined;
    sum.records_matched += s.records_matched;
  }
  return sum;
}

QueryResult Run(Engine* engine, const std::string& goal, const char* id) {
  const EngineStats before = engine->Stats();
  const storage::BangFileStats scan_before = ScanStats(engine);
  base::Stopwatch watch;
  const uint64_t rows = CheckResult(engine->CountSolutions(goal), id);
  const double seconds = watch.ElapsedSeconds();
  const EngineStats after = engine->Stats();
  const storage::BangFileStats scan_after = ScanStats(engine);
  return {rows, seconds,
          after.buffer_pool.hits + after.buffer_pool.misses -
              before.buffer_pool.hits - before.buffer_pool.misses,
          after.paged_file.pages_read - before.paged_file.pages_read,
          after.paged_file.pages_written - before.paged_file.pages_written,
          scan_after.records_examined - scan_before.records_examined,
          scan_after.records_matched - scan_before.records_matched,
          after.clause_store.fact_rows_fetched -
              before.clause_store.fact_rows_fetched};
}

// The same selections through the WAM (DESIGN.md §14): a 10000-tuple
// wisc/4 relation consulted as compiled in-memory facts, probed with
// unbound-scan goals so every call backtracks down the full try chain.
// The warm execute_ns split is then almost pure emulator dispatch — the
// number the threaded/fused dispatch work moves.
int WamSection(bench::BenchJson* json) {
  // wisc(unique1, unique2, one_percent, ten) from tenk1's columns.
  std::string facts;
  facts.reserve(1u << 19);
  for (const W::Row& row : W::Rows(kBig, 1)) {
    facts += "wisc(" + std::to_string(row.ints[W::kUnique1]) + ", " +
             std::to_string(row.ints[W::kUnique2]) + ", " +
             std::to_string(row.ints[W::kOnePercent]) + ", " +
             std::to_string(row.ints[W::kTen]) + ").\n";
  }
  struct WamQuery {
    const char* id;
    const char* goal;
    uint64_t expect_rows;
  };
  Engine engine;
  Check(engine.Consult(facts), "wisc consult");
  engine.SetProfiling(true);
  // The section reads query profiles, not trace spans. A full scan
  // records one span per solution, more than a tracer ring holds, so
  // span recording stays off rather than overflowing the ring.
  engine.tracer()->SetEnabled(false);
  auto count = [&engine](const WamQuery& query) {
    return CheckResult(engine.CountSolutions(query.goal), query.id);
  };

  const WamQuery queries[] = {
      {"W1 (1% sel)", "wisc(U1, U2, 50, T)", 100},
      {"W2 (10% sel)", "wisc(U1, U2, P, 5)", 1000},
      {"W3 (full scan)", "wisc(U1, U2, P, T)", kBig},
  };

  Table table("Wisconsin selections through the WAM (unbound scans over "
              "compiled wisc/4)");
  table.Header({"query", "rows", "warm p50", "warm p95",
                "execute p50 (ms)", "instructions"});
  int index = 0;
  for (const WamQuery& query : queries) {
    // First run pays compilation/linking of the 10000-clause procedure;
    // warm runs execute cached linked code.
    if (count(query) != query.expect_rows) {
      std::fprintf(stderr, "FATAL %s: wrong warm-up row count\n", query.id);
      return 1;
    }
    constexpr int kWarmRuns = 9;
    obs::Histogram total_ns;
    obs::Histogram execute_ns;
    uint64_t instructions = 0;
    for (int i = 0; i < kWarmRuns; ++i) {
      const uint64_t rows = count(query);
      if (rows != query.expect_rows) {
        std::fprintf(stderr, "FATAL %s: expected %llu rows, got %llu\n",
                     query.id,
                     static_cast<unsigned long long>(query.expect_rows),
                     static_cast<unsigned long long>(rows));
        return 1;
      }
      const auto profiles = engine.RecentProfiles();
      if (profiles.empty()) {
        std::fprintf(stderr, "FATAL %s: no query profile\n", query.id);
        return 1;
      }
      const obs::QueryProfile& p = profiles.back();
      total_ns.Record(p.total_ns);
      execute_ns.Record(p.execute_ns);
      instructions = p.instructions;
    }
    table.Row({query.id, Num(query.expect_rows),
               Ms(total_ns.Percentile(50) * 1e-9),
               Ms(total_ns.Percentile(95) * 1e-9),
               Ms(execute_ns.Percentile(50) * 1e-9), Num(instructions)});
    const std::string prefix = "wam_w" + std::to_string(++index);
    json->Add(prefix + "_rows", query.expect_rows);
    json->Add(prefix + "_warm_ms", total_ns.Percentile(50) * 1e-6);
    json->Add(prefix + "_warm_execute_ms", execute_ns.Percentile(50) * 1e-6);
    json->AddHistogram(prefix + "_execute", execute_ns);
  }
  table.Print();
  return 0;
}

int Main() {
  EngineOptions options;
  options.buffer_frames = 2048;  // relations fit: warm runs hit the pool
  Engine engine(options);
  Check(W::Store(&engine, "tenk1", kBig, 1), "tenk1");
  Check(W::Store(&engine, "tenk2", kBig, 2), "tenk2");
  Check(W::Store(&engine, "onek", kSmall, 3), "onek");

  struct Query {
    const char* id;
    const char* format;
    std::string goal;
    uint64_t expect_rows;
  };
  const std::vector<Query> queries = {
      {"Q1 (1% sel)", "scan", W::Goal("tenk1", {{W::kOnePercent, "50"}}),
       100},
      {"Q2 (10% sel)", "scan", W::Goal("tenk1", {{W::kTenPercent, "5"}}),
       1000},
      {"Q3 (1 tuple)", "index unique2",
       W::Goal("tenk1", {{W::kUnique2, "2001"}}), 1},
      {"Q3 (1 tuple)", "scan",
       W::Goal("tenk1", {{W::kUnique2, "U2"}}) + ", U2 =:= 2001", 1},
      // JoinAselB: tenk1 join (10% of tenk2) on unique1.
      {"Q4 (2-way join)", "index nested loop",
       W::Goal("tenk2", {{W::kUnique1, "A"}, {W::kUnique2, "B"}}) +
           ", B < 1000, " + W::Goal("tenk1", {{W::kUnique1, "A"}}),
       1000},
      // Three-way: sel(tenk1) x onek x sel(tenk2), all on unique1.
      {"Q5 (3-way join)", "index nested loop",
       W::Goal("tenk1", {{W::kUnique1, "A"}, {W::kUnique2, "B"}}) +
           ", B < 1000, " + W::Goal("onek", {{W::kUnique1, "A"}}) + ", " +
           W::Goal("tenk2", {{W::kUnique1, "A"}, {W::kUnique2, "C"}}) +
           ", C < 1000",
       14},
  };

  Table t2a("Table 2a: Wisconsin times (ms; 10000-tuple relations)");
  t2a.Header({"query", "format", "rows", "cold run", "warm p50", "warm p95"});
  Table t2b("Table 2b: Wisconsin I/O frequencies");
  t2b.Header({"query", "format", "buffer acc", "pages read", "pages written",
              "buffer acc (warm)", "pages read (warm)"});
  Table rows_table("Rows through the storage scan (warm run)");
  rows_table.Header({"query", "format", "examined", "key selected",
                     "decoded"});

  bench::BenchJson json;
  json.Add("bench", std::string("wisconsin"));
  json.AddHostCores();
  json.AddToolchain();
  std::vector<uint64_t> warm_selected;
  int query_index = 0;
  for (const Query& query : queries) {
    auto fatal = [&](const char* what, uint64_t value) {
      std::fprintf(stderr, "FATAL %s / %s: %s %llu (expected %llu rows)\n",
                   query.id, query.format, what,
                   static_cast<unsigned long long>(value),
                   static_cast<unsigned long long>(query.expect_rows));
      return 1;
    };
    // Cold: empty buffer pool and code cache.
    Check(engine.ResetBufferCache(/*drop_code_cache=*/true), "reset");
    const QueryResult cold = Run(&engine, query.goal, query.id);
    if (cold.rows != query.expect_rows) return fatal("cold rows", cold.rows);
    // Warm: repeat enough times for percentiles; the log-bucketed
    // histogram makes the p50/p95 spread visible where a single warm
    // sample hid scheduler noise.
    constexpr int kWarmRuns = 9;
    obs::Histogram warm_ns;
    QueryResult warm{};
    for (int i = 0; i < kWarmRuns; ++i) {
      warm = Run(&engine, query.goal, query.id);
      warm_ns.Record(static_cast<uint64_t>(warm.seconds * 1e9));
      if (warm.rows != query.expect_rows) return fatal("warm rows", warm.rows);
    }
    if (warm.pages_read != 0) return fatal("warm pages read", warm.pages_read);
    warm_selected.push_back(warm.records_matched);
    t2a.Row({query.id, query.format, Num(cold.rows), Ms(cold.seconds),
             Ms(warm_ns.Percentile(50) * 1e-9),
             Ms(warm_ns.Percentile(95) * 1e-9)});
    t2b.Row({query.id, query.format, Num(cold.buffer_accesses),
             Num(cold.pages_read), Num(cold.pages_written),
             Num(warm.buffer_accesses), Num(warm.pages_read)});
    rows_table.Row({query.id, query.format, Num(warm.records_examined),
                    Num(warm.records_matched), Num(warm.fact_rows_fetched)});
    const std::string prefix = "q" + std::to_string(query_index++);
    json.Add(prefix + "_id", std::string(query.id) + " / " + query.format);
    json.Add(prefix + "_rows", cold.rows);
    json.Add(prefix + "_cold_ms", cold.seconds * 1e3);
    json.Add(prefix + "_warm_ms", warm_ns.Percentile(50) * 1e-6);
    json.AddHistogram(prefix + "_warm", warm_ns);
    json.Add(prefix + "_cold_buffer_accesses", cold.buffer_accesses);
    json.Add(prefix + "_warm_buffer_accesses", warm.buffer_accesses);
    json.Add(prefix + "_cold_pages_read", cold.pages_read);
    json.Add(prefix + "_warm_pages_read", warm.pages_read);
    json.Add(prefix + "_cold_pages_written", cold.pages_written);
    json.Add(prefix + "_warm_records_examined", warm.records_examined);
    json.Add(prefix + "_warm_records_selected", warm.records_matched);
    json.Add(prefix + "_warm_fact_rows_decoded", warm.fact_rows_fetched);
  }
  t2a.Print();
  t2b.Print();
  rows_table.Print();
  // queries[2] and queries[3] are Q3's index and scan formats.
  const uint64_t index_cost = warm_selected[2];
  const uint64_t scan_cost = warm_selected[3];
  std::printf(
      "\nQ3 index lookup: %llu rows selected by the BANG key vs %llu for "
      "the scan (bar: >= %llux fewer). Hash-join formats are not "
      "expressible: the bottom-up evaluator rejects the `unique2 < 1000` "
      "builtin.\n",
      static_cast<unsigned long long>(index_cost),
      static_cast<unsigned long long>(scan_cost),
      static_cast<unsigned long long>(kIndexAdvantage));
  if (index_cost * kIndexAdvantage > scan_cost) {
    std::fprintf(stderr, "FATAL Q3: index lookup is not %llux cheaper "
                 "than the scan\n",
                 static_cast<unsigned long long>(kIndexAdvantage));
    return 1;
  }
  if (const int rc = WamSection(&json); rc != 0) return rc;
  json.Print();
  return 0;
}

}  // namespace
}  // namespace educe

int main() { return educe::Main(); }
