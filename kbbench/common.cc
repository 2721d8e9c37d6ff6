#include "common.h"

#include <fstream>
#include <unordered_set>

#include "reader/parser.h"
#include "server/json.h"

namespace kbbench {

namespace {

constexpr const char* kCounterNames[kCounterCount] = {
    "wam.instructions",
    "wam.calls",
    "wam.choice_points",
    "wam.choice_points_eliminated",
    "wam.backtracks",
    "storage.buffer_hits",
    "storage.buffer_misses",
    "storage.buffer_evictions",
    "storage.pages_read",
    "storage.pages_written",
    "edb.fact_rows",
    "edb.bulk_fact_rows",
    "edb.rule_rows_scanned",
    "edb.rule_codes_fetched",
    "edb.clauses_decoded",
    "edb.cache_hits",
    "edb.cache_misses",
    "edb.cache_pattern_hits",
    "edb.cache_selection_hits",
    "edb.cache_pattern_misses",
    "edb.cache_invalidations",
    "rel.datalog_queries",
    "rel.plans_compiled",
    "rel.plan_cache_hits",
    "rel.iterations",
    "rel.tuples_derived",
    "rel.join_probes",
    "rel.dedup_hits",
    "rel.edb_rows",
    "storage.wal_records",
    "storage.wal_bytes",
    "storage.fsyncs",
    "storage.bang_records",
    "edb.dict_entries",
    "obs.latency_count",
};

}  // namespace

const char* CounterName(int c) { return kCounterNames[c]; }

Counts Snapshot(
    educe::Engine* engine,
    const std::vector<std::pair<std::string, uint32_t>>& relations) {
  const educe::EngineStats s = engine->Stats();
  Counts c;
  c.v[kInstructions] = s.machine.instructions;
  c.v[kCalls] = s.machine.calls;
  c.v[kChoicePoints] = s.machine.choice_points;
  c.v[kChoicePointsEliminated] = s.machine.choice_points_eliminated;
  c.v[kBacktracks] = s.machine.backtracks;
  c.v[kBufferHits] = s.buffer_pool.hits;
  c.v[kBufferMisses] = s.buffer_pool.misses;
  c.v[kBufferEvictions] = s.buffer_pool.evictions;
  c.v[kPagesRead] = s.paged_file.pages_read;
  c.v[kPagesWritten] = s.paged_file.pages_written;
  c.v[kFactRows] = s.clause_store.fact_rows_fetched;
  c.v[kBulkFactRows] = s.clause_store.bulk_fact_rows;
  c.v[kRuleRowsScanned] = s.clause_store.rule_rows_scanned;
  c.v[kRuleCodesFetched] = s.clause_store.rule_codes_fetched;
  c.v[kClausesDecoded] = s.loader.clauses_decoded;
  c.v[kCacheHits] = s.code_cache.hits;
  c.v[kCacheMisses] = s.code_cache.misses;
  c.v[kCachePatternHits] = s.code_cache.pattern_hits;
  c.v[kCacheSelectionHits] = s.code_cache.selection_hits;
  c.v[kCachePatternMisses] = s.code_cache.pattern_misses;
  c.v[kCacheInvalidations] = s.code_cache.invalidations;
  c.v[kDatalogQueries] = s.datalog.queries_bottom_up;
  c.v[kPlansCompiled] = s.datalog.plans_compiled;
  c.v[kPlanCacheHits] = s.datalog.plan_cache_hits;
  c.v[kIterations] = s.datalog.iterations;
  c.v[kTuplesDerived] = s.datalog.tuples_derived;
  c.v[kJoinProbes] = s.datalog.join_probes;
  c.v[kDedupHits] = s.datalog.dedup_hits;
  c.v[kEdbRows] = s.datalog.edb_rows;
  c.v[kWalRecords] = s.wal.records_appended;
  c.v[kWalBytes] = s.wal.bytes_appended;
  c.v[kFsyncs] = s.wal.fsyncs;
  uint64_t bang = 0;
  for (const auto& [name, arity] : relations) {
    const educe::edb::ProcedureInfo* proc =
        engine->clause_store()->Find(name, arity);
    if (proc != nullptr && proc->relation != nullptr) {
      bang += proc->relation->stats().records_examined;
    }
  }
  c.v[kBangRecords] = bang;
  c.v[kDictEntries] =
      engine->clause_store()->external_dictionary()->entry_count();
  c.v[kLatencyCount] = engine->QueryLatencyHistogram().count();
  return c;
}

void CheckRepeatable(const Counts& a, const Counts& b, const char* what) {
  for (int i = 0; i < kCounterCount; ++i) {
    if (a[i] == b[i]) continue;
    Die("repeatability: %s: %s differs between two runs of one seed "
        "(%llu vs %llu)",
        what, CounterName(i), Ull(a[i]), Ull(b[i]));
  }
}

double P50Ratio(const Samples* num, const Samples* den, int classes) {
  double log_sum = 0;
  int n = 0;
  for (int c = 0; c < classes; ++c) {
    if (num[c].empty() || den[c].empty()) continue;
    const double ratio = Ratio(num[c].Median(), den[c].Median());
    if (ratio <= 0) continue;
    log_sum += std::log(ratio);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

double GeoMeanP50(const Samples* classes, int n) {
  double log_sum = 0;
  int used = 0;
  for (int c = 0; c < n; ++c) {
    const double median = classes[c].Median();
    if (median <= 0) continue;
    log_sum += std::log(median);
    ++used;
  }
  return used == 0 ? 0 : std::exp(log_sum / used);
}

uint64_t StoreBytes(educe::Engine* engine) {
  const educe::EngineStats s = engine->Stats();
  return s.memory.paged_file_bytes + s.memory.wal_file_bytes;
}

std::string RequestLine(const std::string& goal, uint64_t id) {
  return "{\"op\":\"query\",\"goal\":" + educe::server::JsonQuote(goal) +
         ",\"id\":" + std::to_string(id) + "}";
}

Samples TimeRequestParse(const std::vector<std::string>& lines, int repeats) {
  Samples ms;
  for (int i = 0; i < repeats; ++i) {
    const uint64_t t0 = NowNs();
    for (const std::string& line : lines) {
      auto parsed = educe::server::ParseJson(line);
      if (!parsed.ok()) Die("request line does not parse: %s", line.c_str());
    }
    ms.Add(Ratio(MsSince(t0), static_cast<double>(lines.size())));
  }
  return ms;
}

Samples TimeReaderParse(const std::string& text, int repeats) {
  Samples s;
  for (int i = 0; i < repeats; ++i) {
    educe::dict::Dictionary dictionary;
    const uint64_t t0 = NowNs();
    auto terms = educe::reader::ParseProgram(&dictionary, text);
    s.Add((NowNs() - t0) * 1e-9);
    if (!terms.ok()) Die("reader: %s", terms.status().ToString().c_str());
  }
  return s;
}

Samples TimeScanAllFacts(educe::Engine* engine, const std::string& name,
                         uint32_t arity, uint64_t rows, int repeats,
                         SpanLog* spans) {
  educe::edb::ProcedureInfo* proc = engine->clause_store()->Find(name, arity);
  if (proc == nullptr) Die("%s/%u is not in the EDB", name.c_str(), arity);
  Samples ms;
  for (int i = 0; i < repeats; ++i) {
    uint64_t streamed = 0;
    const uint64_t t0 = NowNs();
    const uint32_t id = spans->Begin("ClauseStore::ScanAllFacts", 0);
    CheckResult(engine->clause_store()->ScanAllFacts(
                    proc,
                    [&](const educe::term::Ast&) {
                      ++streamed;
                      return educe::base::Status::OK();
                    }),
                "ScanAllFacts");
    spans->End(id);
    ms.Add(MsSince(t0));
    if (streamed != rows) {
      Die("ScanAllFacts on %s/%u streamed %llu rows, not %llu", name.c_str(),
          arity, Ull(streamed), Ull(rows));
    }
  }
  return ms;
}

void ReportLayerCounts(const LayerCounts& c, Report* report) {
  const Counts& r = c.reads;
  const Counts& w = c.writes;
  const double q = c.read_queries;
  report->Per("wam.instructions_per_query", r[kInstructions], q, "count");
  report->Per("wam.choice_points_per_query", r[kChoicePoints], q, "count");
  report->Per("wam.backtracks_per_query", r[kBacktracks], q, "count");
  report->Per("wam.cp_eliminated_ratio", r[kChoicePointsEliminated],
              static_cast<double>(r[kChoicePoints]) + r[kChoicePointsEliminated],
              "ratio");
  report->Per("edb.preunify_pass_ratio", r[kRuleCodesFetched],
              r[kRuleRowsScanned], "ratio");
  report->Per("edb.fact_rows_per_solution", r[kFactRows], c.read_solutions,
              "count");
  report->Metric("edb.code_cache_hit_ratio", CacheHitRatio(r), "ratio");
  report->Per("edb.clauses_decoded_per_query", r[kClausesDecoded], q, "count");
  report->Per("edb.invalidations_per_write", w[kCacheInvalidations],
              c.write_ops, "count");
  report->Per("edb.dict_entries_per_write", w[kDictEntries], c.write_ops,
              "count");
  report->Per("storage.buffer_hit_ratio", r[kBufferHits], BufferAccesses(r),
              "ratio");
  report->Per("storage.buffer_accesses_per_query", BufferAccesses(r), q,
              "count");
  report->Per("storage.evictions_per_query", r[kBufferEvictions], q, "count");
  report->Per("storage.pages_read_per_query", r[kPagesRead], q, "count");
  report->Per("storage.bang_records_per_row", r[kBangRecords], r[kFactRows],
              "count");
  report->Per("storage.wal_records_per_write", w[kWalRecords], c.write_ops,
              "count");
  report->Per("storage.fsyncs_per_write", w[kFsyncs], c.write_ops, "count");
  report->Metric("storage.setup_fsyncs", c.setup_fsyncs, "count");
  report->Per("storage.wal_bytes_per_user_byte", w[kWalBytes], c.written_bytes,
              "B/B");
  report->Metric("storage.checkpoint_pages_written", c.checkpoint_pages,
                 "count");
  report->Per("rel.edb_rows_per_query", r[kEdbRows], q, "count");
  report->Per("rel.plan_cache_hit_ratio", r[kPlanCacheHits],
              static_cast<double>(r[kPlanCacheHits]) + r[kPlansCompiled],
              "ratio");
  report->Per("rel.tuples_per_answer", r[kTuplesDerived], c.read_solutions,
              "count");
  report->Per("rel.join_probes_per_query", r[kJoinProbes], q, "count");
  report->Per("rel.iterations_per_query", r[kIterations], q, "count");
  report->Per("rel.dedup_hit_ratio", r[kDedupHits],
              static_cast<double>(r[kDedupHits]) + r[kTuplesDerived], "ratio");
  report->Metric("server.shed_ratio", c.shed_ratio, "ratio");
  report->Metric("obs.latency_coverage", c.latency_coverage, "ratio");
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    log->AppendChromeEvents(&out, origin_ns, &first);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  if (!file) Die("cannot write trace %s", path.c_str());
}

namespace {

/// Fixed work that allocates, hashes and misses caches as the engine
/// does, with no calls into the engine. A register-only spin loop barely
/// moved while evaluations on a shared VM slowed by 1.5x. Returns ms.
double TimeGaugeLoop() {
  const uint64_t start = NowNs();
  std::unordered_set<uint64_t> set;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    set.insert(x >> 40);
  }
  if (set.empty()) Die("drift gauge: empty set");
  return MsSince(start);
}

}  // namespace

double DriftGauge::Sample() {
  latest_ms_ = TimeGaugeLoop();
  samples_.Add(latest_ms_);
  return latest_ms_;
}

void DriftGauge::Print(const char* workload) const {
  std::printf("host_drift %s: hash_ms p50 %.4f min %.4f max %.4f (%zu samples; "
              "not a metric)\n",
              workload, samples_.Median(), samples_.Quantile(0),
              samples_.Quantile(1), samples_.size());
}

void Report::Fail(const char* fmt, ...) {
  ++failed_;
  if (messages_++ < 10) {
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "kbbench: failed op: ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
  }
}

void Report::Wrong(const char* fmt, ...) {
  ++failed_;
  correct_ = false;
  if (messages_++ < 10) {
    va_list args;
    va_start(args, fmt);
    std::fprintf(stderr, "kbbench: wrong answer: ");
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    va_end(args);
  }
}

void Report::Print(const char* workload) const {
  std::printf("%s: %llu ops attempted, %llu failed (%.4f%% failed share)\n",
              workload, Ull(attempted_), Ull(failed_),
              100.0 * Ratio(static_cast<double>(failed_),
                            static_cast<double>(attempted_)));
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  char buf[160];
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value.first,
                  value.second.c_str());
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace kbbench
