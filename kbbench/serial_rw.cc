// serial_rw: one in-process caller on Engine::Query — the paper's
// one-process-per-session model — over the MVV + wisc knowledge base kept
// on disk (image + WAL, fsync per commit). Reads interleave with durable
// ledger/3 asserts and retracts in one seeded order; checkpoints fire at
// fixed write counts. The WAM, the resolver, the code cache and the WAL do
// the work here; the buffer pool holds the whole EDB, so it never misses.
//
// Latencies are host-normalised (DriftGauge::HostRatio): on a shared
// 4-vCPU VM their raw medians moved by 8-17% from run to run as the
// host's speed moved, the normalised ones by 2-4% (assert 10%). setup_s
// is scaled to the gauge's nominal speed by the run's median gauge timing
// (DriftGauge::AtNominal): its raw median moved by 22% between two sets of
// ten runs, and by 7% once divided by each run's gauge.
// Raw per-class p50s and the raw setup are printed beside the metrics.
//
// There is no crash-reopen leg: the engine's replay of edb_retract is
// wrong (a delete is logged by its physical record id, which replay need
// not reproduce), so a reopened crash copy can lose acknowledged rows or
// bring retracted ones back. Reopens wait until the engine logs deletes
// by key or content.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include "kb.h"
#include "storage/wal.h"
#include "workloads.h"

namespace kbbench {

namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 3;
constexpr int kPrefixOps = 300;       // repeatability probe after each setup
constexpr uint64_t kCheckpointEvery = 1000;  // writes
constexpr int kLayerRepeats = 21;     // reader and ScanAllFacts timings
constexpr size_t kParseLines = 4000;  // request lines for the parse timing
constexpr int kTraceBlock = 64;       // traced run: alternate traced blocks
constexpr uint64_t kGaugePeriodMs = 50;
// Frames for the whole EDB and the ledger's growth: 64 MiB of 4 KiB pages.
constexpr uint32_t kBufferFrames = 16384;

// Lookups, pair/2 joins, MVV route rounds, 1% selections, asserts,
// retracts. Design rule: each measured class (lookup, pair/2, route round,
// selection, write) takes an equal share of a cycle's wall time, so every
// latency median sees the same host drift and no class drowns the others.
// The weights are the reciprocals of the per-class p50s of the first
// version of this benchmark (0.022, 0.029, 2.98, 50.9 and 0.12 ms on a
// 4-vCPU Xeon VM), scaled to one selection per cycle. Writes split evenly
// between asserts and retracts, so the knowledge base keeps its size
// however many cycles a run gets through.
constexpr Mix kMix = {2300, 1750, 17, 1, 210, 210};

void RemoveDb(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".wal", ec);
}

educe::EngineOptions DiskOptions(const std::string& path) {
  educe::EngineOptions options;
  options.db_path = path;
  options.wal_sync = educe::storage::Wal::SyncPolicy::kCommit;
  options.buffer_frames = kBufferFrames;
  return options;
}

/// Runs one route round (all 20 MVV route queries) and checks each count
/// against the in-memory oracle.
void RouteRound(educe::Engine* engine, const Kb& kb, Report* report,
                SpanLog* spans, uint64_t op, Samples* next_ms,
                uint64_t* queries, uint64_t* solutions) {
  std::vector<int64_t> counts;
  for (const std::string& goal : kb.route_queries()) {
    counts.push_back(RunQuery(engine, goal, spans, op, nullptr, next_ms,
                              [](educe::Solutions&) {}));
    ++*queries;
    *solutions += static_cast<uint64_t>(std::max<int64_t>(counts.back(), 0));
  }
  kb.CheckRouteRound(counts, report);
}

/// The single caller: executes ops against one engine and checks them.
struct Caller {
  educe::Engine* engine;
  const Kb* kb;
  Ledger* ledger;
  Report* report;
  SpanLog* spans;
  Samples* open_ms = nullptr;  // traced lookups only
  Samples* next_ms = nullptr;  // traced route/scan only
  uint64_t queries = 0;
  uint64_t solutions = 0;

  void Exec(const Op& op, uint64_t op_id) {
    report->Attempt();
    ScopedSpan span(spans, ClassName(op.cls), op_id);
    switch (op.cls) {
      case kRoute:
        RouteRound(engine, *kb, report, spans, op_id, next_ms, &queries,
                   &solutions);
        return;
      case kAssert:
      case kRetract: {
        const std::string goal = ledger->NextGoal(op.cls);
        const int64_t n = RunQuery(engine, goal, spans, op_id, nullptr,
                                   nullptr, [](educe::Solutions&) {});
        ++queries;
        if (n != 1) return report->Fail("%s errored", goal.c_str());
        ledger->Acknowledge();
        return;
      }
      default: {
        const Answer answer = EngineAnswer(engine, kb->ReadGoal(op), op.cls,
                                           spans, op_id, open_ms, next_ms);
        ++queries;
        solutions += static_cast<uint64_t>(std::max<int64_t>(answer.count, 0));
        kb->CheckRead(op, answer, report);
        return;
      }
    }
  }
};

/// Every acknowledged assert present with its value, no retracted row.
void CheckLedger(educe::Engine* engine, const Ledger& ledger, Report* report,
                 SpanLog* spans) {
  std::map<uint64_t, std::string> found;
  uint64_t duplicates = 0;
  const int64_t n = RunQuery(
      engine, Ledger::ScanGoal(), spans, 0, nullptr, nullptr,
      [&](educe::Solutions& s) {
        const uint64_t id = std::strtoull(s.Binding("I").c_str(), nullptr, 10);
        const std::string row = s.Binding("V") + " " + s.Binding("T");
        if (!found.emplace(id, row).second) ++duplicates;
      });
  report->Attempt();
  if (n < 0) return report->Fail("ledger scan errored");
  std::string problem;
  for (const Ledger::Row& row : ledger.live()) {
    const auto it = found.find(row.id);
    if (it == found.end() || it->second != row.values) {
      problem = "acknowledged row " + std::to_string(row.id) + " " +
                (it == found.end() ? "missing" : "reads " + it->second);
      break;
    }
    found.erase(it);
  }
  if (problem.empty() && !found.empty()) {
    problem = "retracted row " + std::to_string(found.begin()->first) +
              " present";
  }
  if (problem.empty() && duplicates != 0) problem = "duplicate rows";
  if (!problem.empty()) {
    report->Wrong("ledger/3 (%zu rows acknowledged live): %s",
                  ledger.live().size(), problem.c_str());
  }
}

}  // namespace

int RunSerialRw(const Args& args) {
  const uint64_t run_start = NowNs();
  Kb kb(args.seed);
  kb.ComputeRouteOracle();
  Report report;
  DriftGauge drift(kGaugePeriodMs);
  SpanLog spans;
  const std::string dir = args.work_dir + "/serial_rw";
  fs::create_directories(dir);
  const std::string path = dir + "/kb.edb";

  // --- Setup, kSetups times; each followed by the same fixed prefix of
  // ops, whose counts must repeat exactly.
  Samples setup_raw_s, facts_s, rules_s, setup_fsyncs;
  std::unique_ptr<educe::Engine> engine;
  std::unique_ptr<Ledger> ledger;
  std::unique_ptr<OpStream> stream;
  Counts first_counts;
  uint64_t op_id = 0;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    RemoveDb(path);
    ledger = std::make_unique<Ledger>(args.seed);
    stream = std::make_unique<OpStream>(args.seed, kMix);
    const uint64_t t0 = NowNs();
    engine = std::make_unique<educe::Engine>(DiskOptions(path));
    Check(engine->open_status(), "open");
    kb.Store(engine.get(), &facts_s, &rules_s);
    Check(engine->Checkpoint(), "setup checkpoint");
    setup_raw_s.Add((NowNs() - t0) * 1e-9);
    setup_fsyncs.Add(static_cast<double>(engine->Stats().wal.fsyncs));
    Caller caller{engine.get(), &kb, ledger.get(), &report, &spans};
    for (int i = 0; i < kPrefixOps; ++i) caller.Exec(stream->Next(), ++op_id);
    const Counts counts = Snapshot(engine.get(), Kb::Relations());
    if (s == 0) {
      first_counts = counts;
    } else {
      CheckRepeatable(first_counts, counts, "serial_rw setup + prefix");
    }
  }

  // --- The measured mix.
  Samples lat[kClassCount];
  Samples per_host[kClassCount + 1];  // lat over the host gauge; checkpoints
  Samples untraced_lat[kClassCount];  // traced run: the untraced blocks
  Samples store_ratio, checkpoint_pages;
  Samples open_ms, next_ms;
  LayerCounts layer;
  Caller caller{engine.get(), &kb, ledger.get(), &report, &spans};
  // Image plus WAL over the source text of everything now stored.
  auto store_bytes_per_user_byte = [&] {
    return Ratio(static_cast<double>(StoreBytes(engine.get())),
                 static_cast<double>(kb.setup_bytes() + ledger->live_bytes()));
  };
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t n_ops = 0;
  double host_ms = 0;  // the ops' and checkpoints' time at nominal speed
  drift.Sample();
  // Run to the deadline, then on to a fixed point in the checkpoint cycle
  // so every run stops as far from its last checkpoint.
  while (NowNs() < deadline ||
         ledger->writes() % kCheckpointEvery != kCheckpointEvery / 2) {
    const Op op = stream->Next();
    const bool traced = args.trace && (n_ops / kTraceBlock) % 2 == 0;
    const bool write = op.cls == kAssert || op.cls == kRetract;
    ++n_ops;
    spans.set_enabled(traced);
    caller.open_ms = traced && op.cls == kLookup ? &open_ms : nullptr;
    caller.next_ms =
        traced && (op.cls == kRoute || op.cls == kScan) ? &next_ms : nullptr;
    const uint64_t writes_before = ledger->writes();
    const uint64_t queries_before = caller.queries;
    const uint64_t solutions_before = caller.solutions;
    const uint64_t bytes_before = ledger->asserted_bytes();
    Counts before;
    if (traced) before = Snapshot(engine.get(), Kb::Relations());
    const uint64_t t0 = NowNs();
    caller.Exec(op, ++op_id);
    const double ms = MsSince(t0);
    if (traced) {
      const Counts d = Snapshot(engine.get(), Kb::Relations()) - before;
      const double q = static_cast<double>(caller.queries - queries_before);
      if (write) {
        layer.writes += d;
        layer.write_ops += 1;
        layer.written_bytes +=
            static_cast<double>(ledger->asserted_bytes() - bytes_before);
      } else {
        layer.reads += d;
        layer.read_queries += q;
        layer.read_solutions +=
            static_cast<double>(caller.solutions - solutions_before);
      }
      layer.latency_coverage += static_cast<double>(d[kLatencyCount]);
    }
    (args.trace && !traced ? untraced_lat : lat)[op.cls].Add(ms);
    per_host[op.cls].Add(drift.HostRatio(ms));
    host_ms += drift.HostRatio(ms) * DriftGauge::kNominalMs;
    if (ledger->writes() != writes_before &&
        ledger->writes() % kCheckpointEvery == 0) {
      store_ratio.Add(store_bytes_per_user_byte());
      const uint64_t pages0 = engine->Stats().paged_file.pages_written;
      const uint64_t c0 = NowNs();
      const uint32_t id = spans.Begin("Engine::Checkpoint", op_id);
      Check(engine->Checkpoint(), "checkpoint");
      spans.End(id);
      const double checkpoint_ms = MsSince(c0);
      per_host[kClassCount].Add(drift.HostRatio(checkpoint_ms));
      host_ms += drift.HostRatio(checkpoint_ms) * DriftGauge::kNominalMs;
      checkpoint_pages.Add(static_cast<double>(
          engine->Stats().paged_file.pages_written - pages0));
    }
    drift.MaybeSample();
  }
  spans.set_enabled(args.trace);
  store_ratio.Add(store_bytes_per_user_byte());

  CheckLedger(engine.get(), *ledger, &report, &spans);

  if (!args.trace) {
    // A setup is seconds of fsyncs, which a gauge timed beside it does not
    // track; the run's median gauge does.
    report.Metric("setup_s",
                  DriftGauge::AtNominal(setup_raw_s.Median(),
                                        drift.samples().Median()),
                  "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    // Every op class and the checkpoints weigh alike.
    report.Metric("op_p50_ms",
                  GeoMeanP50(per_host, kClassCount + 1) * DriftGauge::kNominalMs,
                  "ms");
    report.Metric("ops_per_s", Ratio(static_cast<double>(n_ops), host_ms * 1e-3),
                  "1/s");
    report.Metric("store_bytes_per_user_byte", store_ratio.Median(), "B/B");
    for (int c = 0; c < kClassCount; ++c) {
      std::printf("serial_rw %-10s %6zu samples, p50 %.4f ms, p99 %.4f ms\n",
                  ClassName(c), lat[c].size(), lat[c].Median(),
                  lat[c].Quantile(0.99));
    }
    std::printf("serial_rw checkpoint %6zu samples, p50 %.4f ms over the "
                "gauge\n", per_host[kClassCount].size(),
                per_host[kClassCount].Median());
    std::printf("serial_rw setup %zu samples, p50 %.4f s (raw)\n",
                setup_raw_s.size(), setup_raw_s.Median());
  } else {
    layer.latency_coverage =
        Ratio(layer.latency_coverage,
              layer.read_queries + layer.write_ops);
    layer.setup_fsyncs = setup_fsyncs.Median();
    layer.checkpoint_pages = checkpoint_pages.Median();
    const Samples parse_s = TimeReaderParse(kb.setup_text(), kLayerRepeats);
    const Samples load_ms = TimeScanAllFacts(engine.get(), "wisc", 5,
                                             Kb::kWiscRows, kLayerRepeats,
                                             &spans);
    const Samples request_ms =
        TimeRequestParse(kb.RequestLines(args.seed, kMix, kParseLines),
                         kLayerRepeats);
    report.Metric("educe.query_open_ms", open_ms.Median(), "ms");
    // Mean, not median: a Next that walks a stored row takes ~100 ns.
    report.Metric("educe.next_ms", next_ms.Mean(), "ms");
    report.Metric("educe.store_facts_s", facts_s.Median(), "s");
    report.Metric("educe.store_rules_s", rules_s.Median(), "s");
    // One caller: its latencies are their own uncontended baseline.
    report.Metric("educe.contention_inflation",
                  P50Ratio(untraced_lat, untraced_lat, kClassCount), "ratio");
    report.Metric("reader.parse_s", parse_s.Median(), "s");
    report.Metric("rel.edb_load_ms", load_ms.Median(), "ms");
    report.Metric("server.request_parse_ms", request_ms.Median(), "ms");
    ReportLayerCounts(layer, &report);
    report.Metric("trace.overhead_ratio",
                  P50Ratio(lat, untraced_lat, kClassCount), "ratio");
    const std::string trace_path = args.work_dir + "/serial_rw_trace.json";
    WriteChromeTrace(trace_path, {&spans}, run_start);
    std::printf("serial_rw: %zu spans written to %s\n", spans.size(),
                trace_path.c_str());
  }
  drift.Print("serial_rw");
  report.Print("serial_rw");
  engine.reset();
  RemoveDb(path);
  return 0;
}

}  // namespace kbbench
