// closure: bottom-up Datalog (datalog = true) over a seeded random DAG
// stored in the EDB as edge/2, with the left-recursive path/2 rules.
// Bound path(K, Y) queries (magic sets) interleave with full path(X, Y)
// evaluations, each answer checked against a plain-C++ BFS closure. Sized
// to stay cache-resident with many evaluations per run. The only workload
// where rel/datalog and ClauseStore::ScanAllFacts work; the WAM idles.
//
// The latency metrics are host-normalised (DriftGauge::HostRatio): on a
// shared 4-vCPU VM, the median raw evaluation time moved by 14-35% from
// run to run as the host's speed moved, and the normalised median by 3%.
// setup_s is scaled to the gauge's nominal speed (DriftGauge::AtNominal):
// its raw median moved by 30% between two sets of ten runs. Raw times
// are printed beside the metrics.

#include <algorithm>
#include <memory>

#include "kb.h"
#include "workloads.h"
#include "workloads/graph.h"

namespace kbbench {

namespace {

using educe::workloads::GraphWorkload;

constexpr uint64_t kNodes = 1500;
// The graph comes from one fixed seed: its node numbering sets the BANG
// key distribution and the closure's size, and so what an evaluation
// costs, which must not move from seed to seed. The run's seed draws the
// bound queries and the order of the mix.
constexpr uint64_t kGraphSeed = 7;
constexpr uint64_t kEdges = 2250;
constexpr int kSetups = 3;
constexpr int kPrefixOps = 7;    // repeatability probe after each setup
constexpr int kTraceBlock = 8;   // traced run: alternate traced blocks
constexpr uint64_t kGaugePeriodMs = 50;
constexpr int kLayerRepeats = 21;     // reader and ScanAllFacts timings
constexpr size_t kParseLines = 4000;  // request lines for the parse timing
constexpr int kBoundPerFull = 6;  // bound queries per full evaluation

enum ClosureClass : int { kBound, kFull, kClosureClasses };
constexpr const char* kClosureClassNames[kClosureClasses] = {"bound", "full"};

uint64_t Pack(int64_t x, int64_t y) {
  return (static_cast<uint64_t>(x) << 32) | static_cast<uint64_t>(y);
}

int64_t AstInt(const educe::term::AstPtr& ast) {
  if (ast == nullptr || ast->kind != educe::term::Ast::Kind::kInt) return -1;
  return ast->int_value;
}

/// Reachability of every node by BFS over the edge list: the reference
/// the bottom-up answers must equal.
struct Oracle {
  std::vector<std::vector<int64_t>> reach;  // sorted, per source
  std::vector<uint64_t> all;                // packed pairs, sorted

  explicit Oracle(const std::vector<GraphWorkload::Edge>& edges) {
    std::vector<std::vector<int64_t>> out(kNodes);
    for (const auto& [u, v] : edges) out[u].push_back(v);
    reach.resize(kNodes);
    std::vector<uint64_t> seen(kNodes, 0);
    for (uint64_t s = 0; s < kNodes; ++s) {
      std::vector<int64_t>& r = reach[s];  // doubles as the BFS queue
      for (int64_t v : out[s]) {
        if (seen[v] != s + 1) {
          seen[v] = s + 1;
          r.push_back(v);
        }
      }
      for (size_t head = 0; head < r.size(); ++head) {
        for (int64_t w : out[r[head]]) {
          if (seen[w] != s + 1) {
            seen[w] = s + 1;
            r.push_back(w);
          }
        }
      }
      std::sort(r.begin(), r.end());
      for (int64_t v : r) all.push_back(Pack(static_cast<int64_t>(s), v));
    }
    std::sort(all.begin(), all.end());
  }
};

struct ClosureOp {
  ClosureClass cls = kBound;
  int64_t source = 0;
};

/// The goal of a closure op.
std::string Goal(const ClosureOp& op) {
  return op.cls == kFull ? std::string("path(X, Y)")
                         : "path(" + std::to_string(op.source) + ", Y)";
}

/// Cycles of kBoundPerFull bound queries and one full evaluation, each
/// cycle in a seeded order.
class ClosureStream {
 public:
  ClosureStream(uint64_t seed, const std::vector<GraphWorkload::Edge>* edges)
      : rng_(seed ^ 0xc105u), edges_(edges) {
    deck_.assign(kBoundPerFull, kBound);
    deck_.push_back(kFull);
    next_ = deck_.size();
  }
  ClosureOp Next() {
    if (next_ == deck_.size()) {
      Shuffle(&deck_, &rng_);
      next_ = 0;
    }
    ClosureOp op;
    op.cls = deck_[next_++];
    // Sources drawn through edges, so every bound query has answers.
    if (op.cls == kBound) {
      op.source = (*edges_)[rng_.Below(edges_->size())].first;
    }
    return op;
  }

 private:
  educe::base::Rng rng_;
  const std::vector<GraphWorkload::Edge>* edges_;
  std::vector<ClosureClass> deck_;
  size_t next_ = 0;
};

struct Evaluator {
  educe::Engine* engine;
  const Oracle* oracle;
  Report* report;
  SpanLog* spans;
  Samples* open_ms = nullptr;
  Samples* next_ms = nullptr;
  uint64_t answers = 0;

  /// Runs one evaluation and checks it; returns the milliseconds from
  /// Query to the last row walked, which leave the check out.
  double Exec(const ClosureOp& op, uint64_t op_id) {
    report->Attempt();
    ScopedSpan span(spans, kClosureClassNames[op.cls], op_id);
    std::vector<uint64_t> got;
    const uint64_t t0 = NowNs();
    const std::string goal = Goal(op);
    const int64_t n = RunQuery(
        engine, goal, spans, op_id, open_ms, next_ms,
        [&](educe::Solutions& s) {
          const int64_t x =
              op.cls == kFull ? AstInt(s.BindingAst("X")) : op.source;
          got.push_back(Pack(x, AstInt(s.BindingAst("Y"))));
        });
    const double ms = MsSince(t0);
    if (n < 0) {
      report->Fail("%s errored", goal.c_str());
      return ms;
    }
    answers += static_cast<uint64_t>(n);
    std::sort(got.begin(), got.end());
    bool match;
    if (op.cls == kFull) {
      match = got == oracle->all;
    } else {
      const std::vector<int64_t>& want = oracle->reach[op.source];
      match = got.size() == want.size();
      for (size_t i = 0; match && i < want.size(); ++i) {
        match = got[i] == Pack(op.source, want[i]);
      }
    }
    if (!match) {
      report->Wrong("%s: %zu answers differ from the BFS closure", goal.c_str(),
                    got.size());
    }
    return ms;
  }
};

/// Set-up timings: wall time, and that time at the gauge's nominal speed
/// (the gauge timed before and after); the store phases apart.
struct SetupTimes {
  Samples raw_s, setup_s, facts_s, rules_s;
};

/// A fresh engine holding the graph and the path/2 rules.
std::unique_ptr<educe::Engine> Setup(
    const std::vector<GraphWorkload::Edge>& edges, const std::string& rules,
    DriftGauge* gauge, SetupTimes* times) {
  const double gauge_before_ms = gauge->Sample();
  const uint64_t t0 = NowNs();
  educe::EngineOptions options;
  options.datalog = true;
  auto engine = std::make_unique<educe::Engine>(options);
  const uint64_t t1 = NowNs();
  Check(GraphWorkload::StoreEdges(engine.get(), "edge", edges), "store edges");
  const uint64_t t2 = NowNs();
  Check(engine->Consult(rules), "consult path/2");
  const uint64_t t3 = NowNs();
  times->facts_s.Add((t2 - t1) * 1e-9);
  times->rules_s.Add((t3 - t2) * 1e-9);
  const double s = (t3 - t0) * 1e-9;
  times->raw_s.Add(s);
  times->setup_s.Add(
      DriftGauge::AtNominal(s, (gauge_before_ms + gauge->Sample()) / 2));
  return engine;
}

}  // namespace

int RunClosure(const Args& args) {
  const uint64_t run_start = NowNs();
  const std::vector<GraphWorkload::Edge> edges =
      GraphWorkload::RandomDag(kNodes, kEdges, kGraphSeed);
  const Oracle oracle(edges);
  std::printf("closure: %llu nodes, %llu edges, %zu closure tuples\n",
              Ull(kNodes), Ull(kEdges), oracle.all.size());
  const std::vector<std::pair<std::string, uint32_t>> relations = {{"edge", 2}};
  const std::string rules = GraphWorkload::ClosureRules("path", "edge");
  // The knowledge base as source text, for the reader and byte accounting.
  const std::string source_text =
      GraphWorkload::EdgeFactsText("edge", edges) + rules;
  Report report;
  DriftGauge drift(kGaugePeriodMs);
  SpanLog spans;

  SetupTimes setup;
  std::unique_ptr<educe::Engine> engine;
  std::unique_ptr<ClosureStream> stream;
  Counts first_counts;
  uint64_t op_id = 0;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    stream = std::make_unique<ClosureStream>(args.seed, &edges);
    engine = Setup(edges, rules, &drift, &setup);
    Evaluator eval{engine.get(), &oracle, &report, &spans};
    for (int i = 0; i < kPrefixOps; ++i) eval.Exec(stream->Next(), ++op_id);
    const Counts counts = Snapshot(engine.get(), relations);
    if (s == 0) {
      first_counts = counts;
    } else {
      CheckRepeatable(first_counts, counts, "closure setup + prefix");
    }
  }
  const double store_ratio =
      Ratio(static_cast<double>(StoreBytes(engine.get())),
            static_cast<double>(source_text.size()));

  Samples lat[kClosureClasses], untraced_lat[kClosureClasses];
  Samples per_host[kClosureClasses];  // lat over the host gauge
  Samples open_ms, next_ms;
  LayerCounts layer;
  Evaluator eval{engine.get(), &oracle, &report, &spans};
  uint64_t n_ops = 0;
  double host_ms = 0;  // the ops' time at nominal speed
  drift.Sample();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  while (NowNs() < deadline) {
    const ClosureOp op = stream->Next();
    const bool traced = args.trace && (n_ops / kTraceBlock) % 2 == 0;
    ++n_ops;
    spans.set_enabled(traced);
    eval.open_ms = traced ? &open_ms : nullptr;
    eval.next_ms = traced ? &next_ms : nullptr;
    Counts before;
    if (traced) before = Snapshot(engine.get(), relations);
    const uint64_t answers_before = eval.answers;
    const double ms = eval.Exec(op, ++op_id);
    if (traced) {
      layer.reads += Snapshot(engine.get(), relations) - before;
      layer.read_queries += 1;
      layer.read_solutions += static_cast<double>(eval.answers - answers_before);
    }
    (args.trace && !traced ? untraced_lat : lat)[op.cls].Add(ms);
    per_host[op.cls].Add(drift.HostRatio(ms));
    host_ms += drift.HostRatio(ms) * DriftGauge::kNominalMs;
    // A setup after every full evaluation, so setup_s samples the whole
    // run as the other metrics do.
    if (op.cls == kFull) Setup(edges, rules, &drift, &setup);
    drift.MaybeSample();
  }
  spans.set_enabled(args.trace);

  if (!args.trace) {
    report.Metric("setup_s", setup.setup_s.Median(), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("op_p50_ms",
                  GeoMeanP50(per_host, kClosureClasses) * DriftGauge::kNominalMs,
                  "ms");
    report.Metric("ops_per_s", Ratio(static_cast<double>(n_ops), host_ms * 1e-3),
                  "1/s");
    report.Metric("store_bytes_per_user_byte", store_ratio, "B/B");
    for (int c = 0; c < kClosureClasses; ++c) {
      std::printf("closure %-6s %6zu samples, p50 %.4f ms, p99 %.4f ms\n",
                  kClosureClassNames[c], lat[c].size(), lat[c].Median(),
                  lat[c].Quantile(0.99));
    }
    std::printf("closure setup  %6zu samples, p50 %.6f s (raw)\n",
                setup.raw_s.size(), setup.raw_s.Median());
  } else {
    layer.latency_coverage =
        Ratio(layer.reads[kLatencyCount], layer.read_queries);
    const Samples parse_s = TimeReaderParse(source_text, kLayerRepeats);
    // The EDB feed alone: one bulk scan of edge/2 per evaluation.
    const Samples load_ms = TimeScanAllFacts(engine.get(), "edge", 2, kEdges,
                                             kLayerRepeats, &spans);
    std::vector<std::string> lines;
    ClosureStream requests(args.seed, &edges);
    while (lines.size() < kParseLines) {
      lines.push_back(RequestLine(Goal(requests.Next()), lines.size() + 1));
    }
    const Samples request_ms = TimeRequestParse(lines, kLayerRepeats);
    report.Metric("educe.query_open_ms", open_ms.Median(), "ms");
    // Mean, not median: a Next that walks a stored row takes ~100 ns.
    report.Metric("educe.next_ms", next_ms.Mean(), "ms");
    report.Metric("educe.store_facts_s", setup.facts_s.Median(), "s");
    report.Metric("educe.store_rules_s", setup.rules_s.Median(), "s");
    // One caller: its latencies are their own uncontended baseline.
    report.Metric("educe.contention_inflation",
                  P50Ratio(untraced_lat, untraced_lat, kClosureClasses),
                  "ratio");
    report.Metric("reader.parse_s", parse_s.Median(), "s");
    report.Metric("rel.edb_load_ms", load_ms.Median(), "ms");
    report.Metric("server.request_parse_ms", request_ms.Median(), "ms");
    ReportLayerCounts(layer, &report);
    report.Metric("trace.overhead_ratio",
                  P50Ratio(lat, untraced_lat, kClosureClasses), "ratio");
    const std::string path = args.work_dir + "/closure_trace.json";
    WriteChromeTrace(path, {&spans}, run_start);
    std::printf("closure: trace written to %s\n", path.c_str());
  }
  drift.Print("closure");
  report.Print("closure");
  return 0;
}

}  // namespace kbbench
