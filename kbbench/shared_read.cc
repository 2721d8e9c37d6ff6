// shared_read: the serial_rw knowledge base and read mix, served by an
// in-process QueryServer on loopback to 2 closed-loop client connections
// (each waits for its answer before it asks again). In memory, read-only,
// with the default 256-frame (1 MiB) buffer pool against a ~6 MB EDB: the
// only workload where buffer misses and evictions, shared latches and
// counters, session-pool admission and JSON send/parse do real work.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <thread>

#include "kb.h"
#include "server/json.h"
#include "server/server.h"
#include "workloads.h"

namespace kbbench {

namespace {

// Setups before the phase and after it, so setup_s samples the run's span
// of host speed as the other metrics do.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
// Two connections, not one per core: each keeps a client thread and a
// handler thread busy in turn. With 4 on a 4-vCPU VM the latency and
// throughput metrics spread about twice as much from run to run, and
// throughput was no higher.
constexpr uint32_t kClients = 2;
constexpr int kWarmupOps = 40;    // per client, untimed
constexpr int kTraceBlock = 32;   // traced run: alternate traced blocks
constexpr int kLayerRepeats = 21;     // reader and ScanAllFacts timings
constexpr size_t kParseLines = 4000;  // request lines for the parse timing
constexpr int kProbeOps = 2000;       // in-process engine probe
constexpr uint64_t kGaugePeriodMs = 50;
// Lookups, pair/2 joins, MVV route rounds, 1% selections; no writes.
// serial_rw's read weights, so the two workloads' read metrics compare.
constexpr Mix kMix = {2300, 1750, 17, 1, 0, 0};

/// Blocking line client over loopback TCP.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n', scan_from_);
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_from_ = 0;
        return true;
      }
      scan_from_ = buf_.size();
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t scan_from_ = 0;
};

/// One client connection's closed loop and its samples.
struct ClientRun {
  uint32_t index = 0;
  const Kb* kb = nullptr;
  Client client;
  SpanLog spans;
  Report report;
  std::unique_ptr<OpStream> stream;
  // The host gauge, timed on this client's thread between its ops. Each
  // latency sample is divided by its latest timing, as serial_rw does; the
  // gauge then runs beside the other connection's work, which the closed
  // loop keeps alike from run to run. With the gauge timed between blocks
  // of the loop while every client waited, as an earlier version did, its
  // noise moved op_p50_ms by 7% from run to run on a 4-vCPU VM.
  DriftGauge drift{kGaugePeriodMs};
  Samples lat[kClassCount];
  Samples untraced_lat[kClassCount];
  Samples per_host[kClassCount];  // lat over the host gauge
  double host_ms = 0;             // the ops' time at nominal speed
  uint64_t queries = 0;  // answered in the phase, warm-up included
  uint64_t next_id = 1;
  uint64_t op_id = 0;
  uint64_t n = 0;  // ops after the warm-up

  /// Sends one query and reads its replies, keeping the bindings of
  /// `vars`. The count stays -1 unless "done" came with as many answers
  /// as arrived.
  Answer Ask(const std::string& goal, const std::vector<std::string>& vars,
             uint64_t op) {
    ScopedSpan span(&spans, "QueryServer query", op);
    Answer answer;
    const std::string line = RequestLine(goal, next_id++);
    if (!client.SendLine(line)) return answer;
    std::string reply;
    int64_t bindings = 0;
    while (client.ReadLine(&reply)) {
      auto parsed = educe::server::ParseJson(reply);
      if (!parsed.ok()) return answer;
      const std::string type = parsed->GetString("type");
      if (type == "binding") {
        ++bindings;
        if (!vars.empty()) {
          const auto* b = parsed->Find("bindings");
          std::vector<std::string> row;
          for (const std::string& v : vars) {
            const auto* value = b == nullptr ? nullptr : b->Find(v);
            row.push_back(value == nullptr ? "" : value->string);
          }
          answer.rows.push_back(std::move(row));
        }
        continue;
      }
      if (type == "done" &&
          static_cast<int64_t>(parsed->GetUint("count")) == bindings) {
        answer.count = bindings;
      }
      return answer;  // done or error
    }
    return answer;
  }

  /// Runs one op and checks its answers.
  void Exec(const Op& op, uint64_t op_id) {
    report.Attempt();
    ScopedSpan span(&spans, ClassName(op.cls), op_id);
    if (op.cls == kRoute) {
      std::vector<int64_t> counts;
      for (const std::string& goal : kb->route_queries()) {
        counts.push_back(Ask(goal, {}, op_id).count);
        ++queries;
      }
      return kb->CheckRouteRound(counts, &report);
    }
    const Answer answer = Ask(kb->ReadGoal(op), AnswerVars(op.cls), op_id);
    ++queries;
    kb->CheckRead(op, answer, &report);
  }

  /// Closed loop until `deadline_ns`, after kWarmupOps untimed ops.
  void Loop(uint64_t deadline_ns, bool trace) {
    for (int i = 0; i < kWarmupOps; ++i) Exec(stream->Next(), ++op_id);
    drift.Sample();
    while (NowNs() < deadline_ns) {
      const Op op = stream->Next();
      const bool traced = trace && (n / kTraceBlock) % 2 == 0;
      ++n;
      spans.set_enabled(traced);
      const uint64_t t0 = NowNs();
      Exec(op, ++op_id);
      const double ms = MsSince(t0);
      (trace && !traced ? untraced_lat : lat)[op.cls].Add(ms);
      per_host[op.cls].Add(drift.HostRatio(ms));
      host_ms += drift.HostRatio(ms) * DriftGauge::kNominalMs;
      drift.MaybeSample();
    }
    spans.set_enabled(false);
  }
};

/// One closed-loop phase over every connection in `runs`, each on its own
/// thread. Returns the phase's wall seconds.
double RunPhase(std::vector<std::unique_ptr<ClientRun>>* runs, double seconds,
                bool trace) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& run : *runs) {
    threads.emplace_back([&, r = run.get()] { r->Loop(deadline, trace); });
  }
  for (auto& t : threads) t.join();
  return (NowNs() - start) * 1e-9;
}

/// The engine API alone: one in-process caller runs the first kProbeOps
/// ops of the read stream on the server's engine once the server has
/// stopped, timing Engine::Query on lookups and Solutions::Next on route
/// and selection queries, which the clients cannot see across the socket.
void ProbeEngine(educe::Engine* engine, const Kb& kb, uint64_t seed,
                 SpanLog* spans, Samples* open_ms, Samples* next_ms,
                 Report* report) {
  OpStream stream(seed, kMix);
  for (int i = 0; i < kProbeOps; ++i) {
    const Op op = stream.Next();
    report->Attempt();
    if (op.cls == kRoute) {
      std::vector<int64_t> counts;
      for (const std::string& goal : kb.route_queries()) {
        counts.push_back(RunQuery(engine, goal, spans, 0, nullptr, next_ms,
                                  [](educe::Solutions&) {}));
      }
      kb.CheckRouteRound(counts, report);
      continue;
    }
    const Answer answer =
        EngineAnswer(engine, kb.ReadGoal(op), op.cls, spans, 0,
                     op.cls == kLookup ? open_ms : nullptr,
                     op.cls == kScan ? next_ms : nullptr);
    kb.CheckRead(op, answer, report);
  }
}

std::vector<std::unique_ptr<ClientRun>> Connect(uint32_t n, const Kb& kb,
                                                uint16_t port,
                                                uint32_t first_index,
                                                uint64_t seed) {
  std::vector<std::unique_ptr<ClientRun>> runs;
  for (uint32_t c = 0; c < n; ++c) {
    auto run = std::make_unique<ClientRun>();
    run->index = first_index + c;
    run->spans = SpanLog(run->index + 1);
    run->kb = &kb;
    run->stream = std::make_unique<OpStream>(seed * 1009 + run->index, kMix);
    run->op_id = static_cast<uint64_t>(run->index) << 40;
    if (!run->client.Connect(port)) Die("client %u: connect failed", c);
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace

int RunSharedRead(const Args& args) {
  const uint64_t run_start = NowNs();
  Kb kb(args.seed);
  kb.ComputeRouteOracle();
  // Each setup is timed between two gauge timings and reported at the
  // gauge's nominal speed (DriftGauge::AtNominal): the raw median spread
  // by 25-40% across runs with the host's speed.
  DriftGauge setup_gauge(0);
  Samples setup_raw_s, setup_s, facts_s, rules_s, store_ratio;
  std::unique_ptr<educe::Engine> engine;
  auto setup = [&](int n) {
    for (int s = 0; s < n; ++s) {
      engine.reset();
      const double gauge_before_ms = setup_gauge.Sample();
      const uint64_t t0 = NowNs();
      engine = std::make_unique<educe::Engine>();
      kb.Store(engine.get(), &facts_s, &rules_s);
      const double setup_seconds = (NowNs() - t0) * 1e-9;
      setup_raw_s.Add(setup_seconds);
      setup_s.Add(DriftGauge::AtNominal(
          setup_seconds, (gauge_before_ms + setup_gauge.Sample()) / 2));
      store_ratio.Add(Ratio(static_cast<double>(StoreBytes(engine.get())),
                            static_cast<double>(kb.setup_bytes())));
    }
  };
  setup(kSetupsBefore);

  educe::server::ServerOptions options;
  options.pool_sessions = kClients;
  options.handler_threads = kClients;
  auto server =
      std::make_unique<educe::server::QueryServer>(engine.get(), options);
  Check(server->Start(), "server start");

  std::vector<std::unique_ptr<ClientRun>> solo;
  if (args.trace) {
    // One client alone first: the baseline for contention inflation.
    solo = Connect(1, kb, server->port(), kClients, args.seed);
    RunPhase(&solo, args.seconds / 2, false);
  }

  std::vector<std::unique_ptr<ClientRun>> runs =
      Connect(kClients, kb, server->port(), 0, args.seed);
  const Counts before = Snapshot(engine.get(), Kb::Relations());
  const uint64_t bindings_before = server->stats().bindings_sent;
  const double phase_s =
      RunPhase(&runs, args.trace ? args.seconds / 2 : args.seconds, args.trace);

  Report report;
  Samples lat[kClassCount], untraced_lat[kClassCount], per_host[kClassCount];
  uint64_t ops = 0, queries = 0;
  double nominal_ops_per_s = 0;  // each client's ops over its scaled time
  for (const auto& run : runs) {
    for (int c = 0; c < kClassCount; ++c) {
      lat[c].Append(run->lat[c]);
      untraced_lat[c].Append(run->untraced_lat[c]);
      per_host[c].Append(run->per_host[c]);
    }
    ops += run->n;
    queries += run->queries;
    nominal_ops_per_s +=
        Ratio(static_cast<double>(run->n), run->host_ms * 1e-3);
  }
  for (const auto* group : {&solo, &runs}) {
    for (const auto& run : *group) {
      report.Merge(run->report);
    }
  }

  // Coverage of the engine's latency histogram, read while live.
  const uint64_t live_hist = engine->QueryLatencyHistogram().count();
  const uint64_t shed = server->admission()->shed_pressure() +
                        server->admission()->shed_timeout();
  const uint64_t served = server->stats().queries_ok;
  const uint64_t bindings = server->stats().bindings_sent - bindings_before;
  // Session resolver counters merge only when the pool retires.
  server->Stop();
  const Counts d = Snapshot(engine.get(), Kb::Relations()) - before;
  server.reset();
  SpanLog probe_spans(kClients + 2);
  Samples open_ms, next_ms, load_ms;
  if (args.trace) {
    probe_spans.set_enabled(true);
    ProbeEngine(engine.get(), kb, args.seed, &probe_spans, &open_ms, &next_ms,
                &report);
    load_ms = TimeScanAllFacts(engine.get(), "wisc", 5, Kb::kWiscRows,
                               kLayerRepeats, &probe_spans);
  }
  setup(kSetupsAfter);

  if (!args.trace) {
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("op_p50_ms",
                  GeoMeanP50(per_host, kScan + 1) * DriftGauge::kNominalMs,
                  "ms");
    report.Metric("ops_per_s", nominal_ops_per_s, "1/s");
    report.Metric("store_bytes_per_user_byte", store_ratio.Median(), "B/B");
    for (int c = 0; c < kScan + 1; ++c) {
      std::printf("shared_read %-8s %6zu samples, p50 %.4f ms, p99 %.4f ms\n",
                  ClassName(c), lat[c].size(), lat[c].Median(),
                  lat[c].Quantile(0.99));
    }
    std::printf("shared_read throughput %.1f ops/s, %.1f queries/s (raw)\n",
                ops / phase_s, queries / phase_s);
    std::printf("shared_read setup %zu samples, p50 %.6f s (raw)\n",
                setup_raw_s.size(), setup_raw_s.Median());
  } else {
    LayerCounts layer;
    layer.reads = d;
    layer.read_queries = static_cast<double>(queries);
    layer.read_solutions = static_cast<double>(bindings);
    layer.latency_coverage = Ratio(live_hist, served);
    layer.shed_ratio = Ratio(shed, served + shed);
    const Samples parse_s = TimeReaderParse(kb.setup_text(), kLayerRepeats);
    const Samples request_ms =
        TimeRequestParse(kb.RequestLines(args.seed, kMix, kParseLines),
                         kLayerRepeats);
    report.Metric("educe.query_open_ms", open_ms.Median(), "ms");
    // Mean, not median: a Next that walks a stored row takes ~100 ns.
    report.Metric("educe.next_ms", next_ms.Mean(), "ms");
    report.Metric("educe.store_facts_s", facts_s.Median(), "s");
    report.Metric("educe.store_rules_s", rules_s.Median(), "s");
    // Per-class p50 with kClients clients over p50 with one, untraced both.
    report.Metric("educe.contention_inflation",
                  P50Ratio(untraced_lat, solo[0]->lat, kScan + 1),
                  "ratio");
    report.Metric("reader.parse_s", parse_s.Median(), "s");
    report.Metric("rel.edb_load_ms", load_ms.Median(), "ms");
    report.Metric("server.request_parse_ms", request_ms.Median(), "ms");
    ReportLayerCounts(layer, &report);
    report.Metric("trace.overhead_ratio",
                  P50Ratio(lat, untraced_lat, kScan + 1), "ratio");
    const std::string path = args.work_dir + "/shared_read_trace.json";
    std::vector<const SpanLog*> logs = {&probe_spans};
    for (const auto* group : {&solo, &runs}) {
      for (const auto& run : *group) logs.push_back(&run->spans);
    }
    WriteChromeTrace(path, logs, run_start);
    std::printf("shared_read: trace written to %s\n", path.c_str());
  }
  runs[0]->drift.Print("shared_read");
  report.Print("shared_read");
  return 0;
}

}  // namespace kbbench
