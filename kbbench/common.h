// Shared plumbing of the kbbench program: arguments, clocks, exact-sample
// statistics, the benchmark's own span log (exported as a Chrome trace),
// the host-drift gauge, engine counter snapshots and the result report.
//
// Nothing here reaches inside the engine: timings wrap calls into public
// functions, and counts come from Engine::Stats() plus the per-relation
// BANG statistics the clause store already exposes.

#ifndef KBBENCH_COMMON_H_
#define KBBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "educe/engine.h"

namespace kbbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double MsSince(uint64_t start_ns) { return (NowNs() - start_ns) * 1e-6; }

/// Aborts the run without printing a result line; the non-zero exit
/// marks the run as failed.
[[noreturn]] inline void Die(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "kbbench: FATAL: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  std::exit(2);
}

inline void Check(const educe::base::Status& status, const char* what) {
  if (!status.ok()) Die("%s: %s", what, status.ToString().c_str());
}

template <typename T>
T CheckResult(educe::base::Result<T> result, const char* what) {
  if (!result.ok()) Die("%s: %s", what, result.status().ToString().c_str());
  return std::move(*result);
}

/// Exact order statistics over every sample (no bucketing: a bucketed
/// percentile would read the same value run after run).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
  }
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    double sum = 0;
    for (double v : values_) sum += v;
    return values_.empty() ? 0 : sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// The geometric mean, over op classes sampled on both sides, of p50 in
/// `num` over p50 in `den`. With traced over untraced blocks of one run it
/// is the tracing overhead; with N clients over 1, contention inflation.
double P50Ratio(const Samples* num, const Samples* den, int classes);

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The geometric mean over the non-empty classes of their medians: one
/// latency figure for a workload that weighs each class alike. Each class
/// keeps its own median, so no percentile is taken over a mix.
double GeoMeanP50(const Samples* classes, int n);

/// printf arguments for %llu / %lld.
inline unsigned long long Ull(uint64_t v) { return v; }
inline long long Ll(int64_t v) { return v; }

inline double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The benchmark's own spans: one per call it makes into a layer's
/// public function, nested under the op that made it. One log per
/// thread; the logs merge at export.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid = 0) : tid_(tid) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Returns a handle for End(); 0 when disabled.
  uint32_t Begin(const char* name, uint64_t op) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.op = op;
    span.start_ns = NowNs();
    span.parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(span);
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Chrome trace_event "complete" events (loadable in Perfetto).
  void AppendChromeEvents(std::string* out, uint64_t origin_ns,
                          bool* first) const {
    char buf[320];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"span\":%zu,\"parent\":%u}}",
                    *first ? "" : ",\n", s.name, tid_,
                    (s.start_ns - origin_ns) * 1e-3,
                    (s.end_ns - s.start_ns) * 1e-3,
                    static_cast<unsigned long long>(s.op), i + 1, s.parent);
      out->append(buf);
      *first = false;
    }
  }
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name = "";
    uint64_t op = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = 0;
  };
  uint32_t tid_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op)
      : log_(log), id_(log->Begin(name, op)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

/// Writes the merged span logs as one Chrome trace document.
void WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns);

/// Host gauge: a fixed hashing loop timed at intervals through the run.
/// Its timings are printed beside the metrics, so a reader can tell a
/// slow host from a slow program. The workloads also divide latencies by
/// gauge timings: on a shared VM the host's speed moved by 1.5x within
/// seconds, and the ratio cancels what the engine and the gauge suffer
/// alike. Each caller thread keeps its own gauge and divides each sample
/// by its latest timing (HostRatio).
class DriftGauge {
 public:
  explicit DriftGauge(uint64_t period_ms) : period_ns_(period_ms * 1'000'000) {}

  /// Samples if a period has passed since the last sample.
  void MaybeSample() {
    if (NowNs() - last_ns_ < period_ns_) return;
    Sample();
    last_ns_ = NowNs();
  }
  /// Times the loop once; returns the timing in ms.
  double Sample();
  /// `ms` over the latest gauge timing.
  double HostRatio(double ms) const { return Ratio(ms, latest_ms_); }
  /// A set-up time scaled to the gauge's nominal timing, so it stays in
  /// seconds: `s` x kNominalMs over `gauge_ms`, the gauge timed around it.
  static double AtNominal(double s, double gauge_ms) {
    return s * Ratio(kNominalMs, gauge_ms);
  }
  /// The gauge's typical timing on a 4-vCPU Xeon VM.
  static constexpr double kNominalMs = 1.5;
  const Samples& samples() const { return samples_; }
  void Print(const char* workload) const;

 private:
  uint64_t period_ns_;
  uint64_t last_ns_ = 0;
  double latest_ms_ = 0;
  Samples samples_;
};

/// Engine counters the benchmark snapshots around ops. They are exact
/// counts and repeat run after run for a single caller.
enum Counter : int {
  kInstructions,
  kCalls,
  kChoicePoints,
  kChoicePointsEliminated,
  kBacktracks,
  kBufferHits,
  kBufferMisses,
  kBufferEvictions,
  kPagesRead,
  kPagesWritten,
  kFactRows,
  kBulkFactRows,
  kRuleRowsScanned,
  kRuleCodesFetched,
  kClausesDecoded,
  kCacheHits,
  kCacheMisses,
  kCachePatternHits,
  kCacheSelectionHits,
  kCachePatternMisses,
  kCacheInvalidations,
  kDatalogQueries,
  kPlansCompiled,
  kPlanCacheHits,
  kIterations,
  kTuplesDerived,
  kJoinProbes,
  kDedupHits,
  kEdbRows,
  kWalRecords,
  kWalBytes,
  kFsyncs,
  kBangRecords,
  kDictEntries,
  kLatencyCount,
  kCounterCount
};

const char* CounterName(int c);

struct Counts {
  std::array<uint64_t, kCounterCount> v{};
  uint64_t operator[](int c) const { return v[c]; }
  Counts operator-(const Counts& o) const {
    Counts d;
    for (int i = 0; i < kCounterCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  Counts& operator+=(const Counts& o) {
    for (int i = 0; i < kCounterCount; ++i) v[i] += o.v[i];
    return *this;
  }
};

/// Snapshot of `engine`'s counters; BANG records are summed over the
/// given fact relations.
Counts Snapshot(educe::Engine* engine,
                const std::vector<std::pair<std::string, uint32_t>>& relations);

/// Fails the run when the count-valued entries of two snapshots differ.
void CheckRepeatable(const Counts& a, const Counts& b, const char* what);

/// Bytes the knowledge base occupies in its store: the paged file (the
/// image on disk, or its in-memory pages) plus the write-ahead log.
uint64_t StoreBytes(educe::Engine* engine);

/// The line a server client sends to ask `goal`.
std::string RequestLine(const std::string& goal, uint64_t id);

/// server::ParseJson timed alone on all of `lines`, `repeats` times; each
/// sample is the mean ms per line of one pass. (A parse takes well under
/// a microsecond, and the median of single timings at the clock's
/// nanosecond grain could read the same run after run.)
Samples TimeRequestParse(const std::vector<std::string>& lines, int repeats);

/// reader::ParseProgram timed alone on `text`, against a fresh
/// dictionary each time; seconds, `repeats` samples.
Samples TimeReaderParse(const std::string& text, int repeats);

/// ClauseStore::ScanAllFacts on the fact relation `name`/`arity` timed
/// alone, `repeats` times, in ms; every scan must stream `rows` rows.
Samples TimeScanAllFacts(educe::Engine* engine, const std::string& name,
                         uint32_t arity, uint64_t rows, int repeats,
                         SpanLog* spans);

/// The counter side of the per-layer split, in the terms every workload
/// shares. Counts are Engine::Stats() deltas over the traced ops; a layer
/// a workload leaves idle reads 0 (the WAM in closure, the WAL in the
/// in-memory workloads, rel/datalog in the MVV workloads).
struct LayerCounts {
  Counts reads;               // over the read queries
  double read_queries = 0;    // a route round is 20 queries
  double read_solutions = 0;  // answers those queries returned
  Counts writes;              // over the durable writes
  double write_ops = 0;
  double written_bytes = 0;   // fact text those writes asserted
  double setup_fsyncs = 0;    // median over the run's setups
  double checkpoint_pages = 0;  // median pages written per checkpoint
  double latency_coverage = 0;  // histogram count over queries answered
  double shed_ratio = 0;        // shed over admitted + shed
};

class Report;

/// Adds every count-derived per-layer metric of `c` to `report`.
void ReportLayerCounts(const LayerCounts& c, Report* report);

inline double BufferAccesses(const Counts& d) {
  return static_cast<double>(d[kBufferHits]) + d[kBufferMisses];
}

inline double CacheHitRatio(const Counts& d) {
  const double hits = static_cast<double>(d[kCacheHits]) +
                      d[kCachePatternHits] + d[kCacheSelectionHits];
  return Ratio(hits, hits + d[kCacheMisses] + d[kCachePatternMisses]);
}

/// The result line and the human-readable lines before it.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  /// A metric that is a ratio of two counts (0 when `den` is 0).
  void Per(const std::string& name, double num, double den, const char* unit) {
    Metric(name, Ratio(num, den), unit);
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const char* fmt, ...);
  /// A wrong answer: counts as failed and makes the run incorrect.
  void Wrong(const char* fmt, ...);
  /// Folds in the ops another caller attempted.
  void Merge(const Report& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    correct_ = correct_ && other.correct_;
  }
  /// Prints the failed share, every metric by name with its unit, and the
  /// final JSON line.
  void Print(const char* workload) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  int messages_ = 0;
};

}  // namespace kbbench

#endif  // KBBENCH_COMMON_H_
