// The knowledge base the two MVV workloads share, generated from the
// run's seed: the MVV transport network with its route rules, a
// Wisconsin-style wisc/5 relation with two rules over it, and the seeded
// read/write op stream. The engine only ever sees the generated text.

#ifndef KBBENCH_KB_H_
#define KBBENCH_KB_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "educe/engine.h"
#include "workloads/mvv.h"

namespace kbbench {

enum OpClass : int {
  kLookup,
  kRule,
  kRoute,
  kScan,
  kAssert,
  kRetract,
  kClassCount
};

const char* ClassName(int cls);

struct Op {
  OpClass cls = kLookup;
  uint64_t arg = 0;  // lookup/rule key or one_pct selector
};

/// Op mix, as relative weights per class.
using Mix = std::array<uint32_t, kClassCount>;

/// One query's outcome, whichever transport carried it: the answer count
/// (-1 when the query errored or was shed) and, for the classes whose
/// check reads bindings, each answer's values of AnswerVars(cls) in order.
struct Answer {
  int64_t count = -1;
  std::vector<std::vector<std::string>> rows;
};

/// The variables whose bindings an op class's check reads; empty when
/// only the answer count is checked.
const std::vector<std::string>& AnswerVars(OpClass cls);

class Kb {
 public:
  static constexpr int kWiscRows = 20000;

  explicit Kb(uint64_t seed);

  /// Declares the relations and stores facts and rules in the EDB, rules
  /// compiled. Adds the two store phases' wall time to the samples.
  void Store(educe::Engine* engine, Samples* facts_s, Samples* rules_s) const;

  /// Counts every route query with the rules consulted in main memory on
  /// a second, in-memory engine: the reference the stored rules must match.
  void ComputeRouteOracle();

  const std::vector<std::string>& route_queries() const { return routes_; }

  /// The goal of a lookup, pair/2 or one_pct/2 op.
  std::string ReadGoal(const Op& op) const;
  static constexpr uint64_t kScanRows = kWiscRows / 100;

  /// Text stored at setup, for reader timing and byte accounting.
  const std::string& setup_text() const { return setup_text_; }
  uint64_t setup_bytes() const { return setup_text_.size(); }

  /// Fact relations, for BANG record accounting.
  static const std::vector<std::pair<std::string, uint32_t>>& Relations();

  /// The request lines a server client sends for the first `n` reads of
  /// a stream with `seed` and `mix` (a route round is 20 lines).
  std::vector<std::string> RequestLines(uint64_t seed, const Mix& mix,
                                        size_t n) const;

  /// Checks the answer of a lookup, pair/2 or one_pct/2 op against the
  /// generator's arithmetic: a lookup returns exactly its row, pair/2 its
  /// one join partner, one_pct/2 exactly 1% of wisc. Records an error as a
  /// failure and a wrong answer as wrong.
  void CheckRead(const Op& op, const Answer& answer,
                 Report* report) const;
  /// Checks a route round's counts (one per route query, -1 for an error)
  /// against the oracle. A round is one op: it counts at most one failure,
  /// an error before a wrong count.
  void CheckRouteRound(const std::vector<int64_t>& counts,
                       Report* report) const;

 private:
  std::vector<std::string> LookupRow(uint64_t key) const;
  std::string RuleAnswer(uint64_t key) const;

  educe::workloads::MvvWorkload mvv_;
  std::vector<uint32_t> perm_;
  std::string wisc_facts_;
  std::string wisc_rules_;
  std::string setup_text_;
  std::vector<std::string> routes_;
  std::vector<uint64_t> route_counts_;
};

/// A seeded, endless op stream. Classes come from a deck holding each
/// class as often as its weight, reshuffled every cycle: any stretch of
/// the stream carries the mix's proportions, so two runs differ in order,
/// not in how much of each class they do.
class OpStream {
 public:
  OpStream(uint64_t seed, const Mix& mix);
  Op Next();

 private:
  educe::base::Rng rng_;
  std::vector<OpClass> deck_;
  size_t next_ = 0;
};

/// Fisher-Yates with the benchmark's generator.
template <typename T>
void Shuffle(std::vector<T>* v, educe::base::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// The ledger/3 write sequence of serial_rw: a fixed series of durable
/// asserts (every fourth mints a fresh atom) and retracts of the oldest
/// live row. Tracks what the engine must hold.
class Ledger {
 public:
  /// A live row: its id, its rendered "V T" and its bytes as stored text.
  struct Row {
    uint64_t id = 0;
    std::string values;
    uint64_t bytes = 0;
  };

  explicit Ledger(uint64_t seed) : seed_(seed) {}

  /// The goal of the next write of class `cls` (a retract with no live row
  /// asserts instead); its effect counts once Acknowledge()d.
  std::string NextGoal(OpClass cls);
  void Acknowledge();
  uint64_t writes() const { return writes_; }
  /// Bytes of fact text of the rows now live, and of every assert so far.
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t asserted_bytes() const { return asserted_bytes_; }
  /// Rows that must be present, oldest first.
  const std::deque<Row>& live() const { return live_; }
  static std::string ScanGoal() { return "ledger(I, V, T)"; }

 private:
  uint64_t seed_;
  uint64_t writes_ = 0;
  uint64_t next_id_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t asserted_bytes_ = 0;
  std::deque<Row> live_;
  // Effect of the goal handed out last: an assert (row) or a retract.
  bool pending_assert_ = false;
  Row pending_row_;
};

/// One query on a single-caller engine: opens it, drains every solution
/// and hands each to `on_row`. Records Engine::Query and per-Next times
/// into the optional samples and spans. Returns the solution count, or
/// -1 when the engine reported an error. Either sample set may be null.
template <typename OnRow>
int64_t RunQuery(educe::Engine* engine, const std::string& goal,
                 SpanLog* spans, uint64_t op, Samples* open_ms,
                 Samples* next_ms, OnRow on_row) {
  uint64_t t0 = NowNs();
  const uint32_t open_span = spans->Begin("Engine::Query", op);
  auto opened = engine->Query(goal);
  spans->End(open_span);
  if (open_ms != nullptr) open_ms->Add(MsSince(t0));
  if (!opened.ok()) return -1;
  std::unique_ptr<educe::Solutions> solutions = std::move(*opened);
  int64_t count = 0;
  while (true) {
    if (next_ms != nullptr) t0 = NowNs();
    const uint32_t next_span = spans->Begin("Solutions::Next", op);
    auto next = solutions->Next();
    spans->End(next_span);
    if (next_ms != nullptr) next_ms->Add(MsSince(t0));
    if (!next.ok()) return -1;
    if (!*next) break;
    on_row(*solutions);
    ++count;
  }
  return count;
}

/// RunQuery for a read op of class `cls`, keeping the bindings its check
/// reads.
inline Answer EngineAnswer(educe::Engine* engine, const std::string& goal,
                           OpClass cls, SpanLog* spans, uint64_t op,
                           Samples* open_ms, Samples* next_ms) {
  const std::vector<std::string>& vars = AnswerVars(cls);
  Answer answer;
  answer.count = RunQuery(engine, goal, spans, op, open_ms, next_ms,
                          [&](educe::Solutions& s) {
                            if (vars.empty()) return;
                            std::vector<std::string> row;
                            for (const std::string& v : vars) {
                              row.push_back(s.Binding(v));
                            }
                            answer.rows.push_back(std::move(row));
                          });
  return answer;
}

}  // namespace kbbench

#endif  // KBBENCH_KB_H_
