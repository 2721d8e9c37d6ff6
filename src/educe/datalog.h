#ifndef EDUCE_EDUCE_DATALOG_H_
#define EDUCE_EDUCE_DATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "dict/dictionary.h"
#include "edb/clause_store.h"
#include "obs/trace.h"
#include "reader/parser.h"
#include "rel/datalog.h"
#include "term/ast.h"
#include "wam/program.h"

namespace educe {

/// Per-procedure evaluation strategy (shell `:strategy`, DESIGN.md §15).
enum class DatalogStrategy : uint8_t {
  kAuto = 0,   // bottom-up iff Datalog-eligible AND recursive
  kWam,        // always top-down SLD
  kBottomUp,   // bottom-up whenever eligible (fall back if not)
};

/// Counters for ExportMetricsJson's "datalog" section and the benches.
struct DatalogStats {
  uint64_t queries_bottom_up = 0;   // answered by the evaluator
  uint64_t queries_fallback = 0;    // offered but routed back to the WAM
  uint64_t plans_compiled = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plans_invalidated = 0;   // dropped by push invalidation
  uint64_t magic_rewrites = 0;      // plans compiled with a magic rewrite
  /// Lifetime sums over all bottom-up evaluations.
  uint64_t strata = 0;
  uint64_t iterations = 0;
  uint64_t tuples_derived = 0;
  uint64_t join_rows = 0;
  uint64_t join_probes = 0;         // hash-index lookups in join loops
  uint64_t index_builds = 0;        // column hash indexes built
  uint64_t dedup_hits = 0;
  /// EDB rows read from the clause store to fill the EDB cache; a query
  /// served from warm cache entries reads 0.
  uint64_t edb_rows = 0;
  /// Wall time of the evaluations' joins and of their delta flushes
  /// (rel::datalog::EvalStats::join_ns, flush_ns), and of projecting
  /// the query relation into answers.
  uint64_t join_ns = 0;
  uint64_t flush_ns = 0;
  uint64_t answer_ns = 0;
  /// Answer constants decoded to ASTs: each distinct constant of an
  /// answer decodes once, on its first read, so an answer whose
  /// bindings are never read decodes none.
  uint64_t constants_decoded = 0;
  /// Per-round new-tuple counts of the most recent evaluation.
  std::vector<uint64_t> last_delta_sizes;
  /// Tuples derived per stratum in the most recent evaluation.
  std::vector<uint64_t> last_per_stratum_tuples;
};

/// The distinct constants of one bottom-up answer (DESIGN.md §15.2).
/// The answer's cells hold ids into this table; it keeps each constant
/// in its encoded int64 form and decodes it to an AST on its first read,
/// at most once per answer, so every later read of it is one indexed
/// load and one AstPtr copy. Like the Solutions that carries it, it is
/// read by one thread at a time.
class AnswerConstants {
 public:
  /// Adds one to `*decoded` (when not null) per constant decoded.
  explicit AnswerConstants(std::atomic<uint64_t>* decoded = nullptr)
      : decoded_(decoded) {}

  /// The id of `value` (an encoded constant), adding it when new.
  uint64_t Intern(int64_t value) {
    const uint64_t id = ids_.Intern(value);
    if (id == constants_.size()) constants_.push_back(Constant{value, {}});
    return id;
  }

  /// The AST of constant `id`, decoded on first use.
  const term::AstPtr& Ast(uint32_t id) const;

 private:
  struct Constant {
    int64_t value;
    term::AstPtr ast;  // null until first read
  };

  rel::datalog::ValueIds ids_;
  mutable std::vector<Constant> constants_;  // by id
  std::atomic<uint64_t>* decoded_;
};

/// Bridge between the term world and the int64 Datalog IR (DESIGN.md §15):
/// keeps an AST catalog of every consulted / externally stored rule,
/// decides per-procedure eligibility, compiles (predicate, adornment)
/// pairs to rel::datalog programs with magic-set rewriting, caches each
/// plan with its rel::datalog::CompiledProgram under push invalidation
/// off the clause store's mutation listeners, and answers a query by
/// running the cached program in a fresh rel::datalog::Evaluator. EDB
/// relations come from an EDB cache: one shared rel::datalog::Relation
/// per relation (deduplicated rows plus column indexes built on first
/// probe), filled by one ClauseStore::ScanAllFacts and borrowed by every
/// evaluation while the procedure's version still matches.
///
/// Thread safety: all public methods latch an internal mutex; plans and
/// their compiled programs are shared read-only; each evaluation owns
/// its registers, row ranges and IDB arenas; cache entries' rows are
/// immutable once published (their column indexes build under
/// per-column once flags, outside the mutex), and the bulk fact scan
/// takes the clause store's read latch, so concurrent sessions may
/// answer bottom-up queries in parallel.
class DatalogManager {
 public:
  DatalogManager(dict::Dictionary* dictionary, edb::ClauseStore* store,
                 wam::Program* program, obs::Tracer* tracer);
  ~DatalogManager();

  DatalogManager(const DatalogManager&) = delete;
  DatalogManager& operator=(const DatalogManager&) = delete;

  /// Feeds one consulted / externally stored clause into the catalog
  /// (facts and rules alike; non-Datalog clauses are kept too — they make
  /// their predicate ineligible rather than being dropped).
  void AddClause(const term::AstPtr& clause);

  void SetStrategy(std::string_view name, uint32_t arity,
                   DatalogStrategy strategy);
  DatalogStrategy GetStrategy(std::string_view name, uint32_t arity) const;

  /// Human-readable eligibility + strategy report for the shell.
  std::string Describe(std::string_view name, uint32_t arity);

  /// Result of offering a goal to the bottom-up path.
  struct Answer {
    bool handled = false;  // false: run it on the WAM instead
    /// The solutions, each once (set semantics), in the order the query
    /// relation first derived them, which is deterministic. Row-major:
    /// solution r binds the i-th variable of `read.var_names` to
    /// constant cells[r * width + i] of `constants`.
    std::vector<uint32_t> cells;
    AnswerConstants constants;
    uint32_t width = 0;  // named variables per solution
    uint64_t count = 0;  // solutions; with width 0, 1 means "true"
  };

  /// Offers a parsed goal to the bottom-up path. handled=false (with OK
  /// status) means the goal is out of Datalog range, the strategy says
  /// WAM, or the auto policy declined — callers fall back with identical
  /// solution sets. Errors are real evaluation failures.
  base::Result<Answer> TryQuery(const reader::ReadTerm& read);

  DatalogStats stats() const;

  /// Bytes held by the EDB cache's relations: row arenas, hash slots and
  /// every column index built so far.
  uint64_t EdbCacheBytes() const;

  /// Drops every EDB cache entry. The cached rows hold atom SymbolIds, so
  /// a dictionary sweep that may recycle ids must call this.
  void ClearEdbCache();

 private:
  struct Plan;
  struct EdbEntry;

  using PredKey = std::pair<std::string, uint32_t>;  // name, arity

  /// (name, arity, adornment bitmask of bound goal positions).
  using PlanKey = std::tuple<std::string, uint32_t, uint64_t>;

  /// Compiles the dependency closure of (name, arity) into an IR program.
  /// Unsupported when anything in the closure is out of Datalog range.
  base::Result<std::shared_ptr<Plan>> Compile(const std::string& name,
                                              uint32_t arity,
                                              uint64_t adornment,
                                              const term::Ast& goal);

  void InvalidateDependents(const PredKey& key);

  /// The relation of EDB predicate `key`: its cache entry when that was
  /// read at the procedure's current version, otherwise one bulk scan
  /// that replaces the entry. Adds the rows read from the store to
  /// `*rows_read`. Takes mu_ only around the cache lookup and the
  /// publish, never across the store call.
  base::Result<std::shared_ptr<const rel::datalog::Relation>> LoadEdb(
      const PredKey& key, uint64_t* rows_read);

  dict::Dictionary* dictionary_;
  edb::ClauseStore* store_;
  wam::Program* program_;
  obs::Tracer* tracer_;
  uint64_t listener_token_ = 0;

  mutable std::mutex mu_;
  /// Bumped on every catalog/store mutation; a compile that raced one
  /// may be used once but is never cached.
  uint64_t epoch_ = 0;
  std::map<PredKey, std::vector<term::AstPtr>> catalog_;
  std::map<PredKey, DatalogStrategy> strategies_;
  std::map<PlanKey, std::shared_ptr<Plan>> plans_;
  std::map<PredKey, std::shared_ptr<const EdbEntry>> edb_cache_;
  DatalogStats stats_;
  /// DatalogStats::constants_decoded: answers decode after TryQuery
  /// returns, outside mu_.
  std::atomic<uint64_t> constants_decoded_{0};
};

}  // namespace educe

#endif  // EDUCE_EDUCE_DATALOG_H_
