#ifndef EDUCE_EDUCE_DATALOG_H_
#define EDUCE_EDUCE_DATALOG_H_

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
  /// Per-round new-tuple counts of the most recent evaluation.
  std::vector<uint64_t> last_delta_sizes;
  /// Tuples derived per stratum in the most recent evaluation.
  std::vector<uint64_t> last_per_stratum_tuples;
};

/// Bridge between the term world and the int64 Datalog IR (DESIGN.md §15):
/// keeps an AST catalog of every consulted / externally stored rule,
/// decides per-procedure eligibility, compiles (predicate, adornment)
/// pairs to rel::datalog programs with magic-set rewriting, caches the
/// plans with push invalidation off the clause store's mutation
/// listeners, and runs queries through rel::datalog::Evaluator. EDB
/// relations come from an EDB cache: one shared rel::datalog::Relation
/// per relation (deduplicated rows plus column indexes built on first
/// probe), filled by one ClauseStore::ScanAllFacts and borrowed by every
/// evaluation while the procedure's version still matches.
///
/// Thread safety: all public methods latch an internal mutex; each
/// evaluation owns its IDB arenas, cache entries' rows are immutable once
/// published (their column indexes build under per-column once flags,
/// outside the mutex), and the bulk fact scan takes the clause store's
/// read latch, so concurrent sessions may answer bottom-up queries in
/// parallel.
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
    /// cells[r * width + i].
    std::vector<term::AstPtr> cells;
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
};

}  // namespace educe

#endif  // EDUCE_EDUCE_DATALOG_H_
