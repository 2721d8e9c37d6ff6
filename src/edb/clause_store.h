#ifndef EDUCE_EDB_CLAUSE_STORE_H_
#define EDUCE_EDB_CLAUSE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "base/counter.h"
#include "base/result.h"
#include "base/status.h"
#include "dict/dictionary.h"
#include "edb/code_codec.h"
#include "edb/external_dictionary.h"
#include "obs/lock_profiler.h"
#include "obs/trace.h"
#include "storage/bang_file.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "term/ast.h"
#include "term/cell.h"
#include "wam/code.h"

namespace educe::wam {
class Machine;
}  // namespace educe::wam

namespace educe::edb {

/// How a procedure's clauses live in the EDB.
enum class ProcedureMode : uint8_t {
  kFacts = 0,          // ground tuples, conventional relation (code = false)
  kCompiledRules = 1,  // relative WAM code (Educe*)
  kSourceRules = 2,    // clause source text (the Educe baseline)
};

/// Summary of one call argument, used by fact retrieval patterns and by
/// the pre-unification unit. Values are *external* hashes / immediate
/// bits, never internal ids — pre-unification runs on relative addresses
/// (paper §4).
struct ArgSummary {
  enum class Kind : uint8_t { kAny, kAtom, kInt, kFloat, kList, kStruct };
  Kind kind = Kind::kAny;
  uint64_t value = 0;  // external hash (atom/struct functor) or bits
};
using CallPattern = std::vector<ArgSummary>;

/// BANG key of a ground argument (storage side) — must agree with
/// ArgSummary keys computed from call arguments (query side).
uint64_t KeyOfGroundArg(const term::Ast& arg, const dict::Dictionary& dict);
/// BANG key of a bound call argument summary.
uint64_t KeyOfSummary(const ArgSummary& s);

/// Builds the call pattern for the first `arity` argument registers.
CallPattern PatternFromCall(wam::Machine* machine, uint32_t arity);

/// Summary of one (dereferenced) cell.
ArgSummary SummaryOfCell(wam::Machine* machine, term::Cell cell);

/// Fact-row pre-unification (paper §4): false only if some bound
/// argument of `pattern` provably cannot unify with the stored row
/// `payload` (CodeCodec::EncodeGroundTerm bytes), judged on the relative
/// data in place. Atoms and functors compare external hashes, numbers
/// compare the cell bits Unify compares; the walk stops after the first
/// compound argument.
bool FactRowMayMatch(std::string_view payload, const CallPattern& pattern);

/// One external procedure's catalog entry (paper §4 structure 1: the
/// procedures table, marking procedures as external).
struct ProcedureInfo {
  std::string name;
  uint32_t arity = 0;
  ProcedureMode mode = ProcedureMode::kFacts;
  uint64_t functor_hash = 0;  // external-dictionary hash of name/arity
  /// The per-procedure relation (paper §4 structure 3): one row per
  /// clause/fact. Facts: keys = one per *key attribute* (below), payload =
  /// encoded tuple. Rules: keys = [first-arg index key, clause_id],
  /// payload = code flag.
  std::unique_ptr<storage::BangFile> relation;
  /// Facts only: which argument positions form the BANG key. Interleaved
  /// address bits are shared among key attributes, so fewer attributes
  /// means more directory bits (= better partial-match selectivity) per
  /// attribute — the same trade a DBA makes choosing index columns.
  std::vector<uint32_t> key_attrs;
  uint32_t next_clause_id = 0;
  /// Bumped on every update (under this procedure's latch); loader
  /// caches check it. A relaxed atomic so readers may sample it without
  /// the latch; a consistent (version, payload) pair comes from
  /// FetchRulesDetailed, which snapshots it inside the latched fetch.
  base::RelaxedCounter version;
  /// Per-procedure reader-writer latch (DESIGN.md §17.4): mutations of
  /// this procedure's relation hold it exclusively, scans hold it
  /// shared, so edb_assert on one relation no longer stalls readers of
  /// every other. Heap-allocated because TrackedSharedMutex is pinned
  /// while ProcedureInfo moves into the catalog map. Lock order: the
  /// store's catalog latch_ (if taken) comes first, then exactly one
  /// procedure latch (WithMutationsBlocked takes all of them, in
  /// catalog-map order), then clauses_mu_, then listeners_mu_. The
  /// external dictionary's internal mutex is a leaf below any of these:
  /// every dictionary-mutating path (Declare's Ensure, the Store*
  /// encodes) runs under some exclusive store latch, which is what lets
  /// WithMutationsBlocked fence dictionary mutations without holding
  /// the dictionary's own lock.
  std::unique_ptr<obs::TrackedSharedMutex> latch;
};

/// Counters for the rule-storage and pre-unification benches. Relaxed
/// atomics: concurrent worker sessions bump them under the read latch.
struct ClauseStoreStats {
  base::RelaxedCounter facts_stored;
  base::RelaxedCounter rules_stored;
  base::RelaxedCounter fact_rows_fetched;   // rows shipped to the caller
  base::RelaxedCounter fact_rows_filtered;  // rejected in the page
  base::RelaxedCounter bulk_fact_scans;    // ScanAllFacts calls (datalog)
  base::RelaxedCounter bulk_fact_rows;     // rows streamed by ScanAllFacts
  base::RelaxedCounter rule_rows_scanned;   // candidate rows examined
  base::RelaxedCounter rule_codes_fetched;  // clause codes actually shipped
  base::RelaxedCounter preunify_filtered;   // dropped by pre-unification
  /// Wall time inside FetchRulesDetailed. The loader calls it only on
  /// code-cache misses, so this is the page-fetch price of missing the
  /// cache — the memory governor bills it to the cache side of the
  /// budget, not to the buffer pool whose read counters it inflates.
  base::RelaxedCounter rule_fetch_ns;
};

/// Management of compiled code and facts in the EDB (paper §3.1, §4):
/// the procedures table, per-procedure relations, and the global clauses
/// relation keyed (procedure, clause_id) holding relative code or source
/// text. Owns no buffers; everything lives in the supplied pool's file.
///
/// Thread safety (DESIGN.md §10, §17.4): a catalog latch guards the
/// procedures map (Declare/RestoreCatalog exclusive, lookups and every
/// per-procedure operation shared), and each procedure carries its own
/// reader-writer latch guarding its relation, version and clause ids —
/// so edb_assert/edb_retract of one relation runs concurrently with
/// reader sessions scanning any other, and mutators of *different*
/// relations never serialize on each other. The shared clauses relation
/// has its own latch (clauses_mu_). Mutations fire mutation listeners
/// before their procedure latch releases, so a reader can never fetch
/// new payloads and then observe a cache entry built from old ones.
/// CollectFacts/ScanAllFacts drain whole scans under one shared hold of
/// the procedure latch because concurrent inserts may split BANG buckets
/// and relocate records under an open cursor. ProcedureInfo
/// pointers are stable (node-based map) and may be held across latch
/// releases.
///
/// Durability (DESIGN.md §17): with set_wal(), every mutation appends a
/// physiological redo record to the WAL *before* touching the relation
/// (log-before-update), under the same procedure latch that orders the
/// mutation — so replay order equals apply order per procedure. The
/// write methods only append: the commit unit is one public call, and
/// the entry point that acknowledges it calls Commit() (or CommitAfter)
/// once, with no latch held, before it returns (group commit).
class ClauseStore {
 public:
  ClauseStore(storage::BufferPool* pool, ExternalDictionary* external,
              CodeCodec* codec, dict::Dictionary* dictionary);

  /// Declares an external procedure. AlreadyExists if declared before.
  /// For kFacts, `key_attrs` selects the argument positions clustered by
  /// the BANG file (empty = the first min(arity, 4) positions).
  base::Result<ProcedureInfo*> Declare(std::string_view name, uint32_t arity,
                                       ProcedureMode mode,
                                       std::vector<uint32_t> key_attrs = {});

  /// Catalog lookup; nullptr if `functor` is not external.
  ProcedureInfo* Find(dict::SymbolId functor);
  ProcedureInfo* Find(std::string_view name, uint32_t arity);
  /// Lookup by the stable external-dictionary functor hash (code-cache
  /// identity); nullptr if unknown.
  ProcedureInfo* FindByHash(uint64_t functor_hash);

  /// Stores a ground fact (an atom/struct whose args are all ground).
  /// The procedure must be kFacts.
  base::Status StoreFact(ProcedureInfo* proc, const term::Ast& fact);

  /// Stores a compiled clause (kCompiledRules): the clause row goes into
  /// the procedure relation, the relative code into the clauses relation.
  base::Status StoreRuleCompiled(ProcedureInfo* proc,
                                 const wam::ClauseCode& code);

  /// Stores a clause as source text (kSourceRules, the Educe baseline).
  base::Status StoreRuleSource(ProcedureInfo* proc, std::string_view text);

  /// Fetches rule clause payloads (relative code or source text) in
  /// clause_id order. With `pattern` (compiled mode), the EDB-side filter
  /// runs: first-argument key filtering via the relation's BANG keys plus
  /// the pre-unification unit over the relative code (paper §4). Pass
  /// nullptr to fetch everything (the loader's full-procedure path and
  /// the source baseline's "retrieve all clauses" policy).
  base::Result<std::vector<std::string>> FetchRules(
      ProcedureInfo* proc, const CallPattern* pattern, bool preunify);

  /// FetchRules plus the surviving clause ids (same order as `payloads`).
  /// The id sequence is the loader's selection fingerprint: two calls
  /// selecting the same ids at the same procedure version are guaranteed
  /// the same linked code.
  struct RuleFetch {
    std::vector<uint32_t> clause_ids;
    std::vector<std::string> payloads;
    /// The procedure version the payloads were read at, snapshotted
    /// inside the latched fetch: the version a cache entry built from
    /// these payloads must record.
    uint64_t version = 0;
  };
  base::Result<RuleFetch> FetchRulesDetailed(ProcedureInfo* proc,
                                             const CallPattern* pattern,
                                             bool preunify);

  /// Mutation push notifications: fired after any update that bumps a
  /// procedure's version (facts and rules alike). The loader's code cache
  /// subscribes to evict stale entries eagerly instead of waiting for a
  /// version check at lookup. Returns a token for RemoveMutationListener;
  /// listeners must deregister before they dangle.
  using MutationListener = std::function<void(const ProcedureInfo&)>;
  uint64_t AddMutationListener(MutationListener listener);
  void RemoveMutationListener(uint64_t token);

  /// Deletes the fact at `rid` from `proc`'s relation (rid from a
  /// CollectFacts match, with no insert into `proc` in between).
  base::Status DeleteFact(ProcedureInfo* proc, storage::RecordId rid);

  /// One matching fact row in its stored (relative) form, plus its
  /// storage id (for deletion). CodeCodec::DecodeOntoHeap builds its
  /// term on a machine's heap.
  struct FactRow {
    std::string payload;
    storage::RecordId rid;
  };
  /// Drains a whole fact scan under a single read-latch hold and returns
  /// every match. This is the concurrency-safe retrieval path: the latch
  /// keeps mutators (whose inserts can split buckets and relocate
  /// records) out for the duration of the scan. Bound key attributes
  /// select BANG buckets; every other bound atomic argument is
  /// pre-unified against the stored row in the page (FactRowMayMatch),
  /// so only rows that may unify are copied out. Necessary, not
  /// sufficient: callers still decode and unify each row.
  base::Result<std::vector<FactRow>> CollectFacts(ProcedureInfo* proc,
                                                  const CallPattern& pattern);

  /// Bulk fact feed for the bottom-up evaluator (DESIGN.md §15): one
  /// wildcard scan of the whole relation under a single read-latch hold,
  /// streaming each decoded fact to `sink` without materializing the
  /// vector of matches. Returns the procedure version the rows were read
  /// at (snapshotted inside the latch), so a compiled Datalog plan can be
  /// checked for staleness the same way code-cache entries are.
  using FactSink = std::function<base::Status(const term::Ast& fact)>;
  base::Result<uint64_t> ScanAllFacts(ProcedureInfo* proc,
                                      const FactSink& sink);

  /// The pre-unification unit: executes the head section of stored
  /// *relative* code against the call pattern — necessary but not
  /// sufficient for unifiability (paper §4). Exposed for tests and the
  /// ablation bench.
  static base::Result<bool> PreUnify(std::string_view relative_code,
                                     const CallPattern& pattern);

  /// Attaches the write-ahead log: from here on every mutation is
  /// logged before it is applied. Call before any mutation (the engine
  /// wires it right after catalog restore/replay).
  void set_wal(storage::Wal* wal) { wal_ = wal; }

  /// The commit point of one acknowledging call (DESIGN.md §17.1): makes
  /// every record appended so far durable — one group-committed fsync
  /// however many records the call appended. The write methods (Declare,
  /// StoreFact, StoreRule*, DeleteFact) never commit themselves. OK and
  /// free without a WAL.
  base::Status Commit();

  /// Runs `body`, a sequence of write-method calls making up one
  /// acknowledging call, then Commit() — on `body`'s error path too, so a
  /// call that fails part-way leaves the prefix it applied durable, as a
  /// commit per record would. `body`'s own error wins over the commit's.
  template <typename Body>
  base::Status CommitAfter(Body&& body) {
    base::Status outcome = body();
    base::Status committed = Commit();
    return outcome.ok() ? committed : outcome;
  }

  /// Applies one WAL record during recovery (ARIES redo). Replay is
  /// idempotence-free by construction: the engine replays only records
  /// above the checkpoint image's LSN, and record effects (row inserts
  /// with explicit keys/payloads, deletes by rid, declares) reproduce
  /// the pre-crash relation state deterministically. Never logs.
  base::Status ApplyWalRecord(uint8_t type, std::string_view payload);

  /// Runs `fn` with every mutator excluded but readers unhindered: holds
  /// the catalog latch plus all procedure latches plus the clauses latch
  /// *shared*. The online-checkpoint window (DESIGN.md §17.2): Engine::
  /// Checkpoint serializes the catalog, flushes and saves the image
  /// inside this scope while reader sessions keep answering queries.
  /// `fn` must not mutate the store (it would self-deadlock).
  base::Status WithMutationsBlocked(const std::function<base::Status()>& fn);

  /// Reopen state for the procedures table (paper §4 structure 1) plus
  /// the directories of every BANG relation it points at: per procedure
  /// the name/arity/mode/hash/key attributes/version and its relation's
  /// BangFile state, then the shared clauses relation's state. Written at
  /// clean shutdown into the superblock's catalog segment. Requires a
  /// quiesced store: single-threaded callers, or inside
  /// WithMutationsBlocked (it takes no latches itself so the checkpoint
  /// scope can hold them all).
  std::string SerializeCatalog() const;

  /// Re-attaches every procedure to its pages inside the reloaded paged
  /// file. Replaces the current (fresh) catalog and clauses relation; the
  /// pages allocated for them by the constructor become unreferenced,
  /// which a purely additive page allocator tolerates. Corruption on
  /// malformed state.
  base::Status RestoreCatalog(std::string_view state);

  const ClauseStoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ClauseStoreStats{}; }

  /// Emits kClauseFetch / kFactFetch spans (detail = rows fetched) when
  /// the tracer is enabled. Nullable.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  ExternalDictionary* external_dictionary() { return external_; }
  CodeCodec* codec() { return codec_; }

  /// Drops the SymbolId -> procedure cache (required before dictionary
  /// garbage collection: cached ids may be swept).
  void InvalidateFunctorCache() {
    std::lock_guard<obs::TrackedSharedMutex> lock(functor_cache_mu_);
    by_functor_.clear();
  }

 private:
  /// Version bump + listener fan-out after a mutation of `proc`.
  /// Requires the procedure's latch held exclusively: the push
  /// invalidation must be ordered before any reader can latch in and
  /// fetch the new payloads. Takes listeners_mu_ for the fan-out.
  void NotifyMutation(ProcedureInfo* proc);

  base::Result<RuleFetch> FetchRulesDetailedLocked(ProcedureInfo* proc,
                                                   const CallPattern* pattern,
                                                   bool preunify);

  /// Declare body without the catalog latch or WAL logging (shared by
  /// the public Declare and WAL replay). Requires latch_ exclusive.
  base::Result<ProcedureInfo*> DeclareLocked(std::string_view name,
                                             uint32_t arity,
                                             ProcedureMode mode,
                                             std::vector<uint32_t> key_attrs);

  /// Rejects a declare that DeclareLocked would reject, resolving
  /// defaulted key attributes in place, WITHOUT applying or logging
  /// anything. Declare runs it before the kWalDeclare append so a
  /// refused declare never leaves a record that would poison replay
  /// (ApplyWalRecord tolerates AlreadyExists only). Requires latch_
  /// exclusive (reads the procedures map).
  base::Status ValidateDeclareLocked(std::string_view name, uint32_t arity,
                                     ProcedureMode mode,
                                     std::vector<uint32_t>* key_attrs) const;

  storage::BufferPool* pool_;
  ExternalDictionary* external_;
  CodeCodec* codec_;
  dict::Dictionary* dictionary_;

  /// Paper §4 structure 4: the clauses relation —
  /// keys [procedure_hash, clause_id], payload = relative code / source.
  std::unique_ptr<storage::BangFile> clauses_relation_;

  std::map<std::pair<std::string, uint32_t>, ProcedureInfo> procedures_;
  std::map<dict::SymbolId, ProcedureInfo*> by_functor_;
  std::map<uint64_t, ProcedureInfo*> by_hash_;
  std::map<uint64_t, MutationListener> mutation_listeners_;
  uint64_t next_listener_token_ = 1;
  /// Catalog latch: guards the procedures map and its index maps only
  /// (relations are under their procedure's latch). Declare and
  /// RestoreCatalog hold it exclusively; lookups and every relation
  /// operation hold it shared for the duration (pinning the catalog
  /// against a concurrent swap). First in the lock order.
  mutable obs::TrackedSharedMutex latch_{EDUCE_LOCK_SITE("clause_store.latch")};
  /// Guards clauses_relation_ (shared across procedures): rule stores
  /// hold it exclusively, rule fetches shared. After procedure latches
  /// in the lock order.
  mutable obs::TrackedSharedMutex clauses_mu_{
      EDUCE_LOCK_SITE("clause_store.clauses")};
  /// Guards mutation_listeners_ and the fan-out. Leaf: listeners must
  /// not call back into the store (documented at AddMutationListener's
  /// subscribers).
  mutable obs::TrackedMutex listeners_mu_{
      EDUCE_LOCK_SITE("clause_store.listeners")};
  /// Guards by_functor_ only: the SymbolId cache is written on the (read)
  /// lookup path, so it cannot live under the shared latch. A hit takes
  /// it shared; the miss insert and the clears take it exclusive.
  mutable obs::TrackedSharedMutex functor_cache_mu_{
      EDUCE_LOCK_SITE("clause_store.functor_cache")};
  storage::Wal* wal_ = nullptr;
  ClauseStoreStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace educe::edb

#endif  // EDUCE_EDB_CLAUSE_STORE_H_
