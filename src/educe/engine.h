#ifndef EDUCE_EDUCE_ENGINE_H_
#define EDUCE_EDUCE_ENGINE_H_

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "dict/dictionary.h"
#include "edb/clause_store.h"
#include "edb/code_codec.h"
#include "edb/external_dictionary.h"
#include "edb/loader.h"
#include "edb/resolver.h"
#include "educe/datalog.h"
#include "educe/memory_governor.h"
#include "obs/histogram.h"
#include "obs/lock_profiler.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "reader/parser.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "storage/wal.h"
#include "wam/machine.h"
#include "wam/program.h"

namespace educe {

/// Where externally stored *rules* live (DESIGN.md; paper §2/§3.1):
///   kCompiled — relative WAM code in the EDB (Educe*, the contribution);
///   kSource   — clause text in the EDB, parse+assert+erase per use (the
///               Educe baseline the paper improves on).
enum class RuleStorage { kCompiled, kSource };

struct EngineOptions {
  /// Defaults of the legacy sizing knobs, named so the engine can tell
  /// "left alone" from "deliberately set" when a governed budget takes
  /// over (see memory_budget_bytes).
  static constexpr uint32_t kDefaultBufferFrames = 256;
  static constexpr uint32_t kDefaultCodeCacheEntries = 256;
  static constexpr uint64_t kDefaultCodeCacheBytes = 8u << 20;

  /// Storage substrate.
  uint32_t page_size = 4096;
  uint32_t buffer_frames = kDefaultBufferFrames;
  /// Simulated per-page transfer latency (see storage::PagedFile).
  uint64_t io_latency_ns = 0;

  /// Path of the on-disk database image. Empty (the default) keeps the
  /// whole EDB in memory for the session, as before. Non-empty: an
  /// existing image at the path is attached at construction (superblock,
  /// external dictionary and procedure catalog); Close() writes everything
  /// back. A missing or rejected image simply starts a fresh database at
  /// the same path. Compiled code is decoded and linked per session from
  /// the stored relative code, as in the paper (§3.1).
  std::string db_path;
  /// Write-ahead logging (DESIGN.md §17). With a db_path set, every EDB
  /// mutation appends a redo record to `<db_path>.wal` before it lands,
  /// and opening the engine replays whatever the last image missed — a
  /// kill -9 after a committed assert loses nothing. Only meaningful with
  /// a db_path; off = the pre-WAL behaviour (durability only at
  /// Checkpoint()/Close()).
  bool wal = true;
  /// When to fsync the log: kCommit (default, every mutation durable when
  /// its store call returns, group-committed) or kNone (fsync only at
  /// checkpoints; loses the tail on power failure but still
  /// crash-consistent). kCommit fsyncs once per call, not once per fact,
  /// so a bulk load needs no kNone to be fast.
  storage::Wal::SyncPolicy wal_sync = storage::Wal::SyncPolicy::kCommit;

  /// Rule storage mode for StoreRulesExternal.
  RuleStorage rule_storage = RuleStorage::kCompiled;

  /// Inference-engine knobs (ablations; DESIGN.md §5).
  bool first_arg_indexing = true;        // Ablation C
  bool choice_point_elimination = true;  // Ablation B
  /// Link-time superinstruction fusion (DESIGN.md §14): dominant opcode
  /// digrams are rewritten into fused handlers at link time, in both the
  /// compiler/Program path and the EDB loader path. Off = plain opcodes
  /// only (the differential-test baseline).
  bool superinstructions = true;
  bool loader_cache = true;              // full-proc cache vs per-call load
  bool preunify = true;                  // Ablation E (per-call loads)
  /// Cache per-call (pattern-filtered) loads too, so recursive rules do
  /// not re-decode every level (DESIGN.md code-cache section).
  bool pattern_cache = true;
  /// Bottom-up Datalog evaluation (DESIGN.md §15): queries over
  /// Datalog-range procedures are answered by semi-naive delta iteration
  /// in rel::datalog's evaluator (with magic-set rewriting for bound call
  /// patterns) instead of top-down SLD, per the per-procedure strategy
  /// (DatalogManager; default auto = bottom-up iff eligible and
  /// recursive). Off by default: bottom-up answers carry set semantics
  /// and bypass the WAM, so decode/choice-point counters read
  /// differently — opt in per engine (the shell and the recursive
  /// workloads do).
  bool datalog = false;
  /// EDB code-cache capacity (all tiers share one LRU and budget).
  uint32_t code_cache_entries = kDefaultCodeCacheEntries;
  uint64_t code_cache_bytes = kDefaultCodeCacheBytes;

  /// One shared memory budget for buffer pool + code cache (DESIGN.md
  /// §12). 0 (the default) keeps the two static knobs above in charge,
  /// exactly as before. Non-zero enables the MemoryGovernor: the budget
  /// starts split evenly and is rebalanced toward whichever store's
  /// misses cost more per byte. Under a governed budget the legacy knobs
  /// change meaning: `buffer_frames` / `code_cache_bytes` become optional
  /// *hard caps* — honoured only when set away from their defaults — and
  /// `code_cache_entries` left at its default is lifted (the byte budget
  /// governs, not the entry count).
  uint64_t memory_budget_bytes = 0;
  /// Governor tuning (floors, hysteresis, rebalance interval); ignored
  /// while memory_budget_bytes is 0.
  GovernorOptions governor;

  /// Observability (DESIGN.md §11). With profiling on, every query's cost
  /// profile (decode/link/resolve/execute split, opcode-class counts,
  /// choice points created vs eliminated) is collected, trace spans are
  /// recorded through the whole stack, and per-procedure decode/link
  /// histograms accumulate. Off (the default) the only residual cost is
  /// one relaxed load / predictable branch per instrumented site.
  bool profiling = false;
  /// Non-zero: any query slower than this many nanoseconds dumps its
  /// profile as one JSON line to the metrics log (default stderr), even
  /// with profiling off. Zero disables the slow-query log.
  uint64_t slow_query_ns = 0;
  /// Lock-site wait/hold profiling (DESIGN.md §16). The underlying gate
  /// is process-wide (obs::LockProfiler — lock sites are static), so
  /// the engine only forwards *changes* to this option: constructing a
  /// second engine with the default does not switch off profiling a
  /// first engine enabled. Off, a tracked lock costs one relaxed load
  /// and a branch per acquisition.
  bool lock_profiling = false;

  wam::MachineOptions machine;
};

class Engine;
class Session;

/// One query's solutions, streamed. Obtained from Engine::Query or
/// Session::Query; at most one Solutions may be active per machine at a
/// time (each engine/session owns a single machine, per the paper's
/// one-process-per-session model). The owner *enforces* this: a second
/// Query while a Solutions is live returns FailedPrecondition instead of
/// resetting the machine under the live iterator. "Live" means still
/// enumerable: a Solutions whose Next returned false (exhausted) or an
/// error releases the machine immediately, so holding a finished one
/// does not block the next Query. Destroying a Solutions mid-enumeration
/// is also fine (the server's disconnect path) and frees the machine.
class Solutions {
 public:
  /// Retires the query if it has not retired yet (see Retire()).
  ~Solutions();

  /// Advances to the next solution; false when exhausted.
  base::Result<bool> Next();

  /// Binding of a named query variable, rendered as text ("[1,2]").
  /// Empty string if the name is unknown.
  std::string Binding(std::string_view name) const;

  /// Binding as an AST (nullptr if unknown).
  term::AstPtr BindingAst(std::string_view name) const;

  /// All named bindings of the current solution, rendered.
  std::map<std::string, std::string> All() const;

  /// This query's 64-bit correlation id (DESIGN.md §16.2): minted at
  /// Query() unless the caller supplied one. Every span the query
  /// records — across Next() pumps, down to lock waits — carries it.
  uint64_t trace_id() const { return trace_id_; }

 private:
  friend class Engine;
  Solutions(wam::Machine* machine, const dict::Dictionary* dictionary,
            reader::ReadTerm read)
      : machine_(machine), dictionary_(dictionary), read_(std::move(read)) {}

  /// Materialized mode (bottom-up Datalog, DESIGN.md §15): the solution
  /// set was computed up front; Next() walks the answer's rows, each
  /// aligned with read.var_names order. No machine is borrowed — machine_
  /// stays null and the owner's query_active flag still serializes
  /// queries.
  Solutions(const dict::Dictionary* dictionary, reader::ReadTerm read,
            DatalogManager::Answer answer)
      : machine_(nullptr),
        dictionary_(dictionary),
        read_(std::move(read)),
        cells_(std::move(answer.cells)),
        constants_(std::move(answer.constants)),
        width_(answer.width),
        row_count_(answer.count) {}

  /// The current row's binding of the var_names entry at `position`, or
  /// nullptr before the first or after the last row.
  term::AstPtr MaterializedCell(size_t position) const;

  /// Runs on_retire_ exactly once — at the first terminal Next
  /// (exhausted or error) or at destruction, whichever comes first —
  /// while the machine still holds this query's counters and profile.
  /// So a stale Solutions destroyed after the owner opened its next query
  /// neither clears the new query's flag nor counts its work.
  void Retire();

  wam::Machine* machine_;  // null in materialized (bottom-up) mode
  const dict::Dictionary* dictionary_;
  reader::ReadTerm read_;
  /// Set by Engine::OpenQuery right after construction; Next()
  /// re-installs it as the thread's current trace id for each pump.
  uint64_t trace_id_ = 0;
  /// Materialized mode only: precomputed solutions, row-major with
  /// width_ cells a row, each cell the id of its constant in constants_
  /// (decoded on first read); and the cursor (index one past the current
  /// row; 0 = before the first Next()).
  std::vector<uint32_t> cells_;
  AnswerConstants constants_;
  uint32_t width_ = 0;
  uint64_t row_count_ = 0;
  uint64_t row_cursor_ = 0;
  uint64_t solutions_seen_ = 0;
  bool retired_ = false;
  /// Installed by Engine::OpenQuery; called with the solution count. It
  /// clears the owner's one-Solutions-per-machine flag, then finalizes
  /// the query's observation.
  std::function<void(uint64_t)> on_retire_;
};

/// A session over a shared Engine (DESIGN.md §10): its own WAM machine
/// and Program *overlay*, borrowing the engine's read-mostly substrate —
/// symbol dictionary, external dictionary, clause store, buffer pool, and
/// the loader with its shared code cache. Engine::Query runs on the
/// engine's own session; worker sessions come from Engine::OpenSession(),
/// and run queries on distinct threads (one thread per session at a time).
///
/// Sessions see the shared EDB live: concurrent edb_assert /
/// StoreFactsExternal mutations become visible under the store's latch,
/// with cache invalidation pushed before the mutation unlatches. A
/// session's main-memory writes ($query scaffolding, assert, the
/// source-rule cycle) land in its private overlay; only the engine's own
/// session's reach the shared base, through a fold while no worker
/// session is open. Every query reports to the engine as it retires.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens a query on this session's machine. FailedPrecondition while a
  /// previous Solutions from this session is still live — not yet
  /// exhausted, failed, or destroyed (at most one per machine).
  /// `trace_id` correlates this query's spans (0 = mint a fresh id; the
  /// server passes a client-supplied id through here).
  base::Result<std::unique_ptr<Solutions>> Query(std::string_view goal,
                                                 uint64_t trace_id = 0);

  /// Whether a Solutions from this session is still live.
  bool query_active() const { return query_active_; }

  /// Convenience: run `goal`, return whether it has at least one solution.
  base::Result<bool> Succeeds(std::string_view goal);

  /// Convenience: count all solutions.
  base::Result<uint64_t> CountSolutions(std::string_view goal);

  wam::Machine* machine() { return machine_.get(); }
  wam::Program* program() { return &overlay_; }
  edb::EdbResolver* resolver() { return &resolver_; }

 private:
  friend class Engine;
  /// Only `worker` sessions count in Engine::active_sessions().
  Session(Engine* engine, uint64_t serial, bool worker);

  Engine* engine_;
  bool worker_;
  wam::Program overlay_;
  edb::EdbResolver resolver_;
  std::unique_ptr<wam::Machine> machine_;
  /// True while a Solutions from this session is alive; cleared by its
  /// retirement finalizer. A session is single-threaded by contract, so
  /// a plain bool suffices (cross-thread handoff of a session must be
  /// externally synchronized, as the server's pool is).
  bool query_active_ = false;
};

/// Per-goal result of Engine::SolveParallel.
struct SolveOutcome {
  uint64_t count = 0;  // number of solutions
  /// Rendered bindings, one string per solution ("X=1 Y=a"), when
  /// collect_bindings was requested; empty otherwise.
  std::vector<std::string> rows;
};

/// The unified memory report (ROADMAP "memory budget split"): the big
/// in-memory consumers — buffer pool, code cache and the Datalog EDB
/// cache — side by side, plus the size of the backing paged file.
struct EngineMemoryReport {
  uint64_t buffer_resident_bytes = 0;
  uint64_t buffer_capacity_bytes = 0;
  uint64_t code_cache_resident_bytes = 0;
  uint64_t code_cache_capacity_bytes = 0;
  uint64_t paged_file_bytes = 0;  // page_count * page_size
  /// Code-cache 16-shard occupancy skew (max/min resident bytes per
  /// shard): a handful of hot procedures can pile into one shard while
  /// the global gauge looks healthy.
  uint64_t code_cache_shard_max_bytes = 0;
  uint64_t code_cache_shard_min_bytes = 0;
  /// Bytes currently in the write-ahead log (0 without one); the space a
  /// checkpoint would reclaim.
  uint64_t wal_file_bytes = 0;
  /// Bytes of EDB rows the bottom-up evaluator keeps between queries
  /// (DatalogManager's EDB cache); heap, not part of either file.
  uint64_t datalog_edb_cache_bytes = 0;
};

/// Aggregated counters across all Engine subsystems.
struct EngineStats {
  wam::MachineStats machine;
  wam::ProgramStats program;
  storage::PagedFileStats paged_file;
  storage::BufferPoolStats buffer_pool;
  edb::ClauseStoreStats clause_store;
  edb::LoaderStats loader;
  edb::CodeCacheStats code_cache;
  edb::ResolverStats resolver;
  wam::CompilerStats compiler;
  DatalogStats datalog;
  storage::WalStats wal;
  /// WAL watermarks (0 without a WAL): every record <= wal_durable_lsn is
  /// on disk; wal_records_replayed counts recovery work done at open.
  uint64_t wal_last_lsn = 0;
  uint64_t wal_durable_lsn = 0;
  uint64_t wal_records_replayed = 0;
  EngineMemoryReport memory;
};

/// The Educe* engine: a WAM-based Prolog system whose predicates can live
/// in main memory or in an external relational store (facts as BANG
/// relations, rules as compiled relative code or as source text).
///
/// Typical use:
///   Engine engine(options);
///   engine.Consult("rules for main memory ...");
///   engine.DeclareRelation("location2", 2);
///   engine.StoreFactsExternal("location2(a, b). ...");
///   engine.StoreRulesExternal("reach(X,Y) :- ...");
///   auto q = engine.Query("reach(a, X)");
///   while (*q->Next()) { q->Binding("X"); }
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// With a db_path set, the destructor performs a best-effort Close().
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// --- main-memory predicates -------------------------------------------

  /// Compiles `source` clauses into main memory. `:- Goal.` directives
  /// execute immediately.
  base::Status Consult(std::string_view source);

  /// Consults a Prolog source file from disk.
  base::Status ConsultFile(const std::string& path);

  /// --- external database --------------------------------------------------

  /// Declares an external fact relation name/arity. `key_attrs` picks the
  /// argument positions the BANG file clusters on (empty = first four) —
  /// the knob a DBA would turn to match the query mix.
  base::Status DeclareRelation(std::string_view name, uint32_t arity,
                               std::vector<uint32_t> key_attrs = {});

  /// Stores ground facts into their (pre-declared or auto-declared)
  /// relations. With a WAL, the whole call is one commit (one fsync
  /// under kCommit) before it returns, on its error path too
  /// (DESIGN.md §17.1).
  base::Status StoreFactsExternal(std::string_view source);

  /// Stores rule clauses externally per options().rule_storage. All
  /// clauses of one predicate must be stored in one mode. One commit
  /// per call, like StoreFactsExternal.
  base::Status StoreRulesExternal(std::string_view source);

  /// --- queries -------------------------------------------------------------

  /// Opens a query on the engine's own session, whose machine the returned
  /// object borrows; worker sessions may be open. FailedPrecondition while
  /// a previous Solutions is still live — not yet exhausted, failed, or
  /// destroyed (at most one Solutions per machine).
  /// `trace_id` correlates this query's spans (0 = mint a fresh id).
  base::Result<std::unique_ptr<Solutions>> Query(std::string_view goal,
                                                 uint64_t trace_id = 0);

  /// Whether a Solutions from Engine::Query is still live.
  bool query_active() const { return session_->query_active(); }

  /// Convenience: run `goal`, return whether it has at least one solution.
  base::Result<bool> Succeeds(std::string_view goal);

  /// Convenience: first solution's named bindings (NotFound if none).
  base::Result<std::map<std::string, std::string>> First(
      std::string_view goal);

  /// Convenience: count all solutions.
  base::Result<uint64_t> CountSolutions(std::string_view goal);

  /// --- worker sessions -----------------------------------------------------

  /// Opens a worker session sharing this engine's EDB substrate. The
  /// first open folds the engine's own session into the main-memory
  /// program and freezes it (pre-links every procedure); while any worker
  /// session is live, Consult / CollectDictionary / Close are refused
  /// with FailedPrecondition.
  base::Result<std::unique_ptr<Session>> OpenSession();

  /// Number of currently open worker sessions.
  uint32_t active_sessions() const;

  /// Runs `goals` across `n_workers` worker sessions pulling from one
  /// shared work queue (the calling thread is worker 0). Returns one
  /// outcome per goal, order-aligned with the input. With
  /// `collect_bindings`, every solution's named bindings are rendered
  /// into SolveOutcome::rows for solution-set comparison. The first
  /// error aborts remaining goals and is returned.
  base::Result<std::vector<SolveOutcome>> SolveParallel(
      const std::vector<std::string>& goals, uint32_t n_workers,
      bool collect_bindings = false);

  /// --- persistence ---------------------------------------------------------

  /// Clean shutdown: with a db_path set, writes the external dictionary,
  /// the procedure catalog and the superblock, flushes the pool, and saves
  /// the paged file to disk. Idempotent; a no-op without a db_path. After Close()
  /// the engine remains usable but further mutations are not persisted
  /// until the next Close(). If recovery failed at open (catalog restore,
  /// log open or replay), returns that error and writes nothing: saving
  /// the partial state would make the loss permanent.
  base::Status Close();

  /// Mid-session checkpoint: writes the same image Close() writes without
  /// ending the persistence session — mutations after it are covered by
  /// the WAL until the next Checkpoint()/Close(). Online: worker sessions keep running queries
  /// throughout — the store's latches are all taken *shared*
  /// (WithMutationsBlocked), so only mutators stall for the image write.
  /// FailedPrecondition without a db_path; refused like Close() after a
  /// failed recovery.
  base::Status Checkpoint();

  /// Whether this session attached to an existing on-disk image.
  bool attached() const { return boot_.attached; }

  /// Non-OK when something persisted was present but rejected (corrupt
  /// image, stale superblock): the session started cold and serves as
  /// usual — or when recovery failed (catalog restore, log open or
  /// replay). A failed recovery freezes the on-disk files (see Close())
  /// and makes Query, OpenSession and the EDB writers (DeclareRelation,
  /// StoreFactsExternal, StoreRulesExternal) return that same status, so
  /// nothing is served from, or appended behind, a store this session
  /// could not rebuild.
  const base::Status& open_status() const { return boot_.status; }

  /// --- buffer / stats ------------------------------------------------------

  /// Drops the buffer cache (models a cold first run, paper §5.1). With
  /// `drop_code_cache`, also clears all three code-cache tiers — the
  /// fully-cold configuration (shell `:cold`, cold-run benches).
  base::Status ResetBufferCache(bool drop_code_cache = false);

  /// Drops the buffer cache only (back-compat alias).
  base::Status InvalidateBuffers();

  /// Dictionary garbage collection (paper §3.3): removes every atom and
  /// functor not referenced by the predicate store, the builtins, the
  /// loader's code cache or the core syntax symbols, tombstoning their
  /// slots for reuse. Surviving identifiers are never relocated, so all
  /// compiled code stays valid. Must run between queries: refused while
  /// an Engine::Query Solutions or a worker session is live. Returns the
  /// number of entries removed.
  base::Result<uint64_t> CollectDictionary();

  /// The machine and resolver counters sum retired queries' deltas, every
  /// session's alike; a live query has not published yet.
  EngineStats Stats();
  void ResetStats();

  /// --- observability (DESIGN.md §11) --------------------------------------

  /// Toggles profiling at runtime (shell `:profile on|off`): enables the
  /// tracer, the emulator's opcode-class gate, and per-query profile
  /// collection for this engine and every subsequently opened session.
  void SetProfiling(bool on);
  bool profiling() const { return options_.profiling; }

  obs::Tracer* tracer() { return &tracer_; }

  /// Snapshot of the engine-wide query-latency histogram (nanoseconds).
  /// Always recorded, profiling on or off; every query, the engine's or a
  /// session's, lands here when it retires.
  obs::Histogram QueryLatencyHistogram() const;

  /// The most recent per-query profiles (oldest first, bounded ring).
  /// Populated only while profiling is on or slow_query_ns is set.
  std::vector<obs::QueryProfile> RecentProfiles() const;

  /// Drains the buffered trace spans as a JSON array (shell `:spans`).
  std::string DrainSpansJson() { return tracer_.DrainJson(); }

  /// Drains the buffered trace spans as a Chrome trace_event document
  /// (server GET /trace; loadable in Perfetto — DESIGN.md §16.3).
  std::string DrainSpansChromeTrace() { return tracer_.DrainChromeTrace(); }

  /// One JSON document with everything a dashboard needs: query-latency
  /// percentiles, lifetime totals (decode/link/resolve split, choice
  /// points created vs eliminated), opcode-class totals, per-procedure
  /// decode/link cost histograms, the memory report, and the recent
  /// query profiles.
  std::string ExportMetricsJson();

  /// Destination of the slow-query log (default std::cerr). Not
  /// thread-safe against in-flight slow queries; set it before running.
  void set_metrics_log(std::ostream* log) { metrics_log_ = log; }

  EngineOptions& options() { return options_; }
  dict::Dictionary* dictionary() { return &dictionary_; }
  wam::Program* program() { return &program_; }
  /// The engine's own session's machine (the one Engine::Query runs on).
  wam::Machine* machine() { return session_->machine(); }
  storage::PagedFile* paged_file() { return &file_; }
  storage::BufferPool* buffer_pool() { return &pool_; }
  /// The write-ahead log; nullptr without one (no db_path, options.wal
  /// off, or the log failed to open — see open_status()).
  storage::Wal* wal() { return wal_.get(); }
  edb::ClauseStore* clause_store() { return &clause_store_; }
  edb::Loader* loader() { return &loader_; }
  /// The bottom-up Datalog subsystem (strategy control, plan cache).
  /// Always constructed; queries route through it only while
  /// options().datalog is on.
  DatalogManager* datalog_manager() { return datalog_.get(); }
  /// The adaptive memory governor; nullptr unless
  /// options.memory_budget_bytes was non-zero at construction.
  MemoryGovernor* governor() { return governor_.get(); }

  /// Applies current ablation options to the subsystems (call after
  /// mutating options()).
  void SyncOptions();

 private:
  friend class Session;

  /// Refuses (FailedPrecondition) while worker sessions are open; the
  /// guard for every operation that would mutate state sessions share.
  base::Status RefuseIfSessionsActive(const char* what) const;

  /// Result of trying to load an on-disk image into the paged file.
  /// Must complete before the BufferPool is constructed: frame buffers
  /// are sized from the file's (possibly image-adopted) page size.
  struct AttachState {
    bool attached = false;  // an image was loaded
    base::Status status;    // non-OK: image present but rejected
  };

  /// Superblock + boot segments parsed from an attached image.
  struct BootState {
    bool attached = false;  // superblock and boot segments parsed
    base::Status status;    // first thing that went wrong, if any
    std::string external_state;
    std::string catalog_state;
    /// Highest WAL LSN the image absorbed (superblock field); recovery
    /// replays only records above it. 0 on a fresh database, so a crash
    /// before the first checkpoint replays the whole log.
    uint64_t wal_lsn = 0;
    /// Records redone at open (recovery happened iff non-zero).
    uint64_t wal_replayed = 0;
    /// Non-OK when catalog restore, log open or log replay failed. The
    /// image and log then hold state this session could not rebuild, so
    /// Close() and Checkpoint() refuse with this status and leave both
    /// files as found (a rejected image, by contrast, is a cold start).
    base::Status recovery;
  };

  static AttachState AttachImage(storage::PagedFile* file,
                                 const EngineOptions& options);
  static BootState ReadBoot(storage::BufferPool* pool, AttachState attach,
                            const EngineOptions& options);
  static edb::ExternalDictionary MakeExternalDictionary(
      storage::BufferPool* pool, BootState* boot);

  /// Installs the EDB-aware builtins (edb_assert/1, edb_retract/1,
  /// edb_scan/2) that let programs mix goal-oriented (set-at-a-time) and
  /// term-oriented evaluation, per paper §4.
  void RegisterEdbBuiltins();

  /// Moves the engine's own session's writes into the base program; runs
  /// right before every base mutation or freeze (no worker session open).
  void FoldEngineSession() { session_->overlay_.FoldIntoBase(); }

  /// The one query path, behind Engine::Query (so Consult's directives
  /// too) and Session::Query: opens `goal` bottom-up or on the owner's
  /// machine and arms its observation.
  base::Result<std::unique_ptr<Solutions>> OpenQuery(Session* owner,
                                                     std::string_view goal,
                                                     uint64_t trace_id);

  /// Snapshots the owner's counters and returns the retirement finalizer
  /// of the query about to open: it frees the owner, records the latency
  /// since `watch` started, adds the owner's machine and resolver deltas
  /// to the engine's totals, and, when profiling or the slow-query log
  /// demand it, files a QueryProfile built from the same deltas plus
  /// engine-wide loader, cache and I/O diffs.
  std::function<void(uint64_t)> ObserveQuery(std::string_view goal,
                                             Session* owner,
                                             const base::Stopwatch& watch);

  /// Files a finished profile under obs_mu_ and appends to the slow-query
  /// log if the query crossed options_.slow_query_ns. `digrams` (the
  /// query's executed opcode-pair histogram; nullable) is folded into the
  /// engine-wide totals rather than stored per query — 32KB per profile
  /// would swamp the recent-profiles ring.
  void FileQueryProfile(obs::QueryProfile profile,
                        const obs::EmulatorProfile::DigramArray* digrams);

  /// The shared body of Close() and Checkpoint(): serializes the
  /// external dictionary and catalog, writes the superblock, flushes the
  /// pool and saves the image. Callers hold the no-active-sessions guard.
  base::Status WriteImage();

  EngineOptions options_;
  dict::Dictionary dictionary_;
  wam::Program program_;
  storage::PagedFile file_;
  AttachState attach_;  // ordered: after file_, before pool_
  storage::BufferPool pool_;
  BootState boot_;
  edb::ExternalDictionary external_dictionary_;
  edb::CodeCodec codec_;
  /// Declared before clause_store_ (which holds a raw pointer to it) and
  /// after pool_ (whose writebacks SyncTo into it); opened in the
  /// constructor body once recovery state is known.
  std::unique_ptr<storage::Wal> wal_;
  edb::ClauseStore clause_store_;
  edb::Loader loader_;
  /// Declared after clause_store_: destroyed first, so its mutation
  /// listener is removed while the store is still alive.
  std::unique_ptr<DatalogManager> datalog_;
  /// The engine's own session: Engine::Query and Consult's directives run
  /// on it.
  std::unique_ptr<Session> session_;
  /// Non-null iff options_.memory_budget_bytes > 0; constructed after the
  /// subsystems it steers, before the first query can retire.
  std::unique_ptr<MemoryGovernor> governor_;
  bool closed_ = false;
  /// Last lock_profiling value forwarded to the process-wide gate;
  /// SyncOptions only acts on changes (see the comment there).
  bool lock_profiling_synced_ = false;

  /// Worker-session registry: count + serial issue.
  mutable obs::TrackedMutex sessions_mu_{EDUCE_LOCK_SITE("engine.sessions")};
  uint32_t active_sessions_ = 0;
  uint64_t session_serial_ = 0;

  /// Observability state (DESIGN.md §11). The tracer is wired into every
  /// subsystem at construction and gated by its own enabled flag. Every
  /// query records its latency into query_latency_ lock-free; obs_mu_
  /// guards the aggregates below it (leaf lock, never held while calling
  /// into other subsystems).
  obs::Tracer tracer_;
  std::ostream* metrics_log_ = nullptr;  // nullptr -> std::cerr
  obs::AtomicHistogram query_latency_;
  mutable obs::TrackedMutex obs_mu_{EDUCE_LOCK_SITE("engine.obs")};
  /// Counter deltas of retired queries: Stats()'s machine and resolver.
  wam::MachineStats machine_totals_;
  edb::ResolverStats resolver_totals_;
  std::deque<obs::QueryProfile> recent_profiles_;  // bounded ring
  std::array<uint64_t, obs::kOpClassCount> op_class_totals_{};
  /// Engine-wide executed-digram totals (raw opcode bytes; mapped to
  /// mnemonics at export). Heap-allocated: 32KB of cold profiling state.
  std::unique_ptr<obs::EmulatorProfile::DigramArray> digram_totals_;
  uint64_t profiles_collected_ = 0;
};

}  // namespace educe

#endif  // EDUCE_EDUCE_ENGINE_H_
