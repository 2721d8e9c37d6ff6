#include "educe/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "base/stopwatch.h"

#include "base/hash.h"
#include "reader/writer.h"
#include "storage/segment.h"
#include "wam/builtins.h"
#include "wam/compiler.h"

namespace educe {

namespace {

// "EDUCESB1" little-endian: the superblock magic on page 0 of a database
// image. Layout (52 bytes): magic u64, version u32, page_size u32,
// epoch u64, external_root u32, catalog_root u32, reserved u32,
// wal_lsn u64 (highest WAL LSN absorbed by this image; v2),
// checksum u64 (FNV-1a over the preceding 44 bytes).
//
// The reserved slot at offset 32 once held the root of a cached-code
// segment. WriteImage stores kInvalidPage there and ReadBoot ignores it,
// so an older image that still names such a segment opens unchanged; its
// pages are dead, like every superseded segment.
//
// Version 1 (pre-WAL) images lacked the wal_lsn field: 44 bytes total,
// checksum over the preceding 36. ReadBoot still accepts them with
// wal_lsn defaulted to 0 — such an image predates the log, so the whole
// (necessarily fresh) WAL replays — and the next checkpoint rewrites
// the superblock as v2.
constexpr uint64_t kSuperMagic = 0x3142534543554445ull;
constexpr uint32_t kSuperVersion = 2;
constexpr uint32_t kSuperVersionV1 = 1;
constexpr size_t kSuperWalLsnOffset = 36;
constexpr size_t kSuperChecksumOffset = 44;
constexpr size_t kSuperV1ChecksumOffset = 36;
constexpr size_t kSuperSize = 52;

std::string WalPathFor(const EngineOptions& options) {
  return options.db_path + ".wal";
}

storage::PagedFile::Options FileOptions(const EngineOptions& options) {
  storage::PagedFile::Options out;
  out.page_size = options.page_size;
  out.simulated_latency_ns = options.io_latency_ns;
  return out;
}

// Bound on Engine::RecentProfiles: enough for a shell session's worth of
// queries without growing without bound under profiling-on bench loops.
constexpr size_t kMaxRecentProfiles = 64;

/// Governor options as actually used: the legacy sizing knobs become
/// optional hard caps under a governed budget, but only when they were
/// set away from their defaults — an untouched default is "no opinion",
/// not an 8 MiB cap that would pin the split.
GovernorOptions GovernorOptionsFor(const EngineOptions& options,
                                   uint32_t page_size) {
  GovernorOptions gov = options.governor;
  if (gov.pool_cap_bytes == 0 &&
      options.buffer_frames != EngineOptions::kDefaultBufferFrames) {
    gov.pool_cap_bytes =
        static_cast<uint64_t>(options.buffer_frames) * page_size;
  }
  if (gov.cache_cap_bytes == 0 &&
      options.code_cache_bytes != EngineOptions::kDefaultCodeCacheBytes) {
    gov.cache_cap_bytes = options.code_cache_bytes;
  }
  return gov;
}

/// Under a governed budget an untouched code_cache_entries is lifted out
/// of the way: the byte budget governs residency, and a 256-entry ceiling
/// would silently dominate it.
size_t GovernedEntryCap(const EngineOptions& options) {
  return options.code_cache_entries == EngineOptions::kDefaultCodeCacheEntries
             ? (size_t{1} << 20)
             : options.code_cache_entries;
}

/// Frame count the pool is constructed with. Governed: the budget's even
/// initial split (the governor itself is constructed later, so this is
/// the same static InitialSplit it assumes). `page_size` comes from the
/// paged file, which may have adopted an attached image's page size.
uint32_t InitialFrames(const EngineOptions& options, uint32_t page_size) {
  if (options.memory_budget_bytes == 0) return options.buffer_frames;
  const MemoryGovernor::Split split = MemoryGovernor::InitialSplit(
      options.memory_budget_bytes, GovernorOptionsFor(options, page_size),
      page_size);
  return static_cast<uint32_t>(split.pool_bytes / page_size);
}

}  // namespace

Engine::AttachState Engine::AttachImage(storage::PagedFile* file,
                                        const EngineOptions& options) {
  AttachState out;
  if (options.db_path.empty()) return out;
  // Distinguish "no image yet" (a fresh database, the normal first run)
  // from "image present but rejected" (recorded, session starts fresh).
  std::ifstream probe(options.db_path, std::ios::binary);
  if (!probe) return out;
  probe.close();
  base::Status loaded = file->LoadImage(options.db_path);
  if (loaded.ok()) {
    out.attached = true;
  } else {
    out.status = loaded;
  }
  return out;
}

Engine::BootState Engine::ReadBoot(storage::BufferPool* pool,
                                   AttachState attach,
                                   const EngineOptions& options) {
  BootState boot;
  boot.status = attach.status;
  if (options.db_path.empty()) return boot;
  if (!attach.attached) {
    // Fresh database: reserve page 0 for the superblock before any other
    // structure allocates a page.
    if (pool->file()->page_count() == 0) {
      auto page = pool->New();
      if (page.ok()) page.value().MarkDirty();
    }
    return boot;
  }
  auto reject = [&](base::Status why) {
    boot.attached = false;
    if (boot.status.ok()) boot.status = std::move(why);
    return boot;
  };
  auto page = pool->Fetch(0);
  if (!page.ok()) return reject(page.status());
  if (pool->page_size() < kSuperSize) {
    return reject(base::Status::Corruption("page too small for superblock"));
  }
  const char* d = page.value().data();
  uint64_t magic, epoch, wal_lsn, checksum;
  uint32_t version, page_size, external_root, catalog_root;
  std::memcpy(&magic, d, 8);
  std::memcpy(&version, d + 8, 4);
  std::memcpy(&page_size, d + 12, 4);
  std::memcpy(&epoch, d + 16, 8);
  std::memcpy(&external_root, d + 24, 4);
  std::memcpy(&catalog_root, d + 28, 4);
  if (magic != kSuperMagic ||
      (version != kSuperVersion && version != kSuperVersionV1)) {
    return reject(base::Status::Corruption("bad superblock"));
  }
  // v1 carries no wal_lsn and its checksum sits where v2 put the
  // watermark; default the watermark to 0 so the whole log (necessarily
  // empty for a pre-WAL image) replays.
  const size_t checksum_offset = version == kSuperVersionV1
                                     ? kSuperV1ChecksumOffset
                                     : kSuperChecksumOffset;
  wal_lsn = 0;
  if (version == kSuperVersion) {
    std::memcpy(&wal_lsn, d + kSuperWalLsnOffset, 8);
  }
  std::memcpy(&checksum, d + checksum_offset, 8);
  if (page_size != pool->page_size() ||
      checksum != base::Fnv1a64(std::string_view(d, checksum_offset))) {
    return reject(base::Status::Corruption("bad superblock"));
  }
  page.value().Release();

  auto external = storage::ReadSegment(pool, external_root);
  if (!external.ok()) return reject(external.status());
  auto catalog = storage::ReadSegment(pool, catalog_root);
  if (!catalog.ok()) return reject(catalog.status());
  boot.external_state = std::move(external.value());
  boot.catalog_state = std::move(catalog.value());
  boot.wal_lsn = wal_lsn;
  boot.attached = true;
  return boot;
}

edb::ExternalDictionary Engine::MakeExternalDictionary(
    storage::BufferPool* pool, BootState* boot) {
  if (boot->attached) {
    auto opened = edb::ExternalDictionary::Open(pool, boot->external_state);
    if (opened.ok()) return std::move(opened).value();
    boot->attached = false;
    if (boot->status.ok()) boot->status = opened.status();
  }
  // Fresh creation cannot fail (one page allocation).
  return std::move(edb::ExternalDictionary::Create(pool)).value();
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      program_(&dictionary_),
      file_(FileOptions(options_)),
      attach_(AttachImage(&file_, options_)),
      pool_(&file_, InitialFrames(options_, file_.page_size())),
      boot_(ReadBoot(&pool_, attach_, options_)),
      external_dictionary_(MakeExternalDictionary(&pool_, &boot_)),
      codec_(&dictionary_, &external_dictionary_, program_.builtins()),
      clause_store_(&pool_, &external_dictionary_, &codec_, &dictionary_),
      loader_(&clause_store_, &codec_) {
  base::Status st = wam::InstallStandardLibrary(&program_);
  (void)st;  // cannot fail on a fresh program; surfaced via first query
  RegisterEdbBuiltins();
  datalog_ = std::make_unique<DatalogManager>(&dictionary_, &clause_store_,
                                              &program_, &tracer_);
  // The engine's own session takes the first serial, so its $aux range
  // (serial << 32) is disjoint from the base program's, which starts at 0.
  session_.reset(new Session(this, ++session_serial_, /*worker=*/false));
  // One tracer for the whole stack: spans from the loader, resolver,
  // clause store, buffer pool and emulator interleave on a shared
  // timeline (DESIGN.md §11).
  loader_.set_tracer(&tracer_);
  clause_store_.set_tracer(&tracer_);
  pool_.set_tracer(&tracer_);
  // Contended lock waits (>= ~1us) become spans on the same timeline.
  // First engine wins the process-wide slot; DetachTracer in the dtor is
  // a no-op for any later engine that lost the race.
  obs::LockProfiler::AttachTracer(&tracer_);
  if (options_.memory_budget_bytes > 0) {
    // Before SyncOptions: the governor's constructor applies the initial
    // cache byte split, which SyncOptions preserves once governor_ is set.
    governor_ = std::make_unique<MemoryGovernor>(
        options_.memory_budget_bytes,
        GovernorOptionsFor(options_, file_.page_size()), &pool_, &file_,
        &loader_, GovernedEntryCap(options_), &tracer_);
  }
  SyncOptions();

  if (boot_.attached) {
    base::Status restored = clause_store_.RestoreCatalog(boot_.catalog_state);
    if (!restored.ok()) {
      boot_.attached = false;
      boot_.recovery = restored;
      if (boot_.status.ok()) boot_.status = restored;
    }
  }

  // Recovery (DESIGN.md §17.2), after the catalog is in place: open the
  // log and redo everything the image missed. On a fresh database
  // boot_.wal_lsn is 0 and the whole log replays — that is precisely the
  // crash-before-first-checkpoint case. Replay happens *before* set_wal
  // wires the store in, so redone mutations are not re-logged.
  if (!options_.db_path.empty() && options_.wal) {
    storage::Wal::Options wal_options;
    wal_options.sync = options_.wal_sync;
    auto opened = storage::Wal::Open(WalPathFor(options_), wal_options);
    if (!opened.ok()) {
      // The log may hold acknowledged writes this session cannot see:
      // refuse work until it opens (open_status()).
      if (boot_.recovery.ok()) boot_.recovery = opened.status();
      if (boot_.status.ok()) boot_.status = opened.status();
    } else {
      wal_ = std::move(opened).value();
      auto replayed = wal_->Replay(
          boot_.wal_lsn,
          [this](uint64_t, uint8_t type, std::string_view payload) {
            return clause_store_.ApplyWalRecord(type, payload);
          });
      if (!replayed.ok()) {
        if (boot_.recovery.ok()) boot_.recovery = replayed.status();
        if (boot_.status.ok()) boot_.status = replayed.status();
      } else {
        boot_.wal_replayed = replayed.value().records;
      }
      // An image restored without its log (copied aside, log deleted)
      // carries a watermark above the fresh log's tail; new records must
      // outrank it or the next recovery would skip them.
      wal_->AdvanceTo(boot_.wal_lsn);
      clause_store_.set_wal(wal_.get());
      external_dictionary_.set_wal(wal_.get());
      pool_.set_wal(wal_.get());
    }
  }
}

Engine::~Engine() {
  obs::LockProfiler::DetachTracer(&tracer_);
  if (!options_.db_path.empty() && !closed_) (void)Close();
}

base::Status Engine::RefuseIfSessionsActive(const char* what) const {
  std::lock_guard<obs::TrackedMutex> lock(sessions_mu_);
  if (active_sessions_ > 0) {
    return base::Status::FailedPrecondition(
        std::string(what) + " refused: " + std::to_string(active_sessions_) +
        " worker session(s) active");
  }
  return base::Status::OK();
}

base::Status Engine::Close() {
  if (options_.db_path.empty()) return base::Status::OK();
  // A live session may be mid-query over the pool and clause store;
  // flushing and saving under it would snapshot a torn image.
  EDUCE_RETURN_IF_ERROR(RefuseIfSessionsActive("Close"));
  closed_ = true;
  return WriteImage();
}

base::Status Engine::Checkpoint() {
  if (options_.db_path.empty()) {
    return base::Status::FailedPrecondition(
        "Checkpoint needs a db_path (no persistence session)");
  }
  // No session guard: the checkpoint is online. WriteImage blocks
  // mutators only (every store latch taken shared), so live reader
  // sessions keep answering queries against the frozen state.
  return WriteImage();
}

base::Status Engine::WriteImage() {
  // After a failed recovery the image and log hold state this session
  // never rebuilt: saving its partial store and resetting the log would
  // make the loss permanent. Leave both files as found.
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  // Shorten the stalled-mutator window: most of the log is usually
  // already durable, so sync it before freezing the store.
  if (wal_ != nullptr) EDUCE_RETURN_IF_ERROR(wal_->SyncAll());
  auto body = [&]() -> base::Status {
    EDUCE_ASSIGN_OR_RETURN(
        storage::PageId external_root,
        storage::WriteSegment(&pool_, external_dictionary_.SerializeState()));
    EDUCE_ASSIGN_OR_RETURN(
        storage::PageId catalog_root,
        storage::WriteSegment(&pool_, clause_store_.SerializeCatalog()));

    // Superblock last, so it only ever points at fully written segments.
    // Its wal_lsn is the log's tail — stable here, mutators are blocked —
    // making every record in the log "absorbed" by this image.
    EDUCE_ASSIGN_OR_RETURN(storage::PageHandle page, pool_.Fetch(0));
    char* d = page.data();
    std::memset(d, 0, kSuperSize);
    std::memcpy(d, &kSuperMagic, 8);
    std::memcpy(d + 8, &kSuperVersion, 4);
    const uint32_t page_size = pool_.page_size();
    std::memcpy(d + 12, &page_size, 4);
    const uint64_t epoch = external_dictionary_.epoch();
    std::memcpy(d + 16, &epoch, 8);
    std::memcpy(d + 24, &external_root, 4);
    std::memcpy(d + 28, &catalog_root, 4);
    const storage::PageId reserved = storage::kInvalidPage;
    std::memcpy(d + 32, &reserved, 4);
    const uint64_t wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
    std::memcpy(d + kSuperWalLsnOffset, &wal_lsn, 8);
    const uint64_t checksum =
        base::Fnv1a64(std::string_view(d, kSuperChecksumOffset));
    std::memcpy(d + kSuperChecksumOffset, &checksum, 8);
    page.MarkDirty();
    page.Release();

    EDUCE_RETURN_IF_ERROR(pool_.FlushAll());
    EDUCE_RETURN_IF_ERROR(file_.SaveImage(options_.db_path));
    // The rename above is the commit point; only then may the absorbed
    // records be dropped. Still inside the blocked scope: a mutation
    // sneaking in between SaveImage and Reset would be truncated away.
    if (wal_ != nullptr) EDUCE_RETURN_IF_ERROR(wal_->Reset());
    return base::Status::OK();
  };
  // Always fenced: even WAL-less, a concurrent edb_assert from a live
  // session must not land between the catalog serialization and the
  // image save. On the quiescent paths (Close) the latches are free.
  return clause_store_.WithMutationsBlocked(body);
}

void Engine::RegisterEdbBuiltins() {
  using term::Cell;
  using term::Tag;
  using wam::BuiltinResult;
  using wam::Machine;

  auto err = [](Machine* m, base::Status status) {
    m->SetBuiltinError(std::move(status));
    return BuiltinResult::kError;
  };

  // Resolves the relation a fact cell belongs to; nullptr if undeclared.
  auto find_proc = [this](Machine* m, Cell d) -> edb::ProcedureInfo* {
    dict::SymbolId functor;
    if (d.tag() == Tag::kCon) {
      functor = d.symbol();
    } else if (d.tag() == Tag::kStr) {
      functor = m->HeapAt(d.addr()).symbol();
    } else {
      return nullptr;
    }
    return clause_store_.Find(functor);
  };

  // edb_assert(Fact): store a ground fact in its EDB relation, declaring
  // the relation on first use — assertion straight into external storage.
  (void)program_.builtins()->Register(
      "edb_assert", 1, [this, err](Machine* m, uint32_t) {
        const Cell d = m->Deref(m->X(0));
        if (d.tag() == Tag::kRef) {
          return err(m, base::Status::InstantiationError("edb_assert/1"));
        }
        std::map<uint64_t, uint32_t> vars;
        term::AstPtr fact = m->ExportCell(d, &vars);
        if (!fact->IsCallable()) {
          return err(m, base::Status::TypeError("edb_assert/1 needs a fact"));
        }
        const std::string_view name = dictionary_.NameOf(fact->functor);
        // A first-use declare and its row are one call: one commit.
        base::Status st = clause_store_.CommitAfter([&]() -> base::Status {
          edb::ProcedureInfo* proc = clause_store_.Find(name, fact->arity());
          if (proc == nullptr) {
            EDUCE_ASSIGN_OR_RETURN(
                proc, clause_store_.Declare(name, fact->arity(),
                                            edb::ProcedureMode::kFacts));
          }
          return clause_store_.StoreFact(proc, *fact);
        });
        if (!st.ok()) return err(m, st);
        return BuiltinResult::kTrue;
      });

  // edb_retract(Pattern): delete the first EDB fact unifying with
  // Pattern; bindings from the match are kept.
  (void)program_.builtins()->Register(
      "edb_retract", 1, [this, err, find_proc](Machine* m, uint32_t) {
        const Cell d = m->Deref(m->X(0));
        edb::ProcedureInfo* proc = find_proc(m, d);
        if (proc == nullptr || proc->mode != edb::ProcedureMode::kFacts) {
          return BuiltinResult::kFalse;
        }
        edb::CallPattern pattern(proc->arity);
        for (uint32_t i = 0; i < proc->arity; ++i) {
          pattern[i] = edb::SummaryOfCell(m, m->HeapAt(d.addr() + 1 + i));
        }
        // Collect under the store's read latch, delete under its write
        // latch. A concurrent session may delete the same record between
        // the two; that surfaces as NotFound here and we move on to the
        // next match, so each stored fact is retracted by at most one
        // session.
        auto rows = clause_store_.CollectFacts(proc, pattern);
        if (!rows.ok()) return err(m, rows.status());
        for (const auto& row : *rows) {
          const size_t mark = m->TrailMark();
          auto fact = codec_.DecodeOntoHeap(row.payload, m);
          if (!fact.ok()) return err(m, fact.status());
          if (m->Unify(m->X(0), *fact)) {
            base::Status st = clause_store_.DeleteFact(proc, row.rid);
            // A failed DeleteFact appended nothing; only a success commits.
            if (st.ok()) st = clause_store_.Commit();
            if (st.ok()) return BuiltinResult::kTrue;
            if (!st.IsNotFound()) return err(m, st);
          }
          m->UndoTo(mark);
        }
        return BuiltinResult::kFalse;
      });

  // edb_scan(Name/Arity, Facts): set-at-a-time retrieval — the whole
  // relation shipped as one list (the goal-oriented evaluation mode).
  (void)program_.builtins()->Register(
      "edb_scan", 2, [this, err](Machine* m, uint32_t) {
        const Cell spec = m->Deref(m->X(0));
        if (spec.tag() != Tag::kStr ||
            dictionary_.NameOf(m->HeapAt(spec.addr()).symbol()) != "/") {
          return err(m,
                     base::Status::TypeError("edb_scan/2 expects Name/Arity"));
        }
        const Cell name = m->Deref(m->HeapAt(spec.addr() + 1));
        const Cell arity = m->Deref(m->HeapAt(spec.addr() + 2));
        if (name.tag() != Tag::kCon || arity.tag() != Tag::kInt) {
          return err(m,
                     base::Status::TypeError("edb_scan/2 expects Name/Arity"));
        }
        edb::ProcedureInfo* proc = clause_store_.Find(
            dictionary_.NameOf(name.symbol()),
            static_cast<uint32_t>(arity.int_value()));
        if (proc == nullptr || proc->mode != edb::ProcedureMode::kFacts) {
          return BuiltinResult::kFalse;
        }
        edb::CallPattern pattern(proc->arity);  // all wildcards
        // One read-latch hold for the whole scan: concurrent asserts
        // cannot split buckets under the cursor.
        auto rows = clause_store_.CollectFacts(proc, pattern);
        if (!rows.ok()) return err(m, rows.status());
        std::vector<Cell> facts;
        facts.reserve(rows->size());
        for (const auto& row : *rows) {
          auto fact = codec_.DecodeOntoHeap(row.payload, m);
          if (!fact.ok()) return err(m, fact.status());
          facts.push_back(*fact);
        }
        Cell list = Cell::Con(
            dictionary_.Intern("[]", 0).ValueOr(0));
        for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
          list = m->NewList(*it, list);
        }
        const bool ok = m->Unify(m->X(1), list);
        return ok ? BuiltinResult::kTrue : BuiltinResult::kFalse;
      });
}

void Engine::SyncOptions() {
  program_.SetIndexingEnabled(options_.first_arg_indexing);
  program_.SetFusionEnabled(options_.superinstructions);
  if (loader_.options().indexing != options_.first_arg_indexing ||
      loader_.options().fuse != options_.superinstructions) {
    // Cached EDB code was linked under the old indexing/fusion mode.
    loader_.cache()->Clear();
  }
  loader_.options().cache = options_.loader_cache;
  loader_.options().pattern_cache = options_.pattern_cache;
  loader_.options().preunify = options_.preunify;
  loader_.options().indexing = options_.first_arg_indexing;
  loader_.options().fuse = options_.superinstructions;
  if (governor_ == nullptr) {
    loader_.SetCacheLimits(edb::CodeCache::Limits{
        options_.code_cache_entries, options_.code_cache_bytes});
  } else {
    // Governed: the byte limit belongs to the governor's current split;
    // only the entry cap follows the (lifted) legacy knob.
    loader_.SetCacheLimits(edb::CodeCache::Limits{
        GovernedEntryCap(options_), loader_.cache()->limits().max_bytes});
  }
  // Worker sessions adopt the engine session's options when they open.
  session_->overlay_.SetIndexingEnabled(options_.first_arg_indexing);
  session_->overlay_.SetFusionEnabled(options_.superinstructions);
  session_->resolver_.options().choice_point_elimination =
      options_.choice_point_elimination;
  session_->resolver_.options().loader_cache = options_.loader_cache;
  file_.set_simulated_latency_ns(options_.io_latency_ns);
  // Observability gates: the tracer's enabled flag doubles as the master
  // switch for span recording and per-procedure cost histograms; the
  // emulator's opcode-class gate also opens when only the slow-query log
  // wants profiles.
  tracer_.SetEnabled(options_.profiling);
  session_->machine_->set_profiling(options_.profiling ||
                                    options_.slow_query_ns > 0);
  // The lock-profiler gate is process-wide (the registry outlives any
  // engine), so only forward *changes* to this engine's option: a second
  // engine whose option still holds the default must not flip the gate
  // another engine deliberately opened.
  if (options_.lock_profiling != lock_profiling_synced_) {
    obs::LockProfiler::SetEnabled(options_.lock_profiling);
    lock_profiling_synced_ = options_.lock_profiling;
  }
}

void Engine::SetProfiling(bool on) {
  options_.profiling = on;
  SyncOptions();
}

base::Status Engine::Consult(std::string_view source) {
  // A directive may write the EDB (edb_assert/1).
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  // Consult mutates the base program worker sessions overlay.
  EDUCE_RETURN_IF_ERROR(RefuseIfSessionsActive("Consult"));
  EDUCE_ASSIGN_OR_RETURN(std::vector<reader::ReadTerm> clauses,
                         reader::ParseProgram(&dictionary_, source));
  for (const auto& clause : clauses) {
    // Directives (`:- Goal.`) execute immediately on the engine's session.
    if (clause.term->IsStruct() && clause.term->args.size() == 1 &&
        dictionary_.NameOf(clause.term->functor) == ":-") {
      // WriteTerm's text re-parses to the same term.
      const std::string goal =
          reader::WriteTerm(dictionary_, *clause.term->args[0]);
      EDUCE_ASSIGN_OR_RETURN(bool ok, Succeeds(goal));
      if (!ok) {
        return base::Status::InvalidArgument("directive failed: " + goal);
      }
      continue;
    }
    FoldEngineSession();
    EDUCE_RETURN_IF_ERROR(program_.AddClause(clause.term));
    // Mirror into the Datalog catalog (fed unconditionally so flipping
    // options().datalog on later still sees earlier consults).
    datalog_->AddClause(clause.term);
  }
  return base::Status::OK();
}

base::Status Engine::ConsultFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return base::Status::IOError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Consult(buffer.str());
}

base::Status Engine::DeclareRelation(std::string_view name, uint32_t arity,
                                     std::vector<uint32_t> key_attrs) {
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  return clause_store_.CommitAfter([&] {
    return clause_store_
        .Declare(name, arity, edb::ProcedureMode::kFacts, std::move(key_attrs))
        .status();
  });
}

base::Status Engine::StoreFactsExternal(std::string_view source) {
  // After a failed recovery a write would land behind the record replay
  // stopped at, where no later replay reaches it (open_status()).
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  EDUCE_ASSIGN_OR_RETURN(std::vector<reader::ReadTerm> facts,
                         reader::ParseProgram(&dictionary_, source));
  // The whole call is one commit (DESIGN.md §17.1).
  return clause_store_.CommitAfter([&]() -> base::Status {
    for (const auto& fact : facts) {
      const term::Ast& t = *fact.term;
      if (!t.IsCallable()) {
        return base::Status::InvalidArgument(
            "facts must be atoms or compounds");
      }
      const std::string_view name = dictionary_.NameOf(t.functor);
      if (name == ":-") {
        return base::Status::InvalidArgument(
            "rules cannot be stored as facts; use StoreRulesExternal");
      }
      edb::ProcedureInfo* proc = clause_store_.Find(name, t.arity());
      if (proc == nullptr) {
        EDUCE_ASSIGN_OR_RETURN(
            proc, clause_store_.Declare(name, t.arity(),
                                        edb::ProcedureMode::kFacts));
      }
      EDUCE_RETURN_IF_ERROR(clause_store_.StoreFact(proc, t));
    }
    return base::Status::OK();
  });
}

base::Status Engine::StoreRulesExternal(std::string_view source) {
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  EDUCE_ASSIGN_OR_RETURN(std::vector<reader::ReadTerm> clauses,
                         reader::ParseProgram(&dictionary_, source));
  const edb::ProcedureMode mode = options_.rule_storage == RuleStorage::kCompiled
                                      ? edb::ProcedureMode::kCompiledRules
                                      : edb::ProcedureMode::kSourceRules;
  // The whole call is one commit (DESIGN.md §17.1).
  return clause_store_.CommitAfter([&]() -> base::Status {
    for (const auto& clause : clauses) {
      // Identify the head functor.
      term::AstPtr head = clause.term;
      if (head->IsStruct() && dictionary_.NameOf(head->functor) == ":-" &&
          head->args.size() == 2) {
        head = head->args[0];
      }
      if (!head->IsCallable()) {
        return base::Status::InvalidArgument("clause head must be callable");
      }
      const std::string_view name = dictionary_.NameOf(head->functor);
      edb::ProcedureInfo* proc = clause_store_.Find(name, head->arity());
      if (proc == nullptr) {
        EDUCE_ASSIGN_OR_RETURN(
            proc, clause_store_.Declare(name, head->arity(), mode));
      } else if (proc->mode == edb::ProcedureMode::kFacts) {
        return base::Status::InvalidArgument(std::string(name) +
                                             " is a fact relation");
      }

      if (proc->mode == edb::ProcedureMode::kSourceRules) {
        // Store the clause as (quoted, re-parseable) text.
        reader::WriteOptions wo;
        const std::string text =
            reader::WriteTerm(dictionary_, *clause.term, wo) + " .";
        EDUCE_RETURN_IF_ERROR(clause_store_.StoreRuleSource(proc, text));
        datalog_->AddClause(clause.term);
        continue;
      }

      // Compiled mode: compile now; the main clause's code goes to the EDB,
      // auxiliary predicates extracted from control constructs stay in main
      // memory (they are implementation details of this clause).
      EDUCE_ASSIGN_OR_RETURN(std::vector<wam::CompiledClause> compiled,
                             program_.compiler()->Compile(clause.term));
      if (compiled.size() > 1) {
        // Auxiliary clauses must be installed into the shared base program,
        // which is frozen while worker sessions run. Plain clauses (no
        // control constructs) store fine under load.
        EDUCE_RETURN_IF_ERROR(RefuseIfSessionsActive(
            "StoreRulesExternal with control constructs"));
        FoldEngineSession();
      }
      bool main = true;
      for (auto& c : compiled) {
        if (main) {
          EDUCE_RETURN_IF_ERROR(clause_store_.StoreRuleCompiled(proc, c.code));
          main = false;
        } else {
          EDUCE_RETURN_IF_ERROR(program_.AddCompiled(std::move(c)));
        }
      }
      datalog_->AddClause(clause.term);
    }
    return base::Status::OK();
  });
}

base::Result<std::unique_ptr<Solutions>> Engine::Query(std::string_view goal,
                                                       uint64_t trace_id) {
  // After a failed recovery the store is a truncated copy of what was
  // acknowledged: refuse rather than answer from it (open_status()).
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  return OpenQuery(session_.get(), goal, trace_id);
}

base::Result<std::unique_ptr<Solutions>> Engine::OpenQuery(
    Session* owner, std::string_view goal, uint64_t trace_id) {
  if (owner->query_active_) {
    return base::Status::FailedPrecondition(
        "Query refused: a Solutions from a previous query is still active on "
        "this machine (at most one per machine; destroy it first)");
  }
  const base::Stopwatch watch;  // a bottom-up query evaluates in TryQuery
  // Correlation id for every span this query records, from parse through
  // Datalog evaluation / WAM setup here and each Next() pump later
  // (DESIGN.md §16.2). Callers (the server) may pass one through.
  if (trace_id == 0) trace_id = obs::MintTraceId();
  obs::TraceIdScope trace_scope(trace_id);
  EDUCE_ASSIGN_OR_RETURN(reader::ReadTerm read,
                         reader::ParseTerm(&dictionary_, goal));
  // Armed before StartQuery, so the deltas include the query's setup.
  std::function<void(uint64_t)> retire = ObserveQuery(goal, owner, watch);
  std::unique_ptr<Solutions> solutions;
  if (options_.datalog) {
    // Offer the goal to the bottom-up evaluator first; handled=false is
    // the fallback contract (out of Datalog range, strategy says WAM, or
    // the auto policy declined) with identical solution sets either way.
    EDUCE_ASSIGN_OR_RETURN(DatalogManager::Answer answer,
                           datalog_->TryQuery(read));
    if (answer.handled) {
      solutions.reset(
          new Solutions(&dictionary_, std::move(read), std::move(answer)));
    }
  }
  if (solutions == nullptr) {
    wam::Machine* machine = owner->machine_.get();
    EDUCE_RETURN_IF_ERROR(machine->StartQuery(read.term, read.num_vars));
    solutions.reset(new Solutions(machine, &dictionary_, std::move(read)));
  }
  owner->query_active_ = true;
  solutions->trace_id_ = trace_id;
  solutions->on_retire_ = std::move(retire);
  return solutions;
}

namespace {
// The shared bodies of Engine:: and Session::Succeeds / CountSolutions.
base::Result<bool> AnySolution(
    base::Result<std::unique_ptr<Solutions>> opened) {
  EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Solutions> solutions,
                         std::move(opened));
  return solutions->Next();
}

base::Result<uint64_t> CountAll(
    base::Result<std::unique_ptr<Solutions>> opened) {
  EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Solutions> solutions,
                         std::move(opened));
  uint64_t count = 0;
  while (true) {
    EDUCE_ASSIGN_OR_RETURN(bool more, solutions->Next());
    if (!more) return count;
    ++count;
  }
}
}  // namespace

base::Result<bool> Engine::Succeeds(std::string_view goal) {
  return AnySolution(Query(goal));
}

base::Result<std::map<std::string, std::string>> Engine::First(
    std::string_view goal) {
  EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Solutions> solutions, Query(goal));
  EDUCE_ASSIGN_OR_RETURN(bool any, solutions->Next());
  if (!any) return base::Status::NotFound("no solution for " +
                                          std::string(goal));
  return solutions->All();
}

base::Result<uint64_t> Engine::CountSolutions(std::string_view goal) {
  return CountAll(Query(goal));
}

base::Status Engine::ResetBufferCache(bool drop_code_cache) {
  if (drop_code_cache) loader_.cache()->Clear();
  return pool_.Invalidate();
}

base::Status Engine::InvalidateBuffers() { return ResetBufferCache(false); }

base::Result<uint64_t> Engine::CollectDictionary() {
  // Sweeping symbols while sessions run would tombstone ids their
  // overlays and in-flight code (a live Engine::Query's heap) reference.
  EDUCE_RETURN_IF_ERROR(RefuseIfSessionsActive("CollectDictionary"));
  if (session_->query_active_) {
    return base::Status::FailedPrecondition(
        "CollectDictionary refused: an Engine::Query Solutions is live");
  }
  FoldEngineSession();
  // Roots: everything the predicate store and cached EDB code reference,
  // plus the syntax symbols the reader/machine assume are interned.
  std::set<dict::SymbolId> live;
  program_.CollectReferencedSymbols(&live);
  loader_.CollectReferencedSymbols(&live);
  static constexpr struct {
    const char* name;
    uint32_t arity;
  } kCore[] = {
      {".", 2},   {"[]", 0}, {":-", 2},  {":-", 1}, {",", 2},  {";", 2},
      {"->", 2},  {"!", 0},  {"true", 0}, {"fail", 0}, {"-", 2}, {"/", 2},
      {"{}", 1},  {"=", 2},  {"^", 2},
  };
  for (const auto& core : kCore) {
    if (auto id = dictionary_.Lookup(core.name, core.arity)) live.insert(*id);
  }
  // The machine's query scaffolding references the current query functor
  // (erased lazily at the next StartQuery), which CollectReferencedSymbols
  // already covers while the procedure exists.

  std::vector<dict::SymbolId> dead;
  dictionary_.ForEach([&](dict::SymbolId id) {
    if (!live.count(id)) dead.push_back(id);
  });
  for (dict::SymbolId id : dead) {
    EDUCE_RETURN_IF_ERROR(dictionary_.Remove(id));
  }
  // Cached SymbolId -> external-procedure mappings and cached EDB rows
  // may name swept ids.
  clause_store_.InvalidateFunctorCache();
  datalog_->ClearEdbCache();
  return static_cast<uint64_t>(dead.size());
}

namespace {
// The counters a query's footprint is diffed over and published into.
constexpr uint64_t wam::MachineStats::*kMachineCounters[] = {
    &wam::MachineStats::instructions,
    &wam::MachineStats::calls,
    &wam::MachineStats::choice_points,
    &wam::MachineStats::choice_points_eliminated,
    &wam::MachineStats::backtracks,
    &wam::MachineStats::gc_runs,
    &wam::MachineStats::cells_collected,
    &wam::MachineStats::external_resolutions,
    &wam::MachineStats::trail_entries,
};
constexpr uint64_t edb::ResolverStats::*kResolverCounters[] = {
    &edb::ResolverStats::fact_calls,
    &edb::ResolverStats::fact_calls_deterministic,
    &edb::ResolverStats::rule_loads,
    &edb::ResolverStats::source_parses,
    &edb::ResolverStats::source_asserts,
    &edb::ResolverStats::source_erases,
    &edb::ResolverStats::resolve_ns,
};

// Field-wise `*into += add - sub` over `counters`.
template <typename Stats, size_t N>
void AddCounters(Stats* into, const Stats& add, const Stats& sub,
                 uint64_t Stats::*const (&counters)[N]) {
  for (uint64_t Stats::*counter : counters) {
    into->*counter += add.*counter - sub.*counter;
  }
}
}  // namespace

Session::Session(Engine* engine, uint64_t serial, bool worker)
    : engine_(engine),
      worker_(worker),
      overlay_(&engine->dictionary_, &engine->program_),
      resolver_(&engine->clause_store_, &engine->loader_, &overlay_) {
  // Disjoint $aux name ranges per session: an overlay must never shadow
  // an auxiliary procedure generated (and still called) by the base
  // program or a sibling session.
  overlay_.SeedAuxCounter(serial << 32);
  if (worker) resolver_.options() = engine->session_->resolver_.options();
  machine_ = std::make_unique<wam::Machine>(&overlay_, engine->options_.machine);
  machine_->set_resolver(&resolver_);
  // Sessions share the engine's tracer (its rings are thread-striped) and
  // adopt the observability gates as they stand at open.
  machine_->set_tracer(&engine->tracer_);
  machine_->set_profiling(engine->options_.profiling ||
                          engine->options_.slow_query_ns > 0);
  resolver_.set_tracer(&engine->tracer_);
}

Session::~Session() {
  if (!worker_) return;
  std::lock_guard<obs::TrackedMutex> lock(engine_->sessions_mu_);
  --engine_->active_sessions_;
}

base::Result<std::unique_ptr<Solutions>> Session::Query(std::string_view goal,
                                                        uint64_t trace_id) {
  return engine_->OpenQuery(this, goal, trace_id);
}

base::Result<bool> Session::Succeeds(std::string_view goal) {
  return AnySolution(Query(goal));
}

base::Result<uint64_t> Session::CountSolutions(std::string_view goal) {
  return CountAll(Query(goal));
}

base::Result<std::unique_ptr<Session>> Engine::OpenSession() {
  EDUCE_RETURN_IF_ERROR(boot_.recovery);
  std::lock_guard<obs::TrackedMutex> lock(sessions_mu_);
  if (active_sessions_ == 0) {
    // Fold, then freeze the base: with every procedure pre-linked, overlay
    // sessions serve base code straight from the immutable linked
    // pointers and never take the shadow-copy fallback.
    FoldEngineSession();
    program_.LinkAll();
  }
  ++active_sessions_;
  const uint64_t serial = ++session_serial_;
  return std::unique_ptr<Session>(new Session(this, serial, /*worker=*/true));
}

uint32_t Engine::active_sessions() const {
  std::lock_guard<obs::TrackedMutex> lock(sessions_mu_);
  return active_sessions_;
}

base::Result<std::vector<SolveOutcome>> Engine::SolveParallel(
    const std::vector<std::string>& goals, uint32_t n_workers,
    bool collect_bindings) {
  if (n_workers == 0) {
    return base::Status::InvalidArgument("SolveParallel needs >= 1 worker");
  }
  if (goals.empty()) return std::vector<SolveOutcome>{};
  n_workers = static_cast<uint32_t>(
      std::min<size_t>(n_workers, goals.size()));

  // Open every session on this thread: the first open freezes the base
  // program before any worker runs.
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(n_workers);
  for (uint32_t w = 0; w < n_workers; ++w) {
    EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Session> session, OpenSession());
    sessions.push_back(std::move(session));
  }

  std::vector<SolveOutcome> results(goals.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  base::Status first_error;

  auto run_goal = [&](Session* session, size_t i) -> base::Status {
    EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Solutions> solutions,
                           session->Query(goals[i]));
    while (true) {
      EDUCE_ASSIGN_OR_RETURN(bool more, solutions->Next());
      if (!more) break;
      ++results[i].count;
      if (collect_bindings) {
        std::string row;
        for (const auto& [name, value] : solutions->All()) {
          if (!row.empty()) row += ' ';
          row += name;
          row += '=';
          row += value;
        }
        results[i].rows.push_back(std::move(row));
      }
    }
    return base::Status::OK();
  };

  auto worker = [&](Session* session) {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= goals.size()) break;
      base::Status st = run_goal(session, i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = std::move(st);
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n_workers - 1);
  for (uint32_t w = 1; w < n_workers; ++w) {
    threads.emplace_back(worker, sessions[w].get());
  }
  worker(sessions[0].get());  // the calling thread is worker 0
  for (std::thread& t : threads) t.join();
  sessions.clear();  // release the freeze

  if (!first_error.ok()) return first_error;
  return results;
}

EngineStats Engine::Stats() {
  EngineStats stats;
  {
    // Every query published its footprint as it retired.
    std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
    stats.machine = machine_totals_;
    stats.resolver = resolver_totals_;
  }
  stats.program = program_.stats();
  stats.paged_file = file_.stats();
  stats.buffer_pool = pool_.stats();
  stats.clause_store = clause_store_.stats();
  stats.loader = loader_.stats();
  stats.code_cache = loader_.cache_stats();
  stats.compiler = program_.compiler()->stats();
  stats.datalog = datalog_->stats();
  if (wal_ != nullptr) {
    stats.wal = wal_->stats();
    stats.wal_last_lsn = wal_->last_lsn();
    stats.wal_durable_lsn = wal_->durable_lsn();
    stats.memory.wal_file_bytes = wal_->file_bytes();
  }
  stats.wal_records_replayed = boot_.wal_replayed;
  stats.memory.buffer_resident_bytes = pool_.resident_bytes();
  stats.memory.buffer_capacity_bytes = pool_.capacity_bytes();
  stats.memory.code_cache_resident_bytes = loader_.cache()->bytes_resident();
  stats.memory.code_cache_capacity_bytes = loader_.cache()->limits().max_bytes;
  stats.memory.paged_file_bytes =
      static_cast<uint64_t>(file_.page_count()) * file_.page_size();
  const edb::CodeCache::ShardOccupancy occupancy =
      loader_.cache()->MeasureShardOccupancy();
  stats.memory.code_cache_shard_max_bytes = occupancy.max_bytes;
  stats.memory.code_cache_shard_min_bytes = occupancy.min_bytes;
  stats.memory.datalog_edb_cache_bytes = datalog_->EdbCacheBytes();
  return stats;
}

void Engine::ResetStats() {
  program_.ResetStats();
  file_.ResetStats();
  pool_.ResetStats();
  clause_store_.ResetStats();
  loader_.ResetStats();
  program_.compiler()->ResetStats();
  query_latency_.Reset();
  {
    std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
    machine_totals_ = wam::MachineStats{};
    resolver_totals_ = edb::ResolverStats{};
    recent_profiles_.clear();
    op_class_totals_.fill(0);
    digram_totals_.reset();
    profiles_collected_ = 0;
  }
  tracer_.Clear();
}

std::function<void(uint64_t)> Engine::ObserveQuery(
    std::string_view goal, Session* owner, const base::Stopwatch& watch) {
  const bool collect = options_.profiling || options_.slow_query_ns > 0;
  // Counter snapshot at query start; the finalizer diffs against it at
  // retirement so the deltas hold exactly this owner's footprint even
  // though the underlying counters are lifetime totals.
  struct Snapshot {
    base::Stopwatch watch;
    std::string goal;
    wam::MachineStats machine;
    edb::ResolverStats resolver;
    uint64_t decode_ns = 0;
    uint64_t link_ns = 0;
    uint64_t clauses_decoded = 0;
    uint64_t cache_hits = 0;
    uint64_t pages_read = 0;
    uint64_t buffer_hits = 0;
  };
  auto snap = std::make_shared<Snapshot>();
  snap->watch = watch;
  snap->machine = owner->machine_->stats();
  snap->resolver = owner->resolver_.stats();
  if (collect) {
    snap->goal = std::string(goal);
    const edb::LoaderStats& l = loader_.stats();
    snap->decode_ns = l.decode_ns;
    snap->link_ns = l.link_ns;
    snap->clauses_decoded = l.clauses_decoded;
    const edb::CodeCacheStats& c = loader_.cache_stats();
    snap->cache_hits = c.hits + c.pattern_hits + c.selection_hits;
    snap->pages_read = file_.stats().pages_read;
    snap->buffer_hits = pool_.stats().hits;
  }
  return [this, snap, owner, collect](uint64_t solutions_seen) {
    owner->query_active_ = false;  // the owner may open its next query
    const uint64_t total_ns = snap->watch.ElapsedNanos();
    query_latency_.Record(total_ns);
    wam::MachineStats m;
    AddCounters(&m, owner->machine_->stats(), snap->machine,
                kMachineCounters);
    edb::ResolverStats r;
    AddCounters(&r, owner->resolver_.stats(), snap->resolver,
                kResolverCounters);
    {
      std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
      AddCounters(&machine_totals_, m, {}, kMachineCounters);
      AddCounters(&resolver_totals_, r, {}, kResolverCounters);
    }
    // Governor heartbeat: every Nth retirement (engine or session alike)
    // runs a rebalance on this thread. No lock is held here.
    if (governor_ != nullptr) governor_->NoteRetirement();
    if (!collect) return;
    obs::QueryProfile p;
    p.goal = std::move(snap->goal);
    p.total_ns = total_ns;
    p.solutions = solutions_seen;
    p.instructions = m.instructions;
    p.calls = m.calls;
    p.choice_points_created = m.choice_points;
    p.choice_points_eliminated = m.choice_points_eliminated;
    p.backtracks = m.backtracks;
    p.trail_entries = m.trail_entries;
    // The emulator profile is reset per StartQuery, so it is already
    // query-scoped; no diffing needed.
    const obs::EmulatorProfile& ep = owner->machine_->profile();
    p.op_class = ep.op_class;
    p.heap_high_water = ep.heap_high_water;
    p.resolve_ns = r.resolve_ns;
    const edb::LoaderStats& l = loader_.stats();
    p.decode_ns = l.decode_ns - snap->decode_ns;
    p.link_ns = l.link_ns - snap->link_ns;
    p.clauses_decoded = l.clauses_decoded - snap->clauses_decoded;
    const edb::CodeCacheStats& c = loader_.cache_stats();
    p.code_cache_hits =
        (c.hits + c.pattern_hits + c.selection_hits) - snap->cache_hits;
    p.pages_read = file_.stats().pages_read - snap->pages_read;
    p.buffer_hits = pool_.stats().hits - snap->buffer_hits;
    p.execute_ns = total_ns > p.resolve_ns ? total_ns - p.resolve_ns : 0;
    FileQueryProfile(std::move(p), ep.digrams_dirty ? &ep.digrams : nullptr);
  };
}

void Engine::FileQueryProfile(obs::QueryProfile profile,
                              const obs::EmulatorProfile::DigramArray* digrams) {
  const bool slow = options_.slow_query_ns != 0 &&
                    profile.total_ns >= options_.slow_query_ns;
  std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
  for (size_t i = 0; i < obs::kOpClassCount; ++i) {
    op_class_totals_[i] += profile.op_class[i];
  }
  if (digrams != nullptr) {
    if (digram_totals_ == nullptr) {
      digram_totals_ = std::make_unique<obs::EmulatorProfile::DigramArray>();
      digram_totals_->fill(0);
    }
    for (size_t i = 0; i < digrams->size(); ++i) {
      (*digram_totals_)[i] += (*digrams)[i];
    }
  }
  ++profiles_collected_;
  if (slow) {
    // Written under obs_mu_ so concurrent slow session queries never
    // interleave their JSON lines.
    std::ostream* log = metrics_log_ != nullptr ? metrics_log_ : &std::cerr;
    *log << "SLOW_QUERY " << profile.ToJson() << "\n";
  }
  recent_profiles_.push_back(std::move(profile));
  if (recent_profiles_.size() > kMaxRecentProfiles) {
    recent_profiles_.pop_front();
  }
}

obs::Histogram Engine::QueryLatencyHistogram() const {
  return query_latency_.Snapshot();
}

std::vector<obs::QueryProfile> Engine::RecentProfiles() const {
  std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
  return {recent_profiles_.begin(), recent_profiles_.end()};
}

std::string Engine::ExportMetricsJson() {
  // Stats() takes obs_mu_ and per-shard cache locks; collect it (and the
  // loader's per-procedure histograms) before taking obs_mu_ here.
  const EngineStats stats = Stats();
  std::string procs;
  loader_.ForEachProcCost([&procs](const std::string& name,
                                   const obs::Histogram& decode,
                                   const obs::Histogram& link) {
    if (!procs.empty()) procs += ",";
    procs += "{\"proc\":\"" + obs::JsonEscape(name) +
             "\",\"decode_ns\":" + decode.ToJson() +
             ",\"link_ns\":" + link.ToJson() + "}";
  });

  const obs::Histogram latency = query_latency_.Snapshot();
  std::deque<obs::QueryProfile> recent;
  std::array<uint64_t, obs::kOpClassCount> op_totals{};
  std::unique_ptr<obs::EmulatorProfile::DigramArray> digrams;
  uint64_t collected = 0;
  {
    std::lock_guard<obs::TrackedMutex> lock(obs_mu_);
    recent = recent_profiles_;
    op_totals = op_class_totals_;
    if (digram_totals_ != nullptr) {
      digrams =
          std::make_unique<obs::EmulatorProfile::DigramArray>(*digram_totals_);
    }
    collected = profiles_collected_;
  }

  auto num = [](uint64_t v) { return std::to_string(v); };
  std::string out = "{\"profiling\":";
  out += options_.profiling ? "true" : "false";
  out += ",\"query_latency_ns\":" + latency.ToJson();
  out += ",\"totals\":{";
  out += "\"instructions\":" + num(stats.machine.instructions);
  out += ",\"calls\":" + num(stats.machine.calls);
  out += ",\"choice_points_created\":" + num(stats.machine.choice_points);
  out += ",\"choice_points_eliminated\":" +
         num(stats.machine.choice_points_eliminated);
  out += ",\"backtracks\":" + num(stats.machine.backtracks);
  out += ",\"trail_entries\":" + num(stats.machine.trail_entries);
  out += ",\"resolve_ns\":" + num(stats.resolver.resolve_ns);
  out += ",\"decode_ns\":" + num(stats.loader.decode_ns);
  out += ",\"link_ns\":" + num(stats.loader.link_ns);
  out += ",\"clauses_decoded\":" + num(stats.loader.clauses_decoded);
  out += ",\"code_cache_hits\":" +
         num(stats.code_cache.hits + stats.code_cache.pattern_hits +
             stats.code_cache.selection_hits);
  out += ",\"pages_read\":" + num(stats.paged_file.pages_read);
  out += ",\"pages_written\":" + num(stats.paged_file.pages_written);
  out += ",\"buffer_hits\":" + num(stats.buffer_pool.hits);
  out += "}";
  out += ",\"op_class_totals\":{";
  for (size_t i = 0; i < obs::kOpClassCount; ++i) {
    out += i == 0 ? "\"" : ",\"";
    out += obs::OpClassName(static_cast<obs::OpClass>(i));
    out += "\":" + num(op_totals[i]);
  }
  out += "}";
  // Top executed opcode digrams (profiled queries only): the input to the
  // superinstruction set selection documented in DESIGN.md §14.2.
  out += ",\"opcode_digrams\":[";
  if (digrams != nullptr) {
    constexpr size_t kSlots = obs::EmulatorProfile::kDigramSlots;
    std::vector<std::pair<uint64_t, size_t>> ranked;
    for (size_t i = 0; i < digrams->size(); ++i) {
      if ((*digrams)[i] != 0) ranked.emplace_back((*digrams)[i], i);
    }
    const size_t top = std::min<size_t>(ranked.size(), 32);
    std::partial_sort(ranked.begin(), ranked.begin() + top, ranked.end(),
                      std::greater<>());
    for (size_t r = 0; r < top; ++r) {
      const size_t prev = ranked[r].second / kSlots;
      const size_t cur = ranked[r].second % kSlots;
      auto name = [](size_t raw) {
        return raw < wam::kOpcodeCount
                   ? wam::OpcodeName(static_cast<wam::Opcode>(raw))
                   : "?";
      };
      if (r != 0) out += ",";
      out += "{\"digram\":\"" + std::string(name(prev)) + ">" + name(cur) +
             "\",\"count\":" + num(ranked[r].first) + "}";
    }
  }
  out += "]";
  out += ",\"per_procedure\":[" + procs + "]";
  out += ",\"spans\":{\"recorded\":" + num(tracer_.recorded()) +
         ",\"dropped\":" + num(tracer_.dropped());
  {
    // Per-ring breakdown: drops concentrate on whichever rings the busy
    // threads landed on, which the totals alone cannot show.
    const std::vector<obs::Tracer::RingCounters> rings =
        tracer_.PerRingCounters();
    out += ",\"rings\":[";
    for (size_t r = 0; r < rings.size(); ++r) {
      if (r != 0) out += ",";
      out += "{\"recorded\":" + num(rings[r].recorded) +
             ",\"dropped\":" + num(rings[r].dropped) + "}";
    }
    out += "]}";
  }
  // Lock-site contention (DESIGN.md §16.1): per-site wait/hold histograms
  // plus the top-contended ranking. With EDUCE_LOCK_PROFILING compiled
  // out this is a constant {"compiled":false,...,"sites":[]}.
  out += ",\"locks\":" + obs::LockProfiler::ToJson();
  out += ",\"memory\":{";
  out += "\"buffer_resident_bytes\":" + num(stats.memory.buffer_resident_bytes);
  out += ",\"buffer_capacity_bytes\":" + num(stats.memory.buffer_capacity_bytes);
  out += ",\"code_cache_resident_bytes\":" +
         num(stats.memory.code_cache_resident_bytes);
  out += ",\"code_cache_capacity_bytes\":" +
         num(stats.memory.code_cache_capacity_bytes);
  out += ",\"code_cache_shard_max_bytes\":" +
         num(stats.memory.code_cache_shard_max_bytes);
  out += ",\"code_cache_shard_min_bytes\":" +
         num(stats.memory.code_cache_shard_min_bytes);
  out += ",\"paged_file_bytes\":" + num(stats.memory.paged_file_bytes);
  out += ",\"wal_file_bytes\":" + num(stats.memory.wal_file_bytes);
  out += ",\"datalog_edb_cache_bytes\":" +
         num(stats.memory.datalog_edb_cache_bytes);
  out += "}";
  out += ",\"wal\":{";
  out += "\"enabled\":";
  out += wal_ != nullptr ? "true" : "false";
  out += ",\"last_lsn\":" + num(stats.wal_last_lsn);
  out += ",\"durable_lsn\":" + num(stats.wal_durable_lsn);
  out += ",\"records_appended\":" + num(stats.wal.records_appended);
  out += ",\"bytes_appended\":" + num(stats.wal.bytes_appended);
  out += ",\"commits\":" + num(stats.wal.commits);
  out += ",\"group_commits\":" + num(stats.wal.group_commits);
  out += ",\"fsyncs\":" + num(stats.wal.fsyncs);
  out += ",\"records_replayed\":" + num(stats.wal_records_replayed);
  out += ",\"torn_bytes_dropped\":" + num(stats.wal.torn_bytes_dropped);
  out += "}";
  out += ",\"datalog\":{";
  out += "\"enabled\":";
  out += options_.datalog ? "true" : "false";
  out += ",\"queries_bottom_up\":" + num(stats.datalog.queries_bottom_up);
  out += ",\"queries_fallback\":" + num(stats.datalog.queries_fallback);
  out += ",\"plans_compiled\":" + num(stats.datalog.plans_compiled);
  out += ",\"plan_cache_hits\":" + num(stats.datalog.plan_cache_hits);
  out += ",\"plans_invalidated\":" + num(stats.datalog.plans_invalidated);
  out += ",\"magic_rewrites\":" + num(stats.datalog.magic_rewrites);
  out += ",\"strata\":" + num(stats.datalog.strata);
  out += ",\"iterations\":" + num(stats.datalog.iterations);
  out += ",\"tuples_derived\":" + num(stats.datalog.tuples_derived);
  out += ",\"join_rows\":" + num(stats.datalog.join_rows);
  out += ",\"join_probes\":" + num(stats.datalog.join_probes);
  out += ",\"index_builds\":" + num(stats.datalog.index_builds);
  out += ",\"dedup_hits\":" + num(stats.datalog.dedup_hits);
  out += ",\"edb_rows\":" + num(stats.datalog.edb_rows);
  out += ",\"join_ns\":" + num(stats.datalog.join_ns);
  out += ",\"flush_ns\":" + num(stats.datalog.flush_ns);
  out += ",\"answer_ns\":" + num(stats.datalog.answer_ns);
  out += ",\"constants_decoded\":" + num(stats.datalog.constants_decoded);
  out += ",\"bulk_fact_scans\":" + num(stats.clause_store.bulk_fact_scans);
  out += ",\"bulk_fact_rows\":" + num(stats.clause_store.bulk_fact_rows);
  out += ",\"last_delta_sizes\":[";
  for (size_t i = 0; i < stats.datalog.last_delta_sizes.size(); ++i) {
    if (i != 0) out += ",";
    out += num(stats.datalog.last_delta_sizes[i]);
  }
  out += "],\"last_per_stratum_tuples\":[";
  for (size_t i = 0; i < stats.datalog.last_per_stratum_tuples.size(); ++i) {
    if (i != 0) out += ",";
    out += num(stats.datalog.last_per_stratum_tuples[i]);
  }
  out += "]}";
  out += ",\"memory_governor\":";
  out += governor_ != nullptr ? governor_->ToJson() : "{\"enabled\":false}";
  out += ",\"profiles_collected\":" + num(collected);
  out += ",\"recent_queries\":[";
  bool first = true;
  for (const auto& p : recent) {
    if (!first) out += ",";
    first = false;
    out += p.ToJson();
  }
  out += "]}";
  return out;
}

Solutions::~Solutions() { Retire(); }

void Solutions::Retire() {
  if (retired_) return;
  retired_ = true;
  on_retire_(solutions_seen_);
}

base::Result<bool> Solutions::Next() {
  // Re-install this query's correlation id for the duration of the pump:
  // the caller may interleave Next() across several live Solutions (e.g.
  // worker sessions on one dispatcher thread), and spans recorded down
  // the stack must carry the id of the query actually running.
  obs::TraceIdScope trace_scope(trace_id_);
  if (machine_ == nullptr) {
    // Materialized mode: the bottom-up evaluator computed the whole set
    // up front; row_cursor_ is one past the current row (0 = before the
    // first Next).
    if (row_cursor_ < row_count_) {
      ++row_cursor_;
      ++solutions_seen_;
      return true;
    }
    Retire();
    return false;
  }
  base::Result<bool> more = machine_->NextSolution();
  if (more.ok() && *more) {
    ++solutions_seen_;
  } else {
    // Exhausted or failed: the enumeration is over, so the query retires
    // and the machine is free for the owner's next Query even while this
    // object lives on (holding a finished Solutions for its bindings is
    // legitimate).
    Retire();
  }
  return more;
}

term::AstPtr Solutions::MaterializedCell(size_t position) const {
  if (row_cursor_ == 0 || row_cursor_ > row_count_ || position >= width_) {
    return nullptr;
  }
  return constants_.Ast(cells_[(row_cursor_ - 1) * width_ + position]);
}

term::AstPtr Solutions::BindingAst(std::string_view name) const {
  if (machine_ == nullptr) {
    size_t position = 0;
    for (const auto& [var_name, index] : read_.var_names) {
      if (var_name == name) return MaterializedCell(position);
      ++position;
    }
    return nullptr;
  }
  for (const auto& [var_name, index] : read_.var_names) {
    if (var_name == name) {
      std::map<uint64_t, uint32_t> var_map;
      return machine_->ExportVar(index, &var_map);
    }
  }
  return nullptr;
}

std::string Solutions::Binding(std::string_view name) const {
  term::AstPtr ast = BindingAst(name);
  if (ast == nullptr) return "";
  return reader::WriteTerm(*dictionary_, *ast);
}

std::map<std::string, std::string> Solutions::All() const {
  std::map<std::string, std::string> out;
  if (machine_ == nullptr) {
    size_t position = 0;
    for (const auto& [var_name, index] : read_.var_names) {
      if (term::AstPtr cell = MaterializedCell(position++)) {
        out[var_name] = reader::WriteTerm(*dictionary_, *cell);
      }
    }
    return out;
  }
  std::map<uint64_t, uint32_t> var_map;
  for (const auto& [var_name, index] : read_.var_names) {
    out[var_name] =
        reader::WriteTerm(*dictionary_, *machine_->ExportVar(index, &var_map));
  }
  return out;
}

}  // namespace educe
