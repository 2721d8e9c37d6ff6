#include "edb/clause_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "base/hash.h"
#include "wam/machine.h"

namespace educe::edb {

namespace {

// Salts keep int/float keys out of the (FNV) atom-hash space by
// construction; residual collisions are filtered by real unification.
constexpr uint64_t kIntSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kFloatSalt = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kListKey = 0x165667b19e3779f9ull;
constexpr uint64_t kVarRuleKey = 0x27d4eb2f165667c5ull;

uint64_t AvoidWildcard(uint64_t key) {
  return key == storage::kBangWildcard ? 0 : key;
}

template <typename T>
void PutPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

/// Bounds-checked little cursor over serialized catalog bytes: every
/// read either succeeds or flips ok() to false (no partial state).
class CatalogReader {
 public:
  explicit CatalogReader(std::string_view data) : data_(data) {}

  template <typename T>
  T Pod() {
    T value{};
    if (pos_ + sizeof(T) > data_.size()) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string_view Bytes() {
    const uint32_t len = Pod<uint32_t>();
    if (!ok_ || pos_ + len > data_.size()) {
      ok_ = false;
      return {};
    }
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// WAL record types (DESIGN.md §17.1). Physiological redo: logical at the
// relation level (procedure named by name/arity), physical at the row
// level (raw BANG keys + encoded payload), so replay needs no dictionary
// or AST decoding and reproduces rids deterministically.
constexpr uint8_t kWalDeclare = 1;    // procedure declared
constexpr uint8_t kWalFactRow = 2;    // fact row inserted
constexpr uint8_t kWalRuleRow = 3;    // rule row + code row inserted
constexpr uint8_t kWalDeleteRow = 4;  // fact row deleted by rid
// kWalDictEntry = 5 (external dictionary entry) lives in
// external_dictionary.h — the dictionary appends it, replay lands here.

void PutProcRef(std::string* out, const ProcedureInfo& proc) {
  PutBytes(out, proc.name);
  PutPod<uint32_t>(out, proc.arity);
}

std::string EncodeDeclareRecord(std::string_view name, uint32_t arity,
                                ProcedureMode mode,
                                const std::vector<uint32_t>& key_attrs) {
  std::string out;
  PutBytes(&out, name);
  PutPod<uint32_t>(&out, arity);
  PutPod<uint8_t>(&out, static_cast<uint8_t>(mode));
  PutPod<uint32_t>(&out, static_cast<uint32_t>(key_attrs.size()));
  for (uint32_t attr : key_attrs) PutPod<uint32_t>(&out, attr);
  return out;
}

std::string EncodeFactRowRecord(const ProcedureInfo& proc,
                                const std::vector<uint64_t>& keys,
                                std::string_view payload) {
  std::string out;
  PutProcRef(&out, proc);
  PutPod<uint32_t>(&out, static_cast<uint32_t>(keys.size()));
  for (uint64_t key : keys) PutPod<uint64_t>(&out, key);
  PutBytes(&out, payload);
  return out;
}

std::string EncodeRuleRowRecord(const ProcedureInfo& proc, uint64_t arg_key,
                                uint32_t clause_id, bool has_code,
                                std::string_view payload) {
  std::string out;
  PutProcRef(&out, proc);
  PutPod<uint64_t>(&out, arg_key);
  PutPod<uint32_t>(&out, clause_id);
  PutPod<uint8_t>(&out, has_code ? 1 : 0);
  PutBytes(&out, payload);
  return out;
}

std::string EncodeDeleteRowRecord(const ProcedureInfo& proc,
                                  storage::RecordId rid) {
  std::string out;
  PutProcRef(&out, proc);
  PutPod<uint32_t>(&out, rid.page);
  PutPod<uint16_t>(&out, rid.slot);
  return out;
}

}  // namespace

uint64_t KeyOfGroundArg(const term::Ast& arg, const dict::Dictionary& dict) {
  switch (arg.kind) {
    case term::Ast::Kind::kAtom:
      return AvoidWildcard(
          ExternalDictionary::HashOf(dict.NameOf(arg.functor), 0));
    case term::Ast::Kind::kInt:
      return AvoidWildcard(
          base::MixInt64(static_cast<uint64_t>(arg.int_value)) ^ kIntSalt);
    case term::Ast::Kind::kFloat:
      return AvoidWildcard(
          base::MixInt64(term::Cell::FloatBits(arg.float_value)) ^ kFloatSalt);
    case term::Ast::Kind::kStruct: {
      if (dict.NameOf(arg.functor) == "." && arg.args.size() == 2) {
        return kListKey;
      }
      return AvoidWildcard(ExternalDictionary::HashOf(
          dict.NameOf(arg.functor),
          static_cast<uint32_t>(arg.args.size())));
    }
    case term::Ast::Kind::kVar:
      return kVarRuleKey;  // only rule heads may be non-ground
  }
  return 0;
}

uint64_t KeyOfSummary(const ArgSummary& s) {
  switch (s.kind) {
    case ArgSummary::Kind::kAny:
      return storage::kBangWildcard;
    case ArgSummary::Kind::kAtom:
    case ArgSummary::Kind::kStruct:
      return AvoidWildcard(s.value);
    case ArgSummary::Kind::kInt:
      return AvoidWildcard(base::MixInt64(s.value) ^ kIntSalt);
    case ArgSummary::Kind::kFloat:
      return AvoidWildcard(base::MixInt64(s.value) ^ kFloatSalt);
    case ArgSummary::Kind::kList:
      return kListKey;
  }
  return 0;
}

ArgSummary SummaryOfCell(wam::Machine* machine, term::Cell cell) {
  const dict::Dictionary& dict = *machine->dictionary();
  const term::Cell d = machine->Deref(cell);
  ArgSummary s;
  switch (d.tag()) {
    case term::Tag::kRef:
      s.kind = ArgSummary::Kind::kAny;
      break;
    case term::Tag::kCon:
      s.kind = ArgSummary::Kind::kAtom;
      s.value = ExternalDictionary::HashOf(dict.NameOf(d.symbol()), 0);
      break;
    case term::Tag::kInt:
      s.kind = ArgSummary::Kind::kInt;
      s.value = static_cast<uint64_t>(d.int_value());
      break;
    case term::Tag::kFlt:
      s.kind = ArgSummary::Kind::kFloat;
      s.value = d.float_bits();
      break;
    case term::Tag::kLis:
      s.kind = ArgSummary::Kind::kList;
      break;
    case term::Tag::kStr: {
      const dict::SymbolId f = machine->HeapAt(d.addr()).symbol();
      s.kind = ArgSummary::Kind::kStruct;
      s.value = ExternalDictionary::HashOf(dict.NameOf(f), dict.ArityOf(f));
      break;
    }
    default:
      break;
  }
  return s;
}

CallPattern PatternFromCall(wam::Machine* machine, uint32_t arity) {
  CallPattern pattern(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    pattern[i] = SummaryOfCell(machine, machine->X(i));
  }
  return pattern;
}

bool FactRowMayMatch(std::string_view payload, const CallPattern& pattern) {
  // Arguments past this many are left to unification: a bounded stack
  // buffer keeps the per-row walk allocation-free.
  constexpr size_t kMaxPeek = 32;
  size_t wanted = 0;
  for (size_t i = 0; i < pattern.size() && i < kMaxPeek; ++i) {
    if (pattern[i].kind != ArgSummary::Kind::kAny) wanted = i + 1;
  }
  StoredArg args[kMaxPeek];
  const size_t read = CodeCodec::PeekArgs(payload, wanted, args);
  for (size_t i = 0; i < read; ++i) {
    const ArgSummary& s = pattern[i];
    const StoredArg& a = args[i];
    switch (s.kind) {
      case ArgSummary::Kind::kAny:
        continue;
      case ArgSummary::Kind::kAtom:
        // Equal names have equal hashes, so unequal hashes never unify.
        if (a.kind != StoredArg::Kind::kAtom || a.value != s.value) {
          return false;
        }
        continue;
      case ArgSummary::Kind::kInt:
        // The cell keeps 61 bits: compare what Unify compares.
        if (a.kind != StoredArg::Kind::kInt ||
            term::Cell::Int(static_cast<int64_t>(a.value)) !=
                term::Cell::Int(static_cast<int64_t>(s.value))) {
          return false;
        }
        continue;
      case ArgSummary::Kind::kFloat:
        if (a.kind != StoredArg::Kind::kFloat ||
            term::Cell::FltFromBits(a.value) !=
                term::Cell::FltFromBits(s.value)) {
          return false;
        }
        continue;
      case ArgSummary::Kind::kList:
        if (a.kind != StoredArg::Kind::kCompound) return false;
        continue;
      case ArgSummary::Kind::kStruct:
        // Functor hashes cover name and arity, like atom hashes.
        if (a.kind != StoredArg::Kind::kCompound || a.value != s.value) {
          return false;
        }
        continue;
    }
  }
  return true;
}

ClauseStore::ClauseStore(storage::BufferPool* pool,
                         ExternalDictionary* external, CodeCodec* codec,
                         dict::Dictionary* dictionary)
    : pool_(pool), external_(external), codec_(codec),
      dictionary_(dictionary) {
  auto clauses = storage::BangFile::Create(pool_, 2);
  // Creation of a 2-attribute file on a fresh pool cannot fail.
  clauses_relation_ =
      std::make_unique<storage::BangFile>(std::move(clauses).value());
}

base::Result<ProcedureInfo*> ClauseStore::Declare(
    std::string_view name, uint32_t arity, ProcedureMode mode,
    std::vector<uint32_t> key_attrs) {
  std::unique_lock<obs::TrackedSharedMutex> latch(latch_);
  // Validate (and resolve defaulted key attributes) before logging: a
  // rejected declare must leave no record behind, because replay
  // tolerates only AlreadyExists — a logged-then-refused declare would
  // turn into Corruption on every recovery after the next crash,
  // wedging the database.
  EDUCE_RETURN_IF_ERROR(ValidateDeclareLocked(name, arity, mode, &key_attrs));
  if (wal_ != nullptr) {
    // Log-before-update; the declare must replay before any row of the
    // new relation, which its LSN (assigned under the same exclusive
    // catalog hold that publishes the procedure) guarantees. If the
    // apply below fails after the append, the logged declare replays
    // into a procedure no live session ever saw — harmless.
    EDUCE_RETURN_IF_ERROR(
        wal_->Append(kWalDeclare,
                     EncodeDeclareRecord(name, arity, mode, key_attrs))
            .status());
  }
  return DeclareLocked(name, arity, mode, std::move(key_attrs));
}

base::Status ClauseStore::Commit() {
  if (wal_ == nullptr) return base::Status::OK();
  // Group commit: one fsync covers every record appended so far, this
  // caller's and any concurrent writer's alike.
  return wal_->Commit(wal_->last_lsn());
}

base::Status ClauseStore::ValidateDeclareLocked(
    std::string_view name, uint32_t arity, ProcedureMode mode,
    std::vector<uint32_t>* key_attrs) const {
  if (procedures_.count(std::make_pair(std::string(name), arity))) {
    return base::Status::AlreadyExists("external procedure " +
                                       std::string(name) + "/" +
                                       std::to_string(arity));
  }
  if (mode != ProcedureMode::kFacts) {
    // Rule relations ignore key attributes; canonicalize the logged
    // record to the effective (empty) configuration.
    key_attrs->clear();
    return base::Status::OK();
  }
  if (key_attrs->empty()) {
    for (uint32_t i = 0; i < std::min(arity, 4u); ++i) {
      key_attrs->push_back(i);
    }
  }
  if (key_attrs->size() > 16) {
    return base::Status::Unsupported(
        "fact relations support at most 16 key attributes");
  }
  for (uint32_t attr : *key_attrs) {
    if (attr >= arity) {
      return base::Status::InvalidArgument("key attribute out of range");
    }
  }
  return base::Status::OK();
}

base::Result<ProcedureInfo*> ClauseStore::DeclareLocked(
    std::string_view name, uint32_t arity, ProcedureMode mode,
    std::vector<uint32_t> key_attrs) {
  auto key = std::make_pair(std::string(name), arity);
  if (procedures_.count(key)) {
    return base::Status::AlreadyExists("external procedure " +
                                       std::string(name) + "/" +
                                       std::to_string(arity));
  }
  ProcedureInfo info;
  info.name = std::string(name);
  info.arity = arity;
  info.mode = mode;
  EDUCE_ASSIGN_OR_RETURN(info.functor_hash, external_->Ensure(name, arity));

  if (mode == ProcedureMode::kFacts) {
    if (key_attrs.empty()) {
      for (uint32_t i = 0; i < std::min(arity, 4u); ++i) {
        key_attrs.push_back(i);
      }
    }
    for (uint32_t attr : key_attrs) {
      if (attr >= arity) {
        return base::Status::InvalidArgument("key attribute out of range");
      }
    }
    info.key_attrs = std::move(key_attrs);
  }

  // The per-procedure relation. Facts: one key per key attribute (arity 0
  // gets one dummy key). Rules: keys = [first-arg index key, clause_id].
  const uint32_t num_attrs =
      mode == ProcedureMode::kFacts
          ? std::max<uint32_t>(
                static_cast<uint32_t>(info.key_attrs.size()), 1u)
          : 2u;
  if (num_attrs > 16) {
    return base::Status::Unsupported(
        "fact relations support at most 16 key attributes");
  }
  EDUCE_ASSIGN_OR_RETURN(storage::BangFile relation,
                         storage::BangFile::Create(pool_, num_attrs));
  info.relation = std::make_unique<storage::BangFile>(std::move(relation));
  info.latch = std::make_unique<obs::TrackedSharedMutex>(
      EDUCE_LOCK_SITE("clause_store.proc"));

  auto [it, inserted] = procedures_.emplace(std::move(key), std::move(info));
  by_hash_[it->second.functor_hash] = &it->second;
  return &it->second;
}

ProcedureInfo* ClauseStore::FindByHash(uint64_t functor_hash) {
  std::shared_lock<obs::TrackedSharedMutex> latch(latch_);
  auto it = by_hash_.find(functor_hash);
  return it == by_hash_.end() ? nullptr : it->second;
}

uint64_t ClauseStore::AddMutationListener(MutationListener listener) {
  std::lock_guard<obs::TrackedMutex> lock(listeners_mu_);
  const uint64_t token = next_listener_token_++;
  mutation_listeners_[token] = std::move(listener);
  return token;
}

void ClauseStore::RemoveMutationListener(uint64_t token) {
  std::lock_guard<obs::TrackedMutex> lock(listeners_mu_);
  mutation_listeners_.erase(token);
}

void ClauseStore::NotifyMutation(ProcedureInfo* proc) {
  ++proc->version;
  // Fan out while the procedure latch is still held exclusively: a
  // reader can only latch in after the invalidation landed. Listeners
  // must not call back into the store (listeners_mu_ and the procedure
  // latch are both held here).
  std::lock_guard<obs::TrackedMutex> lock(listeners_mu_);
  for (const auto& [token, listener] : mutation_listeners_) {
    listener(*proc);
  }
}

ProcedureInfo* ClauseStore::Find(dict::SymbolId functor) {
  {
    std::shared_lock<obs::TrackedSharedMutex> lock(functor_cache_mu_);
    auto cached = by_functor_.find(functor);
    if (cached != by_functor_.end()) return cached->second;
  }
  if (!dictionary_->IsLive(functor)) return nullptr;
  ProcedureInfo* info = Find(dictionary_->NameOf(functor),
                             dictionary_->ArityOf(functor));
  if (info != nullptr) {
    std::lock_guard<obs::TrackedSharedMutex> lock(functor_cache_mu_);
    by_functor_[functor] = info;
  }
  return info;
}

ProcedureInfo* ClauseStore::Find(std::string_view name, uint32_t arity) {
  std::shared_lock<obs::TrackedSharedMutex> latch(latch_);
  auto it = procedures_.find(std::make_pair(std::string(name), arity));
  return it == procedures_.end() ? nullptr : &it->second;
}

base::Status ClauseStore::StoreFact(ProcedureInfo* proc,
                                    const term::Ast& fact) {
  if (proc->mode != ProcedureMode::kFacts) {
    return base::Status::InvalidArgument(proc->name + " is not a relation");
  }
  if (fact.arity() != proc->arity) {
    return base::Status::InvalidArgument("fact arity mismatch for " +
                                         proc->name);
  }
  // Every argument must be ground; only key attributes enter the key.
  for (const auto& arg : fact.args) {
    if (arg->kind == term::Ast::Kind::kVar) {
      return base::Status::InvalidArgument(
          "facts stored in a relation must be ground");
    }
  }
  std::vector<uint64_t> keys;
  if (proc->key_attrs.empty()) {
    keys.push_back(0);
  } else {
    for (uint32_t attr : proc->key_attrs) {
      keys.push_back(KeyOfGroundArg(*fact.args[attr], *dictionary_));
    }
  }
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::unique_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  // Encoding happens inside the exclusive hold: EncodeGroundTerm
  // Ensure()s fresh atoms into the external dictionary, which appends a
  // kWalDictEntry record and dirties dictionary pages — mutations that
  // must be fenced by WithMutationsBlocked's shared sweep, or an online
  // checkpoint could flush/serialize around them and Wal::Reset would
  // drop a dict record absent from the image.
  EDUCE_ASSIGN_OR_RETURN(std::string payload, codec_->EncodeGroundTerm(fact));
  if (wal_ != nullptr) {
    // Log-before-update: if the append fails the relation is untouched;
    // if the insert below fails the log carries a record whose effect
    // the process never observed — harmless, because recovery replays it
    // into a state no live session ever read.
    EDUCE_RETURN_IF_ERROR(
        wal_->Append(kWalFactRow, EncodeFactRowRecord(*proc, keys, payload))
            .status());
  }
  EDUCE_RETURN_IF_ERROR(proc->relation->Insert(keys, payload));
  NotifyMutation(proc);
  ++stats_.facts_stored;
  return base::Status::OK();
}

namespace {
/// Relative-code row header inside the per-procedure relation: just a
/// boolean "code" attribute (paper §4: "the code attribute is a boolean
/// value indicating whether compiled code is associated with the clause").
std::string RowFlag(bool has_code) {
  return std::string(1, has_code ? '\1' : '\0');
}
}  // namespace

base::Status ClauseStore::StoreRuleCompiled(ProcedureInfo* proc,
                                            const wam::ClauseCode& code) {
  if (proc->mode != ProcedureMode::kCompiledRules) {
    return base::Status::InvalidArgument(proc->name +
                                         " does not store compiled rules");
  }
  // Row key: first-argument type+value key (paper §3.2.2) + clause id.
  uint64_t arg_key = kVarRuleKey;
  switch (code.key.type) {
    case wam::IndexKey::Type::kVar:
      arg_key = kVarRuleKey;
      break;
    case wam::IndexKey::Type::kAtom: {
      ArgSummary s{ArgSummary::Kind::kAtom,
                   ExternalDictionary::HashOf(
                       dictionary_->NameOf(
                           static_cast<dict::SymbolId>(code.key.value)),
                       0)};
      arg_key = KeyOfSummary(s);
      break;
    }
    case wam::IndexKey::Type::kInt:
      arg_key = KeyOfSummary(ArgSummary{ArgSummary::Kind::kInt, code.key.value});
      break;
    case wam::IndexKey::Type::kFloat:
      arg_key =
          KeyOfSummary(ArgSummary{ArgSummary::Kind::kFloat, code.key.value});
      break;
    case wam::IndexKey::Type::kList:
      arg_key = kListKey;
      break;
    case wam::IndexKey::Type::kStruct: {
      const auto f = static_cast<dict::SymbolId>(code.key.value);
      arg_key = KeyOfSummary(
          ArgSummary{ArgSummary::Kind::kStruct,
                     ExternalDictionary::HashOf(dictionary_->NameOf(f),
                                                dictionary_->ArityOf(f))});
      break;
    }
  }
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::unique_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  // Inside the exclusive hold for the same reason as StoreFact:
  // EncodeClause Ensure()s operand symbols into the external dictionary,
  // and those WAL appends + page writes must be excluded by the
  // checkpoint fence.
  EDUCE_ASSIGN_OR_RETURN(std::string bytes, codec_->EncodeClause(code));
  const uint32_t clause_id = proc->next_clause_id++;
  if (wal_ != nullptr) {
    EDUCE_RETURN_IF_ERROR(
        wal_->Append(kWalRuleRow,
                     EncodeRuleRowRecord(*proc, arg_key, clause_id,
                                         /*has_code=*/true, bytes))
            .status());
  }
  EDUCE_RETURN_IF_ERROR(
      proc->relation->Insert({arg_key, clause_id}, RowFlag(true)));
  {
    std::unique_lock<obs::TrackedSharedMutex> clauses(clauses_mu_);
    EDUCE_RETURN_IF_ERROR(
        clauses_relation_->Insert({proc->functor_hash, clause_id}, bytes));
  }
  NotifyMutation(proc);
  ++stats_.rules_stored;
  return base::Status::OK();
}

base::Status ClauseStore::StoreRuleSource(ProcedureInfo* proc,
                                          std::string_view text) {
  if (proc->mode != ProcedureMode::kSourceRules) {
    return base::Status::InvalidArgument(proc->name +
                                         " does not store source rules");
  }
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::unique_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  const uint32_t clause_id = proc->next_clause_id++;
  if (wal_ != nullptr) {
    EDUCE_RETURN_IF_ERROR(
        wal_->Append(kWalRuleRow,
                     EncodeRuleRowRecord(*proc, kVarRuleKey, clause_id,
                                         /*has_code=*/false, text))
            .status());
  }
  // Source mode has no usable index key (paper: "poor selectivity ...
  // the interpreter retrieves all the clauses for the procedure").
  EDUCE_RETURN_IF_ERROR(
      proc->relation->Insert({kVarRuleKey, clause_id}, RowFlag(false)));
  {
    std::unique_lock<obs::TrackedSharedMutex> clauses(clauses_mu_);
    EDUCE_RETURN_IF_ERROR(clauses_relation_->Insert(
        {proc->functor_hash, clause_id}, std::string(text)));
  }
  NotifyMutation(proc);
  ++stats_.rules_stored;
  return base::Status::OK();
}

base::Result<bool> ClauseStore::PreUnify(std::string_view relative_code,
                                         const CallPattern& pattern) {
  // Stored-code layout (CodeCodec::EncodeClause): u32 num_perm, u8 env,
  // u8 key_type, u64 key, u32 count, then count * (u8 op, u8 a, u16 b,
  // u64 operand). We walk head get-instructions only.
  constexpr size_t kHeader = 4 + 1 + 1 + 8 + 4;
  constexpr size_t kInstr = 1 + 1 + 2 + 8;
  if (relative_code.size() < kHeader) {
    return base::Status::Corruption("short stored code");
  }
  uint32_t count;
  std::memcpy(&count, relative_code.data() + kHeader - 4, 4);
  if (relative_code.size() < kHeader + count * kInstr) {
    return base::Status::Corruption("short stored code");
  }

  for (uint32_t i = 0; i < count; ++i) {
    const char* p = relative_code.data() + kHeader + i * kInstr;
    const auto op = static_cast<wam::Opcode>(static_cast<uint8_t>(p[0]));
    const uint8_t a = static_cast<uint8_t>(p[1]);
    uint64_t operand;
    std::memcpy(&operand, p + 4, 8);

    if (a >= pattern.size() &&
        (op == wam::Opcode::kGetConstant || op == wam::Opcode::kGetInteger ||
         op == wam::Opcode::kGetFloat || op == wam::Opcode::kGetStructure ||
         op == wam::Opcode::kGetList)) {
      // get_* against a flattening temp register (nested structure):
      // beyond the top level; pre-unification stops refining here
      // (paper §4: "executing only the code corresponding to the highest
      // levels of nesting").
      continue;
    }

    switch (op) {
      case wam::Opcode::kAllocate:
      case wam::Opcode::kGetLevel:
      case wam::Opcode::kGetVariableX:
      case wam::Opcode::kGetVariableY:
      case wam::Opcode::kGetValueX:
      case wam::Opcode::kGetValueY:
      case wam::Opcode::kUnifyVariableX:
      case wam::Opcode::kUnifyVariableY:
      case wam::Opcode::kUnifyValueX:
      case wam::Opcode::kUnifyValueY:
      case wam::Opcode::kUnifyConstant:
      case wam::Opcode::kUnifyInteger:
      case wam::Opcode::kUnifyFloat:
      case wam::Opcode::kUnifyVoid:
        continue;  // no top-level information
      case wam::Opcode::kGetConstant: {
        const ArgSummary& s = pattern[a];
        if (s.kind == ArgSummary::Kind::kAny) continue;
        if (s.kind != ArgSummary::Kind::kAtom || s.value != operand) {
          return false;
        }
        continue;
      }
      case wam::Opcode::kGetInteger: {
        const ArgSummary& s = pattern[a];
        if (s.kind == ArgSummary::Kind::kAny) continue;
        if (s.kind != ArgSummary::Kind::kInt || s.value != operand) {
          return false;
        }
        continue;
      }
      case wam::Opcode::kGetFloat: {
        const ArgSummary& s = pattern[a];
        if (s.kind == ArgSummary::Kind::kAny) continue;
        if (s.kind != ArgSummary::Kind::kFloat || s.value != operand) {
          return false;
        }
        continue;
      }
      case wam::Opcode::kGetStructure: {
        const ArgSummary& s = pattern[a];
        if (s.kind == ArgSummary::Kind::kAny) continue;
        if (s.kind != ArgSummary::Kind::kStruct || s.value != operand) {
          return false;
        }
        continue;
      }
      case wam::Opcode::kGetList: {
        const ArgSummary& s = pattern[a];
        if (s.kind == ArgSummary::Kind::kAny ||
            s.kind == ArgSummary::Kind::kList) {
          continue;
        }
        return false;
      }
      default:
        // First body instruction: the head section is over.
        return true;
    }
  }
  return true;
}

base::Result<std::vector<std::string>> ClauseStore::FetchRules(
    ProcedureInfo* proc, const CallPattern* pattern, bool preunify) {
  EDUCE_ASSIGN_OR_RETURN(RuleFetch fetch,
                         FetchRulesDetailed(proc, pattern, preunify));
  return std::move(fetch.payloads);
}

base::Result<ClauseStore::RuleFetch> ClauseStore::FetchRulesDetailed(
    ProcedureInfo* proc, const CallPattern* pattern, bool preunify) {
  obs::ScopedSpan span(tracer_, obs::SpanKind::kClauseFetch,
                       proc->functor_hash);
  const auto start = std::chrono::steady_clock::now();
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::shared_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  auto result = FetchRulesDetailedLocked(proc, pattern, preunify);
  stats_.rule_fetch_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

base::Result<ClauseStore::RuleFetch> ClauseStore::FetchRulesDetailedLocked(
    ProcedureInfo* proc, const CallPattern* pattern, bool preunify) {
  if (proc->mode == ProcedureMode::kFacts) {
    return base::Status::InvalidArgument(proc->name + " is a fact relation");
  }

  // Step 1: candidate clause ids from the per-procedure relation. With a
  // bound first argument the relation's key prunes to {matching key} ∪
  // {variable-headed clauses}.
  std::vector<uint32_t> clause_ids;
  auto collect = [&](uint64_t arg_key) -> base::Status {
    auto cursor =
        proc->relation->OpenScan({arg_key, storage::kBangWildcard});
    storage::BangFile::Record record;
    while (cursor.Next(&record)) {
      ++stats_.rule_rows_scanned;
      clause_ids.push_back(static_cast<uint32_t>(record.keys[1]));
    }
    return cursor.status();
  };

  const bool first_arg_bound =
      pattern != nullptr && !pattern->empty() &&
      (*pattern)[0].kind != ArgSummary::Kind::kAny &&
      proc->mode == ProcedureMode::kCompiledRules;
  if (first_arg_bound) {
    const uint64_t key = KeyOfSummary((*pattern)[0]);
    EDUCE_RETURN_IF_ERROR(collect(key));
    if (key != kVarRuleKey) {
      EDUCE_RETURN_IF_ERROR(collect(kVarRuleKey));
    }
  } else {
    auto cursor = proc->relation->OpenScan(
        {storage::kBangWildcard, storage::kBangWildcard});
    storage::BangFile::Record record;
    while (cursor.Next(&record)) {
      ++stats_.rule_rows_scanned;
      clause_ids.push_back(static_cast<uint32_t>(record.keys[1]));
    }
    EDUCE_RETURN_IF_ERROR(cursor.status());
  }
  // Clause order is source order (clause ids are assigned sequentially).
  std::sort(clause_ids.begin(), clause_ids.end());

  // Step 2: ship each candidate's payload from the clauses relation,
  // running the pre-unification unit on the relative code first. The
  // procedure latch (held by the caller) keeps this pair of scans
  // consistent — a rule store inserts into both relations under the
  // exclusive side — so the shared clauses latch only orders us against
  // stores of *other* procedures.
  std::shared_lock<obs::TrackedSharedMutex> clauses_latch(clauses_mu_);
  RuleFetch out;
  auto admit = [&](uint32_t clause_id,
                   std::string&& payload) -> base::Status {
    if (preunify && pattern != nullptr &&
        proc->mode == ProcedureMode::kCompiledRules) {
      EDUCE_ASSIGN_OR_RETURN(bool may_match, PreUnify(payload, *pattern));
      if (!may_match) {
        ++stats_.preunify_filtered;
        return base::Status::OK();
      }
    }
    ++stats_.rule_codes_fetched;
    out.clause_ids.push_back(clause_id);
    out.payloads.push_back(std::move(payload));
    return base::Status::OK();
  };
  // When the candidates cover most of the procedure (unbound scans, weakly
  // selective keys), one wildcard scan over the code relation beats a
  // fresh point scan per clause — the fetch cost that used to dominate
  // the preunify bench. Point scans remain for selective fetches.
  if (clause_ids.size() >= 8 &&
      clause_ids.size() * 4 >= proc->next_clause_id) {
    std::vector<std::pair<uint32_t, std::string>> rows;
    rows.reserve(clause_ids.size());
    auto cursor = clauses_relation_->OpenScan(
        {proc->functor_hash, storage::kBangWildcard});
    storage::BangFile::Record record;
    while (cursor.Next(&record)) {
      const uint32_t clause_id = static_cast<uint32_t>(record.keys[1]);
      if (std::binary_search(clause_ids.begin(), clause_ids.end(),
                             clause_id)) {
        rows.emplace_back(clause_id, std::move(record.payload));
      }
    }
    EDUCE_RETURN_IF_ERROR(cursor.status());
    if (rows.size() != clause_ids.size()) {
      return base::Status::Corruption("clause row without code row");
    }
    // Scan order is physical, not clause order; restore source order.
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [clause_id, payload] : rows) {
      EDUCE_RETURN_IF_ERROR(admit(clause_id, std::move(payload)));
    }
  } else {
    for (uint32_t clause_id : clause_ids) {
      auto cursor =
          clauses_relation_->OpenScan({proc->functor_hash, clause_id});
      storage::BangFile::Record record;
      if (!cursor.Next(&record)) {
        EDUCE_RETURN_IF_ERROR(cursor.status());
        return base::Status::Corruption("clause row without code row");
      }
      EDUCE_RETURN_IF_ERROR(admit(clause_id, std::move(record.payload)));
    }
  }
  // Snapshot the version the payloads were read at while still latched:
  // a mutator cannot have intervened between the scan and this read.
  out.version = proc->version;
  return out;
}

base::Result<std::vector<ClauseStore::FactRow>> ClauseStore::CollectFacts(
    ProcedureInfo* proc, const CallPattern& pattern) {
  if (proc->mode != ProcedureMode::kFacts) {
    return base::Status::InvalidArgument(proc->name + " is not a relation");
  }
  std::vector<uint64_t> keys;
  if (proc->key_attrs.empty()) {
    keys.push_back(storage::kBangWildcard);
  } else {
    for (uint32_t attr : proc->key_attrs) {
      keys.push_back(KeyOfSummary(pattern[attr]));
    }
  }
  obs::ScopedSpan span(tracer_, obs::SpanKind::kFactFetch,
                       proc->functor_hash);
  // One shared hold of the procedure latch across the whole drain: a
  // concurrent insert could split buckets and relocate records under the
  // cursor otherwise. Other procedures' mutators proceed in parallel.
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::shared_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  // Pre-unify in the page only when an argument is bound: an open call
  // would pay the walk on every row for nothing. Rejects are tallied
  // locally and published once, after the drain.
  storage::BangFile::RowFilter filter;
  uint64_t filtered = 0;
  if (std::any_of(pattern.begin(), pattern.end(), [](const ArgSummary& s) {
        return s.kind != ArgSummary::Kind::kAny;
      })) {
    filter = [&pattern, &filtered](std::string_view payload) {
      if (FactRowMayMatch(payload, pattern)) return true;
      ++filtered;
      return false;
    };
  }
  auto cursor = proc->relation->OpenScan(keys, std::move(filter));
  std::vector<FactRow> out;
  storage::BangFile::Record record;
  while (cursor.Next(&record)) {
    out.push_back(FactRow{record.payload, record.rid});
  }
  stats_.fact_rows_fetched += out.size();
  stats_.fact_rows_filtered += filtered;
  EDUCE_RETURN_IF_ERROR(cursor.status());
  return out;
}

base::Result<uint64_t> ClauseStore::ScanAllFacts(ProcedureInfo* proc,
                                                 const FactSink& sink) {
  if (proc->mode != ProcedureMode::kFacts) {
    return base::Status::InvalidArgument(proc->name + " is not a relation");
  }
  std::vector<uint64_t> keys;
  if (proc->key_attrs.empty()) {
    keys.push_back(storage::kBangWildcard);
  } else {
    keys.assign(proc->key_attrs.size(), storage::kBangWildcard);
  }
  obs::ScopedSpan span(tracer_, obs::SpanKind::kFactFetch,
                       proc->functor_hash);
  ++stats_.bulk_fact_scans;
  // One shared hold across the whole drain, like CollectFacts — the
  // version snapshot below is only meaningful if no mutator interleaves.
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::shared_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  auto cursor = proc->relation->OpenScan(keys);
  storage::BangFile::Record record;
  while (cursor.Next(&record)) {
    ++stats_.bulk_fact_rows;
    EDUCE_ASSIGN_OR_RETURN(term::AstPtr fact,
                           codec_->DecodeTerm(record.payload));
    EDUCE_RETURN_IF_ERROR(sink(*fact));
  }
  EDUCE_RETURN_IF_ERROR(cursor.status());
  return proc->version.load();
}

base::Status ClauseStore::DeleteFact(ProcedureInfo* proc,
                                     storage::RecordId rid) {
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::unique_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  // Unlike inserts, the delete applies *before* it is logged: Delete can
  // legitimately fail (a raced rid — edb_retract tolerates NotFound), and
  // a pre-logged record for a delete that never happened would fail
  // replay. The flipped order is safe because pages only reach the image
  // at a checkpoint, which absorbs every record appended up to that
  // instant; a crash between apply and append merely loses an unacked
  // delete.
  EDUCE_RETURN_IF_ERROR(proc->relation->Delete(rid));
  if (wal_ != nullptr) {
    EDUCE_RETURN_IF_ERROR(
        wal_->Append(kWalDeleteRow, EncodeDeleteRowRecord(*proc, rid))
            .status());
  }
  NotifyMutation(proc);
  return base::Status::OK();
}

std::string ClauseStore::SerializeCatalog() const {
  // No latches: the caller guarantees quiescence (single-threaded boot/
  // close, or the WithMutationsBlocked checkpoint scope which already
  // holds every latch shared).
  std::string out;
  PutPod<uint32_t>(&out, static_cast<uint32_t>(procedures_.size()));
  for (const auto& [key, info] : procedures_) {
    PutBytes(&out, info.name);
    PutPod<uint32_t>(&out, info.arity);
    PutPod<uint8_t>(&out, static_cast<uint8_t>(info.mode));
    PutPod<uint64_t>(&out, info.functor_hash);
    PutPod<uint32_t>(&out, static_cast<uint32_t>(info.key_attrs.size()));
    for (uint32_t attr : info.key_attrs) PutPod<uint32_t>(&out, attr);
    PutPod<uint32_t>(&out, info.next_clause_id);
    PutPod<uint64_t>(&out, info.version);
    PutBytes(&out, info.relation->SerializeState());
  }
  PutBytes(&out, clauses_relation_->SerializeState());
  return out;
}

base::Status ClauseStore::RestoreCatalog(std::string_view state) {
  std::unique_lock<obs::TrackedSharedMutex> latch(latch_);
  CatalogReader reader(state);
  const uint32_t proc_count = reader.Pod<uint32_t>();
  if (!reader.ok() || proc_count > 1u << 20) {
    return base::Status::Corruption("bad catalog header");
  }

  // Build the replacement catalog fully before swapping it in, so a
  // corrupt tail leaves the store in its pre-call (fresh) state.
  std::map<std::pair<std::string, uint32_t>, ProcedureInfo> procedures;
  for (uint32_t i = 0; i < proc_count; ++i) {
    ProcedureInfo info;
    info.name = std::string(reader.Bytes());
    info.arity = reader.Pod<uint32_t>();
    const uint8_t mode = reader.Pod<uint8_t>();
    if (mode > static_cast<uint8_t>(ProcedureMode::kSourceRules)) {
      return base::Status::Corruption("bad procedure mode in catalog");
    }
    info.mode = static_cast<ProcedureMode>(mode);
    info.functor_hash = reader.Pod<uint64_t>();
    const uint32_t key_attr_count = reader.Pod<uint32_t>();
    if (!reader.ok() || key_attr_count > 16) {
      return base::Status::Corruption("bad catalog key attributes");
    }
    for (uint32_t k = 0; k < key_attr_count; ++k) {
      info.key_attrs.push_back(reader.Pod<uint32_t>());
    }
    info.next_clause_id = reader.Pod<uint32_t>();
    info.version = reader.Pod<uint64_t>();
    std::string_view rel_state = reader.Bytes();
    if (!reader.ok()) {
      return base::Status::Corruption("truncated catalog entry");
    }
    EDUCE_ASSIGN_OR_RETURN(storage::BangFile relation,
                           storage::BangFile::Open(pool_, rel_state));
    info.relation = std::make_unique<storage::BangFile>(std::move(relation));
    info.latch = std::make_unique<obs::TrackedSharedMutex>(
        EDUCE_LOCK_SITE("clause_store.proc"));
    auto key = std::make_pair(info.name, info.arity);
    if (!procedures.emplace(std::move(key), std::move(info)).second) {
      return base::Status::Corruption("duplicate procedure in catalog");
    }
  }
  std::string_view clauses_state = reader.Bytes();
  if (!reader.AtEnd()) {
    return base::Status::Corruption("trailing bytes in catalog");
  }
  EDUCE_ASSIGN_OR_RETURN(storage::BangFile clauses,
                         storage::BangFile::Open(pool_, clauses_state));

  procedures_ = std::move(procedures);
  clauses_relation_ =
      std::make_unique<storage::BangFile>(std::move(clauses));
  {
    std::lock_guard<obs::TrackedSharedMutex> lock(functor_cache_mu_);
    by_functor_.clear();
  }
  by_hash_.clear();
  for (auto& [key, info] : procedures_) {
    by_hash_[info.functor_hash] = &info;
  }
  return base::Status::OK();
}

base::Status ClauseStore::ApplyWalRecord(uint8_t type,
                                         std::string_view payload) {
  // Recovery runs before any session exists, but the latches are cheap
  // and taking them keeps the invariants uniform (and TSan quiet if a
  // future caller replays concurrently by mistake).
  CatalogReader reader(payload);
  if (type == kWalDeclare) {
    std::string name(reader.Bytes());
    const uint32_t arity = reader.Pod<uint32_t>();
    const uint8_t mode = reader.Pod<uint8_t>();
    const uint32_t key_attr_count = reader.Pod<uint32_t>();
    if (!reader.ok() || key_attr_count > 16 ||
        mode > static_cast<uint8_t>(ProcedureMode::kSourceRules)) {
      return base::Status::Corruption("bad WAL declare record");
    }
    std::vector<uint32_t> key_attrs;
    for (uint32_t i = 0; i < key_attr_count; ++i) {
      key_attrs.push_back(reader.Pod<uint32_t>());
    }
    if (!reader.AtEnd()) {
      return base::Status::Corruption("trailing bytes in WAL declare");
    }
    std::unique_lock<obs::TrackedSharedMutex> latch(latch_);
    auto declared = DeclareLocked(name, arity,
                                  static_cast<ProcedureMode>(mode),
                                  std::move(key_attrs));
    // AlreadyExists is expected: the declare may have reached the image
    // via a checkpoint whose WAL truncation raced the crash.
    if (!declared.ok() && !declared.status().IsAlreadyExists()) {
      return declared.status();
    }
    return base::Status::OK();
  }

  if (type == kWalDictEntry) {
    // Row payloads embed atom hashes; the entries resolving them were
    // logged ahead of the rows (lower LSNs), so re-Ensuring here lands
    // before any replayed row needs the name. Idempotent by design.
    if (payload.size() < sizeof(uint32_t)) {
      return base::Status::Corruption("bad WAL dictionary record");
    }
    uint32_t entry_arity;
    std::memcpy(&entry_arity, payload.data(), sizeof(entry_arity));
    return external_->Ensure(payload.substr(sizeof(entry_arity)), entry_arity)
        .status();
  }

  // Row records lead with a procedure reference.
  std::string name(reader.Bytes());
  const uint32_t arity = reader.Pod<uint32_t>();
  if (!reader.ok()) return base::Status::Corruption("bad WAL row record");
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  auto it = procedures_.find(std::make_pair(name, arity));
  if (it == procedures_.end()) {
    return base::Status::Corruption("WAL row for unknown procedure " + name +
                                    "/" + std::to_string(arity));
  }
  ProcedureInfo* proc = &it->second;
  std::unique_lock<obs::TrackedSharedMutex> latch(*proc->latch);
  switch (type) {
    case kWalFactRow: {
      const uint32_t nkeys = reader.Pod<uint32_t>();
      if (!reader.ok() || nkeys > 16) {
        return base::Status::Corruption("bad WAL fact record");
      }
      std::vector<uint64_t> keys;
      for (uint32_t i = 0; i < nkeys; ++i) {
        keys.push_back(reader.Pod<uint64_t>());
      }
      std::string_view row = reader.Bytes();
      if (!reader.AtEnd()) {
        return base::Status::Corruption("trailing bytes in WAL fact");
      }
      EDUCE_RETURN_IF_ERROR(proc->relation->Insert(keys, row));
      ++stats_.facts_stored;
      break;
    }
    case kWalRuleRow: {
      const uint64_t arg_key = reader.Pod<uint64_t>();
      const uint32_t clause_id = reader.Pod<uint32_t>();
      const uint8_t has_code = reader.Pod<uint8_t>();
      std::string_view row = reader.Bytes();
      if (!reader.AtEnd() || has_code > 1) {
        return base::Status::Corruption("bad WAL rule record");
      }
      EDUCE_RETURN_IF_ERROR(
          proc->relation->Insert({arg_key, clause_id}, RowFlag(has_code)));
      {
        std::unique_lock<obs::TrackedSharedMutex> clauses(clauses_mu_);
        EDUCE_RETURN_IF_ERROR(clauses_relation_->Insert(
            {proc->functor_hash, clause_id}, row));
      }
      if (clause_id >= proc->next_clause_id) {
        proc->next_clause_id = clause_id + 1;
      }
      ++stats_.rules_stored;
      break;
    }
    case kWalDeleteRow: {
      storage::RecordId rid;
      rid.page = reader.Pod<uint32_t>();
      rid.slot = reader.Pod<uint16_t>();
      if (!reader.AtEnd()) {
        return base::Status::Corruption("bad WAL delete record");
      }
      // Delete records are logged only after the delete succeeded, so a
      // replay miss means the log and image disagree.
      EDUCE_RETURN_IF_ERROR(proc->relation->Delete(rid));
      break;
    }
    default:
      return base::Status::Corruption("unknown WAL record type " +
                                      std::to_string(type));
  }
  // Bump the version and notify listeners as a live write does, so replay
  // leaves the same version and listener state as the run that logged it.
  NotifyMutation(proc);
  return base::Status::OK();
}

base::Status ClauseStore::WithMutationsBlocked(
    const std::function<base::Status()>& fn) {
  // Everything is taken *shared*: mutators need some exclusive latch for
  // any change, so holding every latch shared freezes the store while
  // reader sessions keep running through the same shared modes. Procedure
  // latches are acquired in catalog (map) order — the same order any
  // future multi-procedure holder must use.
  std::shared_lock<obs::TrackedSharedMutex> catalog(latch_);
  std::vector<std::shared_lock<obs::TrackedSharedMutex>> latches;
  latches.reserve(procedures_.size());
  for (auto& [key, info] : procedures_) {
    latches.emplace_back(*info.latch);
  }
  std::shared_lock<obs::TrackedSharedMutex> clauses(clauses_mu_);
  return fn();
}

}  // namespace educe::edb
