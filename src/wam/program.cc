#include "wam/program.h"

#include <algorithm>
#include <cassert>

namespace educe::wam {

base::Result<uint32_t> BuiltinTable::Register(std::string_view name,
                                              uint32_t arity, BuiltinFn fn) {
  EDUCE_ASSIGN_OR_RETURN(dict::SymbolId functor,
                         dictionary_->Intern(name, arity));
  if (by_functor_.count(functor)) {
    return base::Status::AlreadyExists("builtin " + std::string(name) + "/" +
                                       std::to_string(arity));
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.push_back(Entry{std::string(name), arity, std::move(fn)});
  by_functor_[functor] = id;
  return id;
}

std::optional<uint32_t> BuiltinTable::Find(dict::SymbolId functor) const {
  auto it = by_functor_.find(functor);
  if (it == by_functor_.end()) return std::nullopt;
  return it->second;
}

std::optional<uint32_t> BuiltinTable::FindByName(std::string_view name,
                                                uint32_t arity) const {
  // Linear scan: only tooling (educe-asm) resolves builtins by name.
  for (size_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id].arity == arity && entries_[id].name == name) {
      return static_cast<uint32_t>(id);
    }
  }
  return std::nullopt;
}

std::shared_ptr<const LinkedCode> LinkProcedure(
    dict::SymbolId functor, uint32_t arity,
    const std::vector<std::shared_ptr<const ClauseCode>>& clauses,
    bool indexing, bool fuse) {
  auto linked = std::make_shared<LinkedCode>();
  linked->functor = functor;
  linked->arity = arity;

  if (clauses.empty()) {
    linked->code.push_back(Instruction::Make(Opcode::kFail));
    return linked;
  }

  // Plan layout: [dispatch region][clause 0][clause 1]...
  // The dispatch region size depends on what we emit, so clause offsets
  // are patched after emission. Strategy: emit dispatch with clause
  // indices as placeholders (c = index), record fixups, then append
  // clause code and patch.
  std::vector<Instruction>& code = linked->code;
  std::vector<size_t> fixups;  // instruction positions whose c is a clause index

  const bool use_indexing = indexing && arity > 0 && clauses.size() > 1;

  auto emit_chain_indices = [&](const std::vector<uint32_t>& idxs) -> uint32_t {
    assert(!idxs.empty());
    if (idxs.size() == 1) {
      // Single candidate: emit a jump placeholder (patched to the clause
      // offset) so table targets can reference it uniformly... direct
      // clause offsets are patched via a sentinel scheme below instead.
      const uint32_t at = static_cast<uint32_t>(code.size());
      code.push_back(Instruction::Make(Opcode::kJump, 1 /*clause-index flag*/,
                                       0, idxs[0]));
      fixups.push_back(at);
      return at;
    }
    const uint32_t entry = static_cast<uint32_t>(code.size());
    for (size_t i = 0; i < idxs.size(); ++i) {
      Opcode op = i == 0 ? Opcode::kTry
                         : (i + 1 == idxs.size() ? Opcode::kTrust
                                                 : Opcode::kRetry);
      const uint32_t at = static_cast<uint32_t>(code.size());
      code.push_back(Instruction::Make(op, 1, 0, idxs[i]));
      fixups.push_back(at);
    }
    return entry;
  };

  if (!use_indexing) {
    std::vector<uint32_t> all(clauses.size());
    for (uint32_t i = 0; i < clauses.size(); ++i) all[i] = i;
    emit_chain_indices(all);
  } else {
    // Candidate lists per first-argument type/value. Clauses whose first
    // head argument is a variable match every bucket.
    std::vector<uint32_t> var_clauses, all_clauses;
    std::vector<uint32_t> atom_any, num_any, list_any, struct_any;
    // value-keyed groups preserve source order: collect per clause.
    struct ValueGroups {
      std::vector<uint64_t> order;  // first-seen key order
      std::unordered_map<uint64_t, std::vector<uint32_t>> members;
      void Add(uint64_t key, uint32_t clause) {
        auto [it, inserted] = members.try_emplace(key);
        if (inserted) order.push_back(key);
        it->second.push_back(clause);
      }
    };
    ValueGroups atoms, numbers, structs;

    for (uint32_t i = 0; i < clauses.size(); ++i) {
      const IndexKey& key = clauses[i]->key;
      all_clauses.push_back(i);
      switch (key.type) {
        case IndexKey::Type::kVar:
          var_clauses.push_back(i);
          atom_any.push_back(i);
          num_any.push_back(i);
          list_any.push_back(i);
          struct_any.push_back(i);
          // Var clauses join every existing and future value group; handled
          // by merging below.
          break;
        case IndexKey::Type::kAtom:
          atom_any.push_back(i);
          atoms.Add(key.value, i);
          break;
        case IndexKey::Type::kInt:
        case IndexKey::Type::kFloat:
          num_any.push_back(i);
          numbers.Add(key.value, i);
          break;
        case IndexKey::Type::kList:
          list_any.push_back(i);
          break;
        case IndexKey::Type::kStruct:
          struct_any.push_back(i);
          structs.Add(key.value, i);
          break;
      }
    }

    // Merge variable clauses into each value group, restoring source order.
    auto merged = [&](const std::vector<uint32_t>& group) {
      std::vector<uint32_t> out;
      out.reserve(group.size() + var_clauses.size());
      std::merge(group.begin(), group.end(), var_clauses.begin(),
                 var_clauses.end(), std::back_inserter(out));
      return out;
    };

    // Dispatch region. Instruction 0: switch_on_term.
    linked->tables.emplace_back();
    const uint32_t term_table = 0;
    code.push_back(
        Instruction::Make(Opcode::kSwitchOnTerm, 0, 0, term_table));

    auto chain_or_fail = [&](const std::vector<uint32_t>& idxs) -> uint32_t {
      if (idxs.empty()) return kFailTarget;
      return emit_chain_indices(idxs);
    };

    // Type with per-value dispatch: emit a second-level switch whose
    // entries point at per-value chains.
    auto value_switch = [&](Opcode op, const ValueGroups& groups) -> uint32_t {
      if (groups.order.empty()) {
        // Only var clauses can match.
        return chain_or_fail(var_clauses);
      }
      const uint32_t table_id = static_cast<uint32_t>(linked->tables.size());
      linked->tables.emplace_back();
      const uint32_t entry = static_cast<uint32_t>(code.size());
      code.push_back(Instruction::Make(op, 0, 0, table_id));
      for (uint64_t key : groups.order) {
        const uint32_t target = chain_or_fail(merged(groups.members.at(key)));
        linked->tables[table_id].entries[key] = target;
      }
      linked->tables[table_id].default_target = chain_or_fail(var_clauses);
      return entry;
    };

    // NOTE: the *_any lists already contain the variable-headed clauses in
    // source order (see loop above), so they are used directly; merged()
    // is only for the per-value groups, which exclude them.
    (void)atom_any;
    (void)num_any;
    (void)struct_any;
    // Compute all targets before touching tables[term_table]: value_switch
    // grows the tables vector, invalidating references into it.
    const uint32_t on_var = chain_or_fail(all_clauses);
    const uint32_t on_atom = value_switch(Opcode::kSwitchOnConstant, atoms);
    const uint32_t on_number = value_switch(Opcode::kSwitchOnInteger, numbers);
    const uint32_t on_list = chain_or_fail(list_any);
    const uint32_t on_struct =
        value_switch(Opcode::kSwitchOnStructure, structs);
    SwitchTable& term = linked->tables[term_table];
    term.on_var = on_var;
    term.on_atom = on_atom;
    term.on_number = on_number;
    term.on_list = on_list;
    term.on_struct = on_struct;
  }

  // Append clause bodies and patch clause-index placeholders.
  std::vector<uint32_t> clause_offsets(clauses.size());
  for (size_t i = 0; i < clauses.size(); ++i) {
    clause_offsets[i] = static_cast<uint32_t>(code.size());
    linked->clause_offsets.push_back(clause_offsets[i]);
    code.insert(code.end(), clauses[i]->code.begin(), clauses[i]->code.end());
  }
  for (size_t at : fixups) {
    code[at].c = clause_offsets[code[at].c];
    code[at].a = 0;
  }
  // Patch switch-table targets that reference dispatch-region entries: all
  // were emitted before clause code, so only fixups needed the patch.

  // Superinstruction pass last, over the fully patched stream: it only
  // rewrites opcode bytes in place (the second slot of each pair stays
  // intact), so every table target and fixup above remains valid.
  if (fuse) FuseSuperinstructions(&linked->code, linked->clause_offsets);

  return linked;
}

Program::Program(dict::Dictionary* dictionary)
    : dictionary_(dictionary),
      owned_builtins_(std::make_unique<BuiltinTable>(dictionary)),
      builtins_(owned_builtins_.get()),
      compiler_(dictionary, builtins_, &aux_counter_) {}

Program::Program(dict::Dictionary* dictionary, Program* base)
    : dictionary_(dictionary),
      base_(base),
      builtins_(base->builtins_),
      compiler_(dictionary, builtins_, &aux_counter_),
      indexing_enabled_(base->indexing_enabled_),
      fusion_enabled_(base->fusion_enabled_) {}

base::Status Program::AddClause(const term::AstPtr& clause, bool front) {
  EDUCE_ASSIGN_OR_RETURN(std::vector<CompiledClause> compiled,
                         compiler_.Compile(clause));
  bool main = true;
  for (auto& c : compiled) {
    // Only the user's clause honours `front`; aux clauses append.
    EDUCE_RETURN_IF_ERROR(AddCompiled(std::move(c), main && front));
    main = false;
  }
  return base::Status::OK();
}

base::Status Program::AddClauses(const std::vector<term::AstPtr>& clauses) {
  for (const auto& clause : clauses) {
    EDUCE_RETURN_IF_ERROR(AddClause(clause));
  }
  return base::Status::OK();
}

base::Status Program::AddCompiled(CompiledClause compiled, bool front) {
  if (builtins_->Find(compiled.functor)) {
    return base::Status::InvalidArgument(
        "cannot add clauses to builtin " +
        std::string(dictionary_->NameOf(compiled.functor)) + "/" +
        std::to_string(compiled.arity));
  }
  // Copy-on-write: adding to a base-resident procedure first shadows it
  // locally so the shared base program is never mutated.
  Proc* existing = LocalProcForWrite(compiled.functor);
  Proc& proc = existing != nullptr ? *existing : procs_[compiled.functor];
  proc.functor = compiled.functor;
  proc.arity = compiled.arity;
  proc.erased = false;
  StoredClause stored{
      std::make_shared<const ClauseCode>(std::move(compiled.code)),
      std::move(compiled.source)};
  if (front) {
    proc.clauses.insert(proc.clauses.begin(), std::move(stored));
  } else {
    proc.clauses.push_back(std::move(stored));
  }
  proc.linked = nullptr;  // dirty
  ++stats_.clauses_added;
  return base::Status::OK();
}

Program::Proc* Program::LocalProcForWrite(dict::SymbolId functor) {
  auto it = procs_.find(functor);
  if (it != procs_.end()) return it->second.erased ? nullptr : &it->second;
  if (base_ != nullptr) {
    if (const Proc* base_proc = base_->Find(functor)) {
      return &(procs_[functor] = *base_proc);
    }
  }
  return nullptr;
}

base::Status Program::EraseProcedure(dict::SymbolId functor) {
  if (Find(functor) == nullptr) {
    return base::Status::NotFound("no such procedure");
  }
  procs_.erase(functor);
  if (base_ != nullptr && base_->Find(functor) != nullptr) {
    // The base cannot be touched: install an erased local shadow so the
    // procedure is undefined here while other sessions still see the
    // base's clauses.
    Proc& shadow = procs_[functor];
    shadow.functor = functor;
    shadow.arity = dictionary_->ArityOf(functor);
    shadow.erased = true;
  }
  return base::Status::OK();
}

base::Status Program::EraseClause(dict::SymbolId functor, size_t index) {
  Proc* proc = LocalProcForWrite(functor);
  if (proc == nullptr || index >= proc->clauses.size()) {
    return base::Status::NotFound("no such clause");
  }
  proc->clauses.erase(proc->clauses.begin() + static_cast<long>(index));
  proc->linked = nullptr;
  ++stats_.retracts;
  return base::Status::OK();
}

void Program::DeclareDynamic(dict::SymbolId functor) {
  Proc* existing = LocalProcForWrite(functor);
  Proc& proc = existing != nullptr ? *existing : procs_[functor];
  proc.functor = functor;
  proc.arity = dictionary_->ArityOf(functor);
  proc.erased = false;
  proc.is_dynamic = true;
}

void Program::ForEachProc(const std::function<void(const Proc&)>& fn) const {
  for (const auto& [functor, proc] : procs_) fn(proc);
}

const Program::Proc* Program::Find(dict::SymbolId functor) const {
  auto it = procs_.find(functor);
  if (it != procs_.end()) return it->second.erased ? nullptr : &it->second;
  return base_ != nullptr ? base_->Find(functor) : nullptr;
}

base::Result<std::shared_ptr<const LinkedCode>> Program::Linked(
    dict::SymbolId functor) {
  auto it = procs_.find(functor);
  Proc* proc = nullptr;
  if (it != procs_.end()) {
    if (!it->second.erased) proc = &it->second;
  } else if (base_ != nullptr) {
    if (const Proc* base_proc = base_->Find(functor)) {
      if (base_proc->linked != nullptr) return base_proc->linked;
      // The base was not frozen for this procedure. Shadow-copy and link
      // locally rather than writing into the shared base.
      proc = &(procs_[functor] = *base_proc);
    }
  }
  if (proc == nullptr) {
    return base::Status::NotFound("undefined procedure");
  }
  if (proc->linked == nullptr) {
    std::vector<std::shared_ptr<const ClauseCode>> codes;
    codes.reserve(proc->clauses.size());
    for (const auto& clause : proc->clauses) codes.push_back(clause.code);
    proc->linked = LinkProcedure(functor, proc->arity, codes,
                                 indexing_enabled_, fusion_enabled_);
    ++stats_.links_performed;
  }
  return proc->linked;
}

void Program::LinkAll() {
  for (auto& [functor, proc] : procs_) {
    if (proc.linked != nullptr) continue;
    std::vector<std::shared_ptr<const ClauseCode>> codes;
    codes.reserve(proc.clauses.size());
    for (const auto& clause : proc.clauses) codes.push_back(clause.code);
    proc.linked = LinkProcedure(functor, proc.arity, codes, indexing_enabled_,
                                fusion_enabled_);
    ++stats_.links_performed;
  }
}

void Program::FoldIntoBase() {
  if (procs_.empty()) return;
  for (auto& [functor, proc] : procs_) {
    if (proc.erased) {
      base_->procs_.erase(functor);
    } else {
      base_->procs_[functor] = std::move(proc);
    }
  }
  procs_.clear();
}

void Program::SetIndexingEnabled(bool enabled) {
  if (enabled == indexing_enabled_) return;
  indexing_enabled_ = enabled;
  for (auto& [functor, proc] : procs_) proc.linked = nullptr;
}

void Program::SetFusionEnabled(bool enabled) {
  if (enabled == fusion_enabled_) return;
  fusion_enabled_ = enabled;
  for (auto& [functor, proc] : procs_) proc.linked = nullptr;
}

void CollectLinkedSymbols(const LinkedCode& linked,
                          std::set<dict::SymbolId>* out) {
  if (linked.functor != dict::kInvalidSymbol) out->insert(linked.functor);
  CollectSymbols(linked.code, out);
  // Constant/structure switch tables key on SymbolIds. Every key also
  // appears as an operand of the clause it dispatches to, but walking the
  // tables keeps retention independent of that linker invariant. Integer
  // tables key on immediate bits and must not be walked.
  for (const Instruction& ins : linked.code) {
    if (ins.op != Opcode::kSwitchOnConstant &&
        ins.op != Opcode::kSwitchOnStructure) {
      continue;
    }
    for (const auto& [key, target] : linked.tables[ins.c].entries) {
      out->insert(static_cast<dict::SymbolId>(key));
    }
  }
}

size_t LinkedCodeBytes(const LinkedCode& linked) {
  size_t bytes = sizeof(LinkedCode);
  bytes += linked.code.capacity() * sizeof(Instruction);
  bytes += linked.clause_offsets.capacity() * sizeof(uint32_t);
  for (const SwitchTable& table : linked.tables) {
    bytes += sizeof(SwitchTable);
    // unordered_map node ≈ key/value pair + bucket/link overhead.
    bytes += table.entries.size() *
             (sizeof(uint64_t) + sizeof(uint32_t) + 2 * sizeof(void*));
  }
  return bytes;
}

namespace {
void CollectAstSymbols(const term::Ast& t, std::set<dict::SymbolId>* out) {
  if (t.kind == term::Ast::Kind::kAtom || t.kind == term::Ast::Kind::kStruct) {
    out->insert(t.functor);
  }
  for (const auto& arg : t.args) CollectAstSymbols(*arg, out);
}
}  // namespace

void Program::CollectReferencedSymbols(std::set<dict::SymbolId>* out) const {
  for (const auto& [functor, proc] : procs_) {
    out->insert(functor);
    for (const StoredClause& clause : proc.clauses) {
      CollectSymbols(clause.code->code, out);
      if (clause.code->key.type == IndexKey::Type::kAtom ||
          clause.code->key.type == IndexKey::Type::kStruct) {
        out->insert(static_cast<dict::SymbolId>(clause.code->key.value));
      }
      if (clause.source != nullptr) CollectAstSymbols(*clause.source, out);
    }
  }
  for (dict::SymbolId functor : builtins_->RegisteredFunctors()) {
    out->insert(functor);
  }
}

base::Result<dict::SymbolId> Program::FreshFunctor(std::string_view prefix,
                                                   uint32_t arity) {
  std::string name(prefix);
  name += std::to_string(aux_counter_++);
  return dictionary_->Intern(name, arity);
}

}  // namespace educe::wam
