#include "edb/resolver.h"

#include <vector>

#include "base/stopwatch.h"
#include "reader/parser.h"

namespace educe::edb {

namespace {

/// Enumerates pre-fetched matching fact rows, decoding each straight onto
/// the heap and unifying its arguments against the saved argument
/// registers. Collecting all candidates up front is the paper's
/// "deterministic procedure to collect all the clauses for the wanted
/// predicate, at once" (§3.2.1); it also groups the EDB reads together.
class FactGenerator : public wam::Generator {
 public:
  FactGenerator(std::vector<ClauseStore::FactRow> rows, uint32_t arity,
                CodeCodec* codec)
      : rows_(std::move(rows)), arity_(arity), codec_(codec) {}

  base::Result<bool> Next(wam::Machine* machine) override {
    while (next_ < rows_.size()) {
      const ClauseStore::FactRow& row = rows_[next_++];
      const size_t mark = machine->TrailMark();
      EDUCE_ASSIGN_OR_RETURN(term::Cell fact,
                             codec_->DecodeOntoHeap(row.payload, machine));
      bool ok = true;
      if (arity_ > 0) {
        // A structure's arguments follow its functor cell; a '.'/2 row
        // decodes to a list cell, whose two arguments start at its address.
        const uint64_t args =
            fact.tag() == term::Tag::kLis ? fact.addr() : fact.addr() + 1;
        for (uint32_t i = 0; i < arity_ && ok; ++i) {
          ok = machine->Unify(machine->X(i), machine->HeapAt(args + i));
        }
      }
      if (ok) return true;
      machine->UndoTo(mark);
    }
    return false;
  }

 private:
  std::vector<ClauseStore::FactRow> rows_;
  uint32_t arity_;
  CodeCodec* codec_;
  size_t next_ = 0;
};

}  // namespace

base::Result<wam::ExternalResolver::Resolution> EdbResolver::ResolveFacts(
    ProcedureInfo* proc, uint32_t arity, wam::Machine* machine) {
  ++stats_.fact_calls;
  const CallPattern pattern = PatternFromCall(machine, arity);
  // CollectFacts drains the scan under one read-latch hold, so a
  // concurrent edb_assert in another session cannot split buckets and
  // relocate records under the cursor mid-drain.
  EDUCE_ASSIGN_OR_RETURN(std::vector<ClauseStore::FactRow> rows,
                         store_->CollectFacts(proc, pattern));

  Resolution resolution;
  if (rows.empty() && options_.choice_point_elimination) {
    ++stats_.fact_calls_deterministic;
    resolution.kind = Resolution::Kind::kFail;
    return resolution;
  }
  resolution.kind = Resolution::Kind::kGenerator;
  resolution.at_most_one =
      options_.choice_point_elimination && rows.size() <= 1;
  if (resolution.at_most_one) ++stats_.fact_calls_deterministic;
  resolution.generator = std::make_unique<FactGenerator>(
      std::move(rows), arity, store_->codec());
  return resolution;
}

base::Result<wam::ExternalResolver::Resolution> EdbResolver::ResolveCompiled(
    ProcedureInfo* proc, dict::SymbolId functor, uint32_t arity,
    wam::Machine* machine) {
  ++stats_.rule_loads;
  Resolution resolution;
  resolution.kind = Resolution::Kind::kCode;
  if (options_.loader_cache) {
    EDUCE_ASSIGN_OR_RETURN(resolution.code, loader_->Load(proc, functor));
  } else {
    const CallPattern pattern = PatternFromCall(machine, arity);
    EDUCE_ASSIGN_OR_RETURN(resolution.code,
                           loader_->LoadForCall(proc, functor, pattern));
  }
  return resolution;
}

base::Result<wam::ExternalResolver::Resolution> EdbResolver::ResolveSource(
    ProcedureInfo* proc, uint32_t arity) {
  // The Educe baseline cycle (paper §2 point 3): rules "have to be
  // searched for in the EDB, asserted, executed and finally erased" — per
  // use, including every level of a recursion.
  EDUCE_ASSIGN_OR_RETURN(
      std::vector<std::string> sources,
      store_->FetchRules(proc, /*pattern=*/nullptr, /*preunify=*/false));

  dict::Dictionary* dict = program_->dictionary();
  // One `$src_<name>` functor per stored procedure, reused by every load
  // (as StartQuery reuses `$query`), so loads do not grow the dictionary.
  // Erase first: a load that failed midway may have left clauses under
  // it, and on an overlay the erase shadows whatever the frozen base
  // holds under the same functor.
  EDUCE_ASSIGN_OR_RETURN(dict::SymbolId transient,
                         dict->Intern("$src_" + proc->name, arity));
  (void)program_->EraseProcedure(transient);
  EDUCE_ASSIGN_OR_RETURN(dict::SymbolId neck, dict->Intern(":-", 2));

  for (const std::string& text : sources) {
    EDUCE_ASSIGN_OR_RETURN(reader::ReadTerm read,
                           reader::ParseTerm(dict, text));
    ++stats_.source_parses;
    // Re-head the clause under the transient name so each use re-parses
    // and re-asserts (recursive calls in the body still name the stored
    // procedure and re-enter this resolver).
    term::AstPtr clause = read.term;
    term::AstPtr head = clause;
    term::AstPtr body;
    if (clause->IsStruct() && dict->IsLive(clause->functor) &&
        dict->NameOf(clause->functor) == ":-" && clause->args.size() == 2) {
      head = clause->args[0];
      body = clause->args[1];
    }
    if (head->arity() != arity) {
      return base::Status::Corruption("stored clause arity mismatch for " +
                                      proc->name);
    }
    term::AstPtr new_head = arity == 0
                                ? term::MakeAtom(transient)
                                : term::MakeStruct(transient, head->args);
    term::AstPtr new_clause =
        body == nullptr ? new_head
                        : term::MakeStruct(neck, {new_head, body});
    EDUCE_RETURN_IF_ERROR(program_->AddClause(new_clause));
    ++stats_.source_asserts;
  }

  Resolution resolution;
  resolution.kind = Resolution::Kind::kCode;
  EDUCE_ASSIGN_OR_RETURN(resolution.code, program_->Linked(transient));
  // Erase immediately: the machine retains the linked code for the call
  // in flight, and the next use must repeat the whole cycle.
  EDUCE_RETURN_IF_ERROR(program_->EraseProcedure(transient));
  ++stats_.source_erases;
  return resolution;
}

base::Result<wam::ExternalResolver::Resolution> EdbResolver::Resolve(
    dict::SymbolId functor, uint32_t arity, wam::Machine* machine) {
  ProcedureInfo* proc = store_->Find(functor);
  Resolution resolution;
  if (proc == nullptr) {
    resolution.kind = Resolution::Kind::kNotFound;
    return resolution;
  }
  obs::ScopedSpan span(tracer_, obs::SpanKind::kResolve, proc->functor_hash);
  base::Stopwatch resolve_watch;
  auto resolved = ResolveDispatch(proc, functor, arity, machine);
  stats_.resolve_ns += resolve_watch.ElapsedNanos();
  return resolved;
}

base::Result<wam::ExternalResolver::Resolution> EdbResolver::ResolveDispatch(
    ProcedureInfo* proc, dict::SymbolId functor, uint32_t arity,
    wam::Machine* machine) {
  Resolution resolution;
  switch (proc->mode) {
    case ProcedureMode::kFacts:
      return ResolveFacts(proc, arity, machine);
    case ProcedureMode::kCompiledRules:
      return ResolveCompiled(proc, functor, arity, machine);
    case ProcedureMode::kSourceRules:
      return ResolveSource(proc, arity);
  }
  return resolution;
}

}  // namespace educe::edb
