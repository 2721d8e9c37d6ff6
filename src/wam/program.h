#ifndef EDUCE_WAM_PROGRAM_H_
#define EDUCE_WAM_PROGRAM_H_

#include <functional>
#include <memory>
#include <set>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "dict/dictionary.h"
#include "term/ast.h"
#include "wam/code.h"
#include "wam/compiler.h"

namespace educe::wam {

class Machine;

/// Result of one builtin invocation.
enum class BuiltinResult : uint8_t {
  kTrue,      // succeeded (possibly leaving a generator choice point)
  kFalse,     // failed: backtrack
  kError,     // machine->TakeBuiltinError() holds the Status
  kTailCall,  // machine->pending_call() names a predicate to call next
};

/// A builtin: arguments are in the machine's argument registers X0..Xn-1.
using BuiltinFn = std::function<BuiltinResult(Machine*, uint32_t arity)>;

/// Registry of builtin predicates, keyed by interned functor.
class BuiltinTable {
 public:
  explicit BuiltinTable(dict::Dictionary* dictionary)
      : dictionary_(dictionary) {}

  /// Registers `name`/`arity`; returns the builtin id compiled into
  /// kBuiltin instructions.
  base::Result<uint32_t> Register(std::string_view name, uint32_t arity,
                                  BuiltinFn fn);

  /// Id for a functor, if it names a builtin.
  std::optional<uint32_t> Find(dict::SymbolId functor) const;

  const BuiltinFn& fn(uint32_t id) const { return entries_[id].fn; }
  const std::string& name(uint32_t id) const { return entries_[id].name; }
  uint32_t arity(uint32_t id) const { return entries_[id].arity; }
  /// Number of registered builtins (ids are dense: [0, size)).
  size_t size() const { return entries_.size(); }

  /// Id of the builtin registered as `name`/`arity`, if any.
  std::optional<uint32_t> FindByName(std::string_view name,
                                     uint32_t arity) const;

  /// Every functor with a registered builtin (dictionary GC roots).
  std::vector<dict::SymbolId> RegisteredFunctors() const {
    std::vector<dict::SymbolId> out;
    out.reserve(by_functor_.size());
    for (const auto& [functor, id] : by_functor_) out.push_back(functor);
    return out;
  }

 private:
  struct Entry {
    std::string name;
    uint32_t arity;
    BuiltinFn fn;
  };
  dict::Dictionary* dictionary_;
  std::vector<Entry> entries_;
  std::unordered_map<dict::SymbolId, uint32_t> by_functor_;
};

/// Links clause code into an executable procedure, adding choice-point
/// control and (optionally) first-argument type+value indexing — the
/// main-memory half of the paper's dynamic loader (§3.1 component 2,
/// §3.2.2). With `indexing` false a plain try/retry/trust chain over all
/// clauses is produced (the Ablation C baseline). With `fuse` true the
/// link-time superinstruction pass (FuseSuperinstructions, DESIGN.md §14)
/// runs over the finished code so fused opcodes flow into the code cache
/// transparently.
std::shared_ptr<const LinkedCode> LinkProcedure(
    dict::SymbolId functor, uint32_t arity,
    const std::vector<std::shared_ptr<const ClauseCode>>& clauses,
    bool indexing, bool fuse = true);

/// Adds every dictionary symbol a *linked* procedure keeps alive to `out`:
/// the functor label, all instruction operands, and the keys of
/// constant/structure switch tables. Retaining code (e.g. in the EDB code
/// cache) must retain exactly this set across dictionary GC (§3.3) —
/// surviving ids are never relocated, so retained code stays valid.
void CollectLinkedSymbols(const LinkedCode& linked,
                          std::set<dict::SymbolId>* out);

/// Approximate resident heap bytes of a linked procedure (instructions,
/// switch tables, clause offsets). Used as the code-cache memory budget
/// unit; an estimate, not an allocator measurement.
size_t LinkedCodeBytes(const LinkedCode& linked);

/// Counters for the linker and predicate store.
struct ProgramStats {
  uint64_t clauses_added = 0;
  uint64_t links_performed = 0;
  uint64_t asserts = 0;
  uint64_t retracts = 0;
};

/// The in-memory predicate database: compiled clauses per functor, linked
/// lazily into executable code. Linked code is shared_ptr-immutable so
/// executions in flight survive assert/retract (relinking replaces the
/// pointer, never mutates).
///
/// Overlays (DESIGN.md §10): a Program constructed with a `base` is a
/// per-session overlay. Lookups fall back to the base, the builtin table
/// is shared with (borrowed from) the base, and every mutation is
/// copy-on-write — a base-resident procedure is shadow-copied into the
/// overlay before the overlay changes it, and erasing one leaves an erased
/// shadow, so the base is never written through an overlay. The only way
/// an overlay's writes reach the base is FoldIntoBase(), which the owner
/// runs while no other overlay of that base is live. The owner must
/// freeze the base (LinkAll(), then no further mutation) while any other
/// overlay is live; each overlay is then single-threaded and needs no
/// locking of its own. Seed each overlay's aux counter with a disjoint
/// range (SeedAuxCounter) so `$aux` functor names never collide across
/// overlays or with the base's own — a collision would let one overlay
/// shadow an auxiliary procedure that base code still calls.
class Program {
 public:
  explicit Program(dict::Dictionary* dictionary);

  /// Overlay constructor: `base` must outlive this Program and stay
  /// frozen (fully linked, no mutations) while it is in use.
  Program(dict::Dictionary* dictionary, Program* base);

  dict::Dictionary* dictionary() { return dictionary_; }
  const dict::Dictionary& dictionary() const { return *dictionary_; }
  BuiltinTable* builtins() { return builtins_; }
  const BuiltinTable& builtins() const { return *builtins_; }
  Compiler* compiler() { return &compiler_; }

  /// The base program this overlay falls back to (null for a root).
  Program* base() { return base_; }

  /// One stored clause of a procedure.
  struct StoredClause {
    std::shared_ptr<const ClauseCode> code;
    term::AstPtr source;  // normalized `H` or `':-'(H, B)`
  };

  /// One procedure.
  struct Proc {
    dict::SymbolId functor = dict::kInvalidSymbol;
    uint32_t arity = 0;
    std::vector<StoredClause> clauses;
    std::shared_ptr<const LinkedCode> linked;  // null when dirty
    bool is_dynamic = false;
    /// Overlay only: a shadow that erases the base's procedure of this
    /// functor (Find treats the procedure as undefined).
    bool erased = false;
  };

  /// Compiles and installs a clause (and any auxiliary clauses its body
  /// needs). `front` prepends (asserta) instead of appending (assertz).
  base::Status AddClause(const term::AstPtr& clause, bool front = false);

  /// Compiles and installs every clause of `clauses`.
  base::Status AddClauses(const std::vector<term::AstPtr>& clauses);

  /// Installs an already-compiled clause (used by the EDB loader path).
  base::Status AddCompiled(CompiledClause compiled, bool front = false);

  /// Removes all clauses of `functor` (the baseline system's per-use
  /// erase; also abolish/1).
  base::Status EraseProcedure(dict::SymbolId functor);

  /// Removes the `index`-th clause of `functor` (retract support).
  base::Status EraseClause(dict::SymbolId functor, size_t index);

  /// Marks a predicate dynamic (no-op placeholder for catalogs; clause
  /// sources are always retained).
  void DeclareDynamic(dict::SymbolId functor);

  const Proc* Find(dict::SymbolId functor) const;

  /// Visits every procedure stored in this program (an overlay visits its
  /// local shadow copies only, not the base). Iteration order is
  /// unspecified. Tooling/debugging aid (educe-asm).
  void ForEachProc(const std::function<void(const Proc&)>& fn) const;

  /// Executable code for `functor`, linking if dirty. NotFound if the
  /// procedure does not exist. On an overlay, a base-resident procedure
  /// that is already linked is served from the base; a dirty base
  /// procedure is shadow-copied and linked locally (the base is never
  /// mutated). Freeze the base with LinkAll() first so that path stays
  /// cold.
  base::Result<std::shared_ptr<const LinkedCode>> Linked(
      dict::SymbolId functor);

  /// Links every dirty procedure. The engine calls this to freeze the
  /// base program before handing it to overlay sessions: afterwards every
  /// overlay read of the base (Find / Linked) touches only immutable
  /// state.
  void LinkAll();

  /// Overlay only: moves every local procedure into the base, replacing
  /// the base's procedure of the same functor (an erased shadow erases
  /// it), and leaves this overlay empty. The base must have no other live
  /// overlay.
  void FoldIntoBase();

  /// Enables/disables first-argument indexing at link time (Ablation C).
  /// Invalidates existing linked code.
  void SetIndexingEnabled(bool enabled);
  bool indexing_enabled() const { return indexing_enabled_; }

  /// Enables/disables the link-time superinstruction pass. Invalidates
  /// existing linked code.
  void SetFusionEnabled(bool enabled);
  bool fusion_enabled() const { return fusion_enabled_; }

  /// Interns and returns a fresh auxiliary functor id.
  base::Result<dict::SymbolId> FreshFunctor(std::string_view prefix,
                                            uint32_t arity);

  /// Starts the aux counter at `start`. Overlay sessions get
  /// disjoint ranges (e.g. session serial << 32) so generated functor
  /// names are globally unique across concurrent sessions.
  void SeedAuxCounter(uint64_t start) { aux_counter_ = start; }

  /// Adds every dictionary symbol the predicate store references — clause
  /// code operands, procedure functors, retained clause-source functors
  /// and registered builtins — to `out` (dictionary GC roots, §3.3).
  void CollectReferencedSymbols(std::set<dict::SymbolId>* out) const;

  const ProgramStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ProgramStats{}; }

 private:
  // Copies a base-resident procedure into the local map so it can be
  // mutated without touching the shared base (clauses are shared_ptr
  // copies, so the shadow is cheap). Returns the local proc, or null if
  // neither this program nor the base knows the functor.
  Proc* LocalProcForWrite(dict::SymbolId functor);

  dict::Dictionary* dictionary_;
  Program* base_ = nullptr;                     // null for a root program
  std::unique_ptr<BuiltinTable> owned_builtins_;  // root only
  BuiltinTable* builtins_;  // root: owned_builtins_.get(); overlay: base's
  uint64_t aux_counter_ = 0;
  Compiler compiler_;
  std::unordered_map<dict::SymbolId, Proc> procs_;
  bool indexing_enabled_ = true;
  bool fusion_enabled_ = true;
  ProgramStats stats_;
};

}  // namespace educe::wam

#endif  // EDUCE_WAM_PROGRAM_H_
