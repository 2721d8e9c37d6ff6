#ifndef EDUCE_WAM_MACHINE_H_
#define EDUCE_WAM_MACHINE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "term/ast.h"
#include "term/cell.h"
#include "wam/code.h"
#include "wam/program.h"

namespace educe::wam {

class Machine;

/// Producer of alternatives for nondeterministic external procedures and
/// builtins (EDB cursors, between/3). The machine restores the saved
/// argument registers and undoes trail bindings before every Next() call,
/// so implementations just unify the next candidate against X0..Xn-1.
class Generator {
 public:
  virtual ~Generator() = default;

  /// Attempts the next alternative. True: alternative accepted (the
  /// machine keeps the choice point). False: exhausted.
  virtual base::Result<bool> Next(Machine* machine) = 0;
};

/// Resolves predicates that are not in the in-memory Program — the hook
/// through which the EDB layers (compiled-code loader, source-mode
/// baseline, fact relations) plug into the inference engine. Mirrors the
/// paper's trap "when no predicate is found in main memory to evaluate a
/// given query" (§3.2.1).
class ExternalResolver {
 public:
  virtual ~ExternalResolver() = default;

  struct Resolution {
    enum class Kind : uint8_t {
      kNotFound,   // not an external predicate either
      kCode,       // execute this linked code
      kGenerator,  // enumerate alternatives (choice point iff needed)
      kFail,       // known external, provably no matches: fail w/o CP
    };
    Kind kind = Kind::kNotFound;
    std::shared_ptr<const LinkedCode> code;
    std::unique_ptr<Generator> generator;
    /// With kGenerator: resolver determined at most one alternative can
    /// match (deterministic retrieval, paper §3.2.1) — no choice point.
    bool at_most_one = false;
  };

  /// Arguments of the call are in machine->X(0..). `arity` from the call.
  virtual base::Result<Resolution> Resolve(dict::SymbolId functor,
                                           uint32_t arity,
                                           Machine* machine) = 0;
};

struct MachineOptions {
  /// Heap size (cells) above which GC triggers at the next call boundary.
  size_t gc_threshold_cells = 1u << 20;
  /// Hard heap cap; exceeded => ResourceExhausted.
  size_t max_heap_cells = 64u << 20;
  /// Paper §3.3.2: GC can be "temporarily disabled in those cases where
  /// severe time constraints apply".
  bool enable_gc = true;
  /// Unknown predicates fail silently instead of raising NotFound.
  bool unknown_predicates_fail = false;
  /// Abort queries after this many instructions (0 = unlimited).
  uint64_t max_steps = 0;
};

/// Counters; choice_points/backtracks feed the Ablation B/C benches
/// (Touati & Despain: choice-point references dominate data references).
struct MachineStats {
  uint64_t instructions = 0;
  uint64_t calls = 0;
  uint64_t choice_points = 0;
  /// Choice points the resolver proved away (paper §3.2.1): deterministic
  /// retrievals (at most one match, fully bound key) and provably empty
  /// externals, both of which run without pushing a choice point.
  uint64_t choice_points_eliminated = 0;
  uint64_t backtracks = 0;
  uint64_t gc_runs = 0;
  uint64_t cells_collected = 0;
  uint64_t external_resolutions = 0;
  uint64_t trail_entries = 0;
};

/// The WAM emulator (paper §3.1 component 3: "a very fast emulator ...
/// derived from the WAM"). One Machine runs one query at a time over a
/// shared Program; findall/3 spawns sub-machines on the same Program.
class Machine {
 public:
  explicit Machine(Program* program, MachineOptions options = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  Program* program() { return program_; }
  dict::Dictionary* dictionary() { return program_->dictionary(); }

  /// --- Query API --------------------------------------------------------

  /// Compiles `goal` (whose variables are indexed 0..num_vars-1) as a
  /// fresh query predicate and prepares execution. Resets all machine
  /// state; the previous query's code is discarded.
  base::Status StartQuery(const term::AstPtr& goal, uint32_t num_vars);

  /// Runs to the next solution. False: no (more) solutions.
  base::Result<bool> NextSolution();

  /// After a successful NextSolution(): the binding of query variable
  /// `index` as an AST. `var_names` maps heap variables to stable AST
  /// indices across multiple exports of one solution.
  term::AstPtr ExportVar(uint32_t index,
                         std::map<uint64_t, uint32_t>* var_map) const;

  /// Cell of query variable `index` (for builtins/tests).
  term::Cell QueryRoot(uint32_t index) const { return query_roots_[index]; }

  /// --- Term interface (builtins, EDB layer) -----------------------------

  term::Cell& X(size_t i) { return x_[i]; }
  const term::Cell& X(size_t i) const { return x_[i]; }

  /// Follows bound REF chains to the representative cell.
  term::Cell Deref(term::Cell c) const;

  /// Cell stored at heap address `addr`.
  term::Cell HeapAt(uint64_t addr) const { return heap_[addr]; }
  size_t heap_size() const { return heap_.size(); }

  /// Allocates a fresh unbound variable on the heap.
  term::Cell NewVar();
  /// Builds a structure shell f(args...) on the heap.
  base::Result<term::Cell> NewStruct(dict::SymbolId functor,
                                     const std::vector<term::Cell>& args);
  /// Builds a cons cell [head | tail].
  term::Cell NewList(term::Cell head, term::Cell tail);
  /// Appends `n` placeholder cells (integer 0) to the heap and returns
  /// the address of the first, for code that fills a term's cells in
  /// place with SetHeapAt (the EDB fact decoder).
  uint64_t AllocateHeap(size_t n) {
    heap_.resize(heap_.size() + n, term::Cell::Int(0));
    return heap_.size() - n;
  }
  void SetHeapAt(uint64_t addr, term::Cell cell) { heap_[addr] = cell; }
  /// The '.'/2 functor: a compound with it is built as a list cell.
  dict::SymbolId dot_symbol() const { return dot_symbol_; }

  /// Full unification with trailing. False: failure (bindings made before
  /// the failure point remain; callers relying on atomic unify must
  /// snapshot the trail with TrailMark/UndoTo).
  bool Unify(term::Cell a, term::Cell b);

  size_t TrailMark() const { return trail_.size(); }
  /// Unbinds everything trailed after `mark`.
  void UndoTo(size_t mark);

  /// Builds `t` on the heap. `var_cells` maps the AST's variable indices
  /// to cells; missing entries are created as fresh variables.
  base::Result<term::Cell> ImportAst(const term::Ast& t,
                                     std::vector<term::Cell>* var_cells);

  /// Exports `cell` as an AST (inverse of ImportAst). `var_map` assigns
  /// stable AST variable indices to unbound heap cells.
  term::AstPtr ExportCell(term::Cell cell,
                          std::map<uint64_t, uint32_t>* var_map) const;

  /// Standard order comparison (Var < Number < Atom < Compound); -1/0/1.
  int Compare(term::Cell a, term::Cell b) const;

  /// --- Builtin protocol --------------------------------------------------

  void SetBuiltinError(base::Status status) {
    builtin_error_ = std::move(status);
  }
  base::Status TakeBuiltinError() {
    base::Status s = std::move(builtin_error_);
    builtin_error_ = base::Status::OK();
    return s;
  }
  /// Requests a tail-transfer to `functor` with arguments already placed
  /// in X0..; pair with BuiltinResult::kTailCall.
  void SetPendingCall(dict::SymbolId functor, uint32_t arity) {
    pending_functor_ = functor;
    pending_arity_ = arity;
  }

  /// Runs a generator as the current call: creates a choice point unless
  /// `at_most_one`, and returns the first alternative's success. Used by
  /// nondeterministic builtins; the continuation is the instruction after
  /// the builtin.
  base::Result<bool> RunGenerator(std::unique_ptr<Generator> generator,
                                  uint32_t arity, bool at_most_one);

  /// --- Environment / misc -------------------------------------------------

  void set_resolver(ExternalResolver* resolver) { resolver_ = resolver; }
  ExternalResolver* resolver() { return resolver_; }

  void set_output(std::ostream* out) { out_ = out; }
  std::ostream* output() { return out_; }

  const MachineOptions& options() const { return options_; }
  void set_gc_enabled(bool enabled) { options_.enable_gc = enabled; }

  const MachineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MachineStats{}; }

  /// --- Observability (DESIGN.md §11) --------------------------------------

  /// Per-instruction opcode-class accounting and heap high-water marking
  /// in the dispatch loop. Off (default) = one predictable branch per
  /// instruction; the profile is reset by StartQuery so it always holds
  /// the current query's footprint.
  void set_profiling(bool on) { profiling_ = on; }
  bool profiling() const { return profiling_; }
  const obs::EmulatorProfile& profile() const { return profile_; }

  /// Emits an execute span per NextSolution() when the tracer is enabled.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Forces a garbage collection now (normally triggered at call
  /// boundaries when the heap passes the threshold). `live_args`: how many
  /// argument registers are roots.
  void CollectGarbage(uint32_t live_args);

 private:
  // -- code addressing ----------------------------------------------------
  struct CodePtr {
    uint32_t code_id = 0;
    uint32_t offset = 0;
  };

  struct Frame;  // layout documented in machine.cc

  struct ChoicePoint {
    std::vector<term::Cell> args;   // saved X0..Xn-1
    uint64_t saved_e;
    CodePtr saved_cp;
    size_t saved_stack_top;
    size_t protect;                 // max stack barrier incl. older CPs
    size_t saved_heap_top;
    size_t saved_trail_top;
    size_t saved_b0;
    CodePtr resume;                 // retry address (non-generator)
    std::shared_ptr<Generator> generator;
    CodePtr gen_continue;           // where success resumes (generator)
  };

  uint32_t RetainCode(std::shared_ptr<const LinkedCode> code);
  const Instruction& At(CodePtr p) const {
    return retained_[p.code_id]->code[p.offset];
  }

  void ResetState();

  // Emulator core: runs until a solution (true), exhaustion (false) or
  // error.
  base::Result<bool> Run();
  base::Result<bool> Backtrack();
  // Dispatches a call to `functor` (internal proc, builtin, external).
  base::Status CallProcedure(dict::SymbolId functor, uint32_t arity);
  base::Result<bool> HandleBuiltinResult(BuiltinResult r, bool* failed);

  void PushChoicePoint(uint32_t arity, CodePtr resume,
                       std::shared_ptr<Generator> generator,
                       CodePtr gen_continue);

  // Binds heap cell `addr` (must be unbound) to `value`, trailing if
  // needed.
  void Bind(uint64_t addr, term::Cell value);

  term::Cell& YSlot(uint16_t n);

  // Heap helpers.
  uint64_t PushHeap(term::Cell cell) {
    heap_.push_back(cell);
    return heap_.size() - 1;
  }

  // -- GC -------------------------------------------------------------------
  void MaybeCollect(uint32_t live_args);
  void MarkCell(term::Cell cell, std::vector<uint8_t>* marked,
                std::vector<uint64_t>* work) const;

  Program* program_;
  MachineOptions options_;
  ExternalResolver* resolver_ = nullptr;
  std::ostream* out_;

  // Machine areas.
  std::array<term::Cell, 256> x_{};
  std::vector<term::Cell> heap_;
  std::vector<term::Cell> stack_;   // environment frames
  size_t stack_top_ = 0;
  std::vector<uint64_t> trail_;
  std::vector<ChoicePoint> or_stack_;

  // Registers.
  CodePtr p_{};
  CodePtr cp_{};
  uint64_t e_ = UINT64_MAX;         // no frame
  size_t b0_ = 0;
  uint64_t s_ = 0;                  // structure argument pointer
  bool write_mode_ = false;

  // Code retention (keeps relinked procedures alive while in flight).
  std::vector<std::shared_ptr<const LinkedCode>> retained_;
  std::unordered_map<const LinkedCode*, uint32_t> retained_ids_;

  // Query state.
  std::vector<term::Cell> query_roots_;
  dict::SymbolId query_functor_ = dict::kInvalidSymbol;
  bool query_started_ = false;
  bool query_failed_ = false;

  // Builtin protocol state.
  base::Status builtin_error_;
  dict::SymbolId pending_functor_ = dict::kInvalidSymbol;
  uint32_t pending_arity_ = 0;

  // Pre-interned list symbols.
  dict::SymbolId dot_symbol_ = 0;
  dict::SymbolId nil_symbol_ = 0;

  MachineStats stats_;

  // Observability. profiling_ gates the per-instruction work; tracer_
  // (nullable) receives one kExecute span per solution pump.
  bool profiling_ = false;
  obs::EmulatorProfile profile_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace educe::wam

#endif  // EDUCE_WAM_MACHINE_H_
