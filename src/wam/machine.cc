#include "wam/machine.h"

#include <algorithm>
#include <cassert>
#include <iostream>

namespace educe::wam {

using term::Cell;
using term::Tag;

namespace {

/// The halt code every query's continuation bottoms out in: executing
/// kHalt means the query predicate returned — a solution is derived.
std::shared_ptr<const LinkedCode> HaltCode() {
  static const std::shared_ptr<const LinkedCode>* code = [] {
    auto linked = std::make_shared<LinkedCode>();
    linked->code.push_back(Instruction::Make(Opcode::kHalt));
    return new std::shared_ptr<const LinkedCode>(std::move(linked));
  }();
  return *code;
}

}  // namespace

// Environment frame layout on stack_ (all slots are Cells, control values
// stored raw):
//   [base + 0] previous E (raw uint64; UINT64_MAX = none)
//   [base + 1] saved CP (raw: code_id << 32 | offset)
//   [base + 2] number of permanent slots n
//   [base + 3 .. base + 3 + n) Y0..Yn-1
static constexpr uint64_t kNoFrame = UINT64_MAX;
static constexpr size_t kFrameHeader = 3;

Machine::Machine(Program* program, MachineOptions options)
    : program_(program), options_(options), out_(&std::cout) {
  retained_.push_back(HaltCode());
  retained_ids_[retained_[0].get()] = 0;
  heap_.reserve(1u << 16);
  // Heap address 0 is reserved: Ref(0) == Cell{} serves as the "absent"
  // sentinel (ImportAst var slots, uninitialized registers), so no real
  // term may live there.
  heap_.push_back(Cell::Int(0));
  // Pre-intern the list symbols so exporting lists never fails.
  dot_symbol_ = program_->dictionary()->Intern(".", 2).ValueOr(0);
  nil_symbol_ = program_->dictionary()->Intern("[]", 0).ValueOr(0);
}

uint32_t Machine::RetainCode(std::shared_ptr<const LinkedCode> code) {
  auto it = retained_ids_.find(code.get());
  if (it != retained_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(retained_.size());
  retained_ids_[code.get()] = id;
  retained_.push_back(std::move(code));
  return id;
}

void Machine::ResetState() {
  heap_.clear();
  heap_.push_back(Cell::Int(0));  // reserved address 0 (see constructor)
  stack_.clear();
  stack_top_ = 0;
  trail_.clear();
  or_stack_.clear();
  x_.fill(Cell{});
  p_ = CodePtr{};
  cp_ = CodePtr{};
  e_ = kNoFrame;
  b0_ = 0;
  s_ = 0;
  write_mode_ = false;
  query_roots_.clear();
  query_started_ = false;
  query_failed_ = false;
  builtin_error_ = base::Status::OK();
  pending_functor_ = dict::kInvalidSymbol;
  profile_.Reset();  // per-query footprint (DESIGN.md §11)
  // Drop retained code except the halt sentinel.
  retained_.resize(1);
  retained_ids_.clear();
  retained_ids_[retained_[0].get()] = 0;
}

Cell Machine::Deref(Cell c) const {
  while (c.tag() == Tag::kRef) {
    const Cell target = heap_[c.addr()];
    if (target == c) return c;  // unbound
    c = target;
  }
  return c;
}

void Machine::Bind(uint64_t addr, Cell value) {
  heap_[addr] = value;
  if (!or_stack_.empty() && addr < or_stack_.back().saved_heap_top) {
    trail_.push_back(addr);
    ++stats_.trail_entries;
  }
}

Cell Machine::NewVar() {
  const uint64_t addr = PushHeap(Cell{});
  heap_[addr] = Cell::Ref(addr);
  return Cell::Ref(addr);
}

base::Result<Cell> Machine::NewStruct(dict::SymbolId functor,
                                      const std::vector<Cell>& args) {
  if (args.empty()) return Cell::Con(functor);
  const uint64_t base = PushHeap(Cell::Fun(functor));
  for (const Cell& arg : args) PushHeap(arg);
  return Cell::Str(base);
}

Cell Machine::NewList(Cell head, Cell tail) {
  const uint64_t base = PushHeap(head);
  PushHeap(tail);
  return Cell::Lis(base);
}

bool Machine::Unify(Cell a, Cell b) {
  // Explicit worklist instead of recursion: deep terms are routine.
  std::vector<std::pair<Cell, Cell>> work;
  work.emplace_back(a, b);
  while (!work.empty()) {
    auto [ua, ub] = work.back();
    work.pop_back();
    const Cell da = Deref(ua);
    const Cell db = Deref(ub);
    if (da == db) continue;

    const bool va = da.tag() == Tag::kRef;
    const bool vb = db.tag() == Tag::kRef;
    if (va && vb) {
      // Bind the younger variable to the older one (heap order = age).
      if (da.addr() < db.addr()) {
        Bind(db.addr(), da);
      } else {
        Bind(da.addr(), db);
      }
      continue;
    }
    if (va) {
      Bind(da.addr(), db);
      continue;
    }
    if (vb) {
      Bind(db.addr(), da);
      continue;
    }

    if (da.tag() != db.tag()) return false;
    switch (da.tag()) {
      case Tag::kCon:
      case Tag::kInt:
      case Tag::kFlt:
        return false;  // immediates: da == db was already checked
      case Tag::kLis: {
        const uint64_t pa = da.addr();
        const uint64_t pb = db.addr();
        work.emplace_back(heap_[pa], heap_[pb]);
        work.emplace_back(heap_[pa + 1], heap_[pb + 1]);
        break;
      }
      case Tag::kStr: {
        const uint64_t pa = da.addr();
        const uint64_t pb = db.addr();
        if (heap_[pa] != heap_[pb]) return false;  // functor cells
        const uint32_t arity =
            program_->dictionary()->ArityOf(heap_[pa].symbol());
        for (uint32_t i = 1; i <= arity; ++i) {
          work.emplace_back(heap_[pa + i], heap_[pb + i]);
        }
        break;
      }
      default:
        return false;  // kRef handled above; kFun never reachable here
    }
  }
  return true;
}

void Machine::UndoTo(size_t mark) {
  while (trail_.size() > mark) {
    const uint64_t addr = trail_.back();
    trail_.pop_back();
    heap_[addr] = Cell::Ref(addr);
  }
}

Cell& Machine::YSlot(uint16_t n) {
  assert(e_ != kNoFrame);
  return stack_[e_ + kFrameHeader + n];
}

void Machine::PushChoicePoint(uint32_t arity, CodePtr resume,
                              std::shared_ptr<Generator> generator,
                              CodePtr gen_continue) {
  ChoicePoint cp;
  cp.args.assign(x_.begin(), x_.begin() + arity);
  cp.saved_e = e_;
  cp.saved_cp = cp_;
  cp.saved_stack_top = stack_top_;
  cp.protect = std::max(stack_top_,
                        or_stack_.empty() ? size_t{0} : or_stack_.back().protect);
  cp.saved_heap_top = heap_.size();
  cp.saved_trail_top = trail_.size();
  cp.saved_b0 = b0_;
  cp.resume = resume;
  cp.generator = std::move(generator);
  cp.gen_continue = gen_continue;
  or_stack_.push_back(std::move(cp));
  ++stats_.choice_points;
}

base::Result<bool> Machine::Backtrack() {
  ++stats_.backtracks;
  while (!or_stack_.empty()) {
    ChoicePoint& cp = or_stack_.back();
    UndoTo(cp.saved_trail_top);
    heap_.resize(cp.saved_heap_top);
    e_ = cp.saved_e;
    cp_ = cp.saved_cp;
    stack_top_ = cp.saved_stack_top;
    b0_ = cp.saved_b0;
    std::copy(cp.args.begin(), cp.args.end(), x_.begin());

    if (cp.generator != nullptr) {
      EDUCE_ASSIGN_OR_RETURN(bool more, cp.generator->Next(this));
      if (more) {
        p_ = cp.gen_continue;
        return true;
      }
      UndoTo(cp.saved_trail_top);
      or_stack_.pop_back();
      continue;
    }
    p_ = cp.resume;
    return true;  // the kRetry/kTrust at `resume` manages the CP
  }
  return false;
}

base::Result<bool> Machine::RunGenerator(std::unique_ptr<Generator> generator,
                                         uint32_t arity, bool at_most_one) {
  if (at_most_one) {
    // Deterministic retrieval (paper §3.2.1): no choice point.
    ++stats_.choice_points_eliminated;
    const size_t mark = TrailMark();
    EDUCE_ASSIGN_OR_RETURN(bool ok, generator->Next(this));
    if (!ok) UndoTo(mark);
    return ok;
  }
  std::shared_ptr<Generator> shared(std::move(generator));
  // Continuation: current P (the instruction after the builtin / the
  // caller's CP for procedure calls — the caller sets P accordingly).
  PushChoicePoint(arity, CodePtr{}, shared, p_);
  ChoicePoint& cp = or_stack_.back();
  EDUCE_ASSIGN_OR_RETURN(bool ok, shared->Next(this));
  if (!ok) {
    UndoTo(cp.saved_trail_top);
    or_stack_.pop_back();
    return false;
  }
  return true;
}

base::Status Machine::CallProcedure(dict::SymbolId functor, uint32_t arity) {
  ++stats_.calls;
  b0_ = or_stack_.size();
  MaybeCollect(arity);

  while (true) {
    // 1. Internal procedure.
    if (program_->Find(functor) != nullptr) {
      EDUCE_ASSIGN_OR_RETURN(std::shared_ptr<const LinkedCode> linked,
                             program_->Linked(functor));
      const uint32_t id = RetainCode(std::move(linked));
      p_ = CodePtr{id, 0};
      return base::Status::OK();
    }

    // 2. Builtin (reached via metacall; direct calls compile to kBuiltin).
    if (auto builtin = program_->builtins()->Find(functor)) {
      const BuiltinFn& fn = program_->builtins()->fn(*builtin);
      // Continuation of a procedure-style builtin call is CP.
      p_ = cp_;
      BuiltinResult r = fn(this, arity);
      bool failed = false;
      EDUCE_ASSIGN_OR_RETURN(bool tail, HandleBuiltinResult(r, &failed));
      if (failed) {
        EDUCE_ASSIGN_OR_RETURN(bool resumed, Backtrack());
        if (!resumed) query_failed_ = true;
        return base::Status::OK();
      }
      if (!tail) return base::Status::OK();
      functor = pending_functor_;
      arity = pending_arity_;
      continue;
    }

    // 3. External store.
    if (resolver_ != nullptr) {
      ++stats_.external_resolutions;
      EDUCE_ASSIGN_OR_RETURN(ExternalResolver::Resolution res,
                             resolver_->Resolve(functor, arity, this));
      using Kind = ExternalResolver::Resolution::Kind;
      switch (res.kind) {
        case Kind::kCode: {
          const uint32_t id = RetainCode(std::move(res.code));
          p_ = CodePtr{id, 0};
          return base::Status::OK();
        }
        case Kind::kGenerator: {
          // Success continues at the caller's continuation.
          p_ = cp_;
          EDUCE_ASSIGN_OR_RETURN(
              bool ok, RunGenerator(std::move(res.generator), arity,
                                    res.at_most_one));
          if (!ok) {
            EDUCE_ASSIGN_OR_RETURN(bool resumed, Backtrack());
            if (!resumed) query_failed_ = true;
          }
          return base::Status::OK();
        }
        case Kind::kFail: {
          // Provably empty external: fail without ever pushing the CP a
          // naive enumeration would have needed (paper §3.2.1).
          ++stats_.choice_points_eliminated;
          EDUCE_ASSIGN_OR_RETURN(bool resumed, Backtrack());
          if (!resumed) query_failed_ = true;
          return base::Status::OK();
        }
        case Kind::kNotFound:
          break;
      }
    }

    // 4. Unknown.
    if (options_.unknown_predicates_fail) {
      EDUCE_ASSIGN_OR_RETURN(bool resumed, Backtrack());
      if (!resumed) query_failed_ = true;
      return base::Status::OK();
    }
    const dict::Dictionary& dict = *program_->dictionary();
    std::string name = dict.IsLive(functor)
                           ? std::string(dict.NameOf(functor))
                           : "<functor#" + std::to_string(functor) + ">";
    return base::Status::NotFound("undefined procedure " + name + "/" +
                                  std::to_string(arity));
  }
}

base::Result<bool> Machine::HandleBuiltinResult(BuiltinResult r,
                                                bool* failed) {
  *failed = false;
  switch (r) {
    case BuiltinResult::kTrue:
      return false;
    case BuiltinResult::kFalse:
      *failed = true;
      return false;
    case BuiltinResult::kError: {
      base::Status s = TakeBuiltinError();
      if (s.ok()) {
        s = base::Status::Internal("builtin reported error without status");
      }
      return s;
    }
    case BuiltinResult::kTailCall:
      return true;
  }
  return base::Status::Internal("bad builtin result");
}

base::Status Machine::StartQuery(const term::AstPtr& goal,
                                 uint32_t num_vars) {
  if (num_vars > 200) {
    return base::Status::ResourceExhausted("query has too many variables");
  }
  // Drop the previous query's predicate (its aux predicates are retained;
  // they are tiny and content-addressed per compile).
  if (query_functor_ != dict::kInvalidSymbol) {
    (void)program_->EraseProcedure(query_functor_);
  }

  // One `$query` functor per arity, shared by every machine, so queries
  // do not grow the dictionary. Erase it first: on an overlay the frozen
  // base may hold the engine's last query under the same functor, and the
  // erase shadows that with an empty local procedure.
  EDUCE_ASSIGN_OR_RETURN(query_functor_,
                         program_->dictionary()->Intern("$query", num_vars));
  (void)program_->EraseProcedure(query_functor_);
  std::vector<term::AstPtr> head_args;
  for (uint32_t i = 0; i < num_vars; ++i) {
    head_args.push_back(term::MakeVar(i, ""));
  }
  term::AstPtr head = num_vars == 0
                          ? term::MakeAtom(query_functor_)
                          : term::MakeStruct(query_functor_, head_args);
  EDUCE_ASSIGN_OR_RETURN(dict::SymbolId neck,
                         program_->dictionary()->Intern(":-", 2));
  EDUCE_RETURN_IF_ERROR(
      program_->AddClause(term::MakeStruct(neck, {head, goal})));

  ResetState();
  query_roots_.reserve(num_vars);
  for (uint32_t i = 0; i < num_vars; ++i) {
    query_roots_.push_back(NewVar());
    x_[i] = query_roots_[i];
  }
  cp_ = CodePtr{0, 0};  // halt
  EDUCE_RETURN_IF_ERROR(CallProcedure(query_functor_, num_vars));
  return base::Status::OK();
}

base::Result<bool> Machine::NextSolution() {
  if (query_failed_) {
    // CallProcedure already exhausted the query during setup.
    return false;
  }
  // One execute span per solution pump; resolver time shows up as nested
  // kResolve spans, so execute-minus-resolve is pure emulation.
  obs::ScopedSpan span(tracer_, obs::SpanKind::kExecute);
  if (query_started_) {
    EDUCE_ASSIGN_OR_RETURN(bool resumed, Backtrack());
    if (!resumed) return false;
  }
  query_started_ = true;
  return Run();
}

namespace {

/// Opcode -> hot-spot class for the profiling gate. Relies on the enum's
/// block layout (head / unify / put / control / choice / index blocks in
/// code.h); kept as explicit range checks so a reordering shows up here.
constexpr obs::OpClass OpClassOf(Opcode op) {
  if (op >= Opcode::kGetVariableX && op <= Opcode::kGetList) {
    return obs::OpClass::kGet;
  }
  if (op >= Opcode::kUnifyVariableX && op <= Opcode::kUnifyVoid) {
    return obs::OpClass::kUnify;
  }
  if (op >= Opcode::kPutVariableX && op <= Opcode::kPutList) {
    return obs::OpClass::kPut;
  }
  if (op >= Opcode::kTryMeElse && op <= Opcode::kTrust) {
    return obs::OpClass::kChoice;
  }
  if (op >= Opcode::kSwitchOnTerm && op <= Opcode::kSwitchOnStructure) {
    return obs::OpClass::kIndex;
  }
  return obs::OpClass::kControl;  // allocate/call/cut/builtin/jump/halt
}

/// Profiling classes per opcode: a fused opcode accounts for both of its
/// components, so op-class profiles are invariant under fusion.
struct OpClassInfo {
  static constexpr uint8_t kNoClass = 0xFF;
  uint8_t first = 0;
  uint8_t second = kNoClass;
};

constexpr OpClassInfo OpClassInfoOf(Opcode op) {
  Opcode a = op;
  Opcode b = op;
  bool fused = true;
  switch (op) {
    case Opcode::kFusedGetConstantGetConstant:
      a = Opcode::kGetConstant; b = Opcode::kGetConstant; break;
    case Opcode::kFusedGetIntegerGetInteger:
      a = Opcode::kGetInteger; b = Opcode::kGetInteger; break;
    case Opcode::kFusedGetConstantGetInteger:
      a = Opcode::kGetConstant; b = Opcode::kGetInteger; break;
    case Opcode::kFusedGetIntegerGetConstant:
      a = Opcode::kGetInteger; b = Opcode::kGetConstant; break;
    case Opcode::kFusedGetConstantProceed:
      a = Opcode::kGetConstant; b = Opcode::kProceed; break;
    case Opcode::kFusedGetIntegerProceed:
      a = Opcode::kGetInteger; b = Opcode::kProceed; break;
    case Opcode::kFusedGetStructureUnifyVariableX:
      a = Opcode::kGetStructure; b = Opcode::kUnifyVariableX; break;
    case Opcode::kFusedGetListUnifyVariableX:
      a = Opcode::kGetList; b = Opcode::kUnifyVariableX; break;
    case Opcode::kFusedUnifyVariableXUnifyVariableX:
      a = Opcode::kUnifyVariableX; b = Opcode::kUnifyVariableX; break;
    case Opcode::kFusedPutValueYPutValueY:
      a = Opcode::kPutValueY; b = Opcode::kPutValueY; break;
    case Opcode::kFusedPutValueXCall:
      a = Opcode::kPutValueX; b = Opcode::kCall; break;
    case Opcode::kFusedPutValueYCall:
      a = Opcode::kPutValueY; b = Opcode::kCall; break;
    default:
      fused = false;
      break;
  }
  OpClassInfo info;
  info.first = static_cast<uint8_t>(OpClassOf(a));
  info.second = fused ? static_cast<uint8_t>(OpClassOf(b))
                      : OpClassInfo::kNoClass;
  return info;
}

/// Sized to the dispatch-table mask so a corrupt opcode byte indexes a
/// real (if meaningless) entry instead of out of bounds.
constexpr size_t kDispatchSlots = 64;
static_assert(kOpcodeCount <= kDispatchSlots);
static_assert(kDispatchSlots <= obs::EmulatorProfile::kDigramSlots);

constexpr auto kOpClassTable = [] {
  std::array<OpClassInfo, kDispatchSlots> t{};
  size_t i = 0;
#define EDUCE_CLASS_ENTRY(name) t[i++] = OpClassInfoOf(Opcode::name);
  EDUCE_OPCODE_LIST(EDUCE_CLASS_ENTRY)
#undef EDUCE_CLASS_ENTRY
  for (; i < kDispatchSlots; ++i) {
    t[i] = OpClassInfo{};  // bad opcodes: counted as kGet, never executed
  }
  return t;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch loop.
//
// Two dispatch strategies share the handler bodies below verbatim
// (DESIGN.md §14): portably they compile as `case` labels of a single
// switch; with EDUCE_THREADED_DISPATCH on a GNU-compatible compiler they
// become plain labels and every handler jumps through a computed-goto
// table, giving each opcode its own indirect branch for the predictor.
// EDUCE_CASE / EDUCE_BAD_OP / the table jump are the only seam.
// ---------------------------------------------------------------------------

#if defined(EDUCE_THREADED_DISPATCH) && defined(__GNUC__)
#define EDUCE_USE_THREADED 1
#else
#define EDUCE_USE_THREADED 0
#endif

#if EDUCE_USE_THREADED
#define EDUCE_CASE(name) L_##name:
#define EDUCE_BAD_OP L_badop:
#else
#define EDUCE_CASE(name) case Opcode::name:
#define EDUCE_BAD_OP default:
#endif

/// Jump to the fetch/dispatch prologue for the next instruction.
#define EDUCE_NEXT goto dispatch

/// Unification failure: backtrack, finishing Run() when exhausted. Also
/// how a fused handler aborts before its second half: Backtrack() rewrote
/// p_, so the half-consumed pair is simply abandoned.
#define EDUCE_FAIL()                               \
  do {                                             \
    EDUCE_ASSIGN_OR_RETURN(bool ok_, Backtrack()); \
    if (!ok_) return false;                        \
    goto dispatch;                                 \
  } while (0)

/// Fetch the second half of a fused pair (always in the same code object:
/// fusion never crosses clause or procedure boundaries) and account for
/// it so instruction counts are invariant under fusion.
#define EDUCE_FETCH_SECOND()              \
  do {                                    \
    instr2 = fetch_code->code[p_.offset]; \
    ++p_.offset;                          \
    ++stats_.instructions;                \
  } while (0)

// Opcode bodies shared between plain and fused handlers — the single
// source of truth for each fusion participant's semantics. `ins` names
// the instruction supplying the operands.
#define EDUCE_OP_GET_ATOMIC(ins, want_expr) \
  do {                                      \
    const Cell want_ = (want_expr);         \
    const Cell d_ = Deref(x_[(ins).a]);     \
    if (d_.tag() == Tag::kRef) {            \
      Bind(d_.addr(), want_);               \
    } else if (d_ != want_) {               \
      EDUCE_FAIL();                         \
    }                                       \
  } while (0)

#define EDUCE_OP_UNIFY_ATOMIC(want_expr)  \
  do {                                    \
    const Cell want_ = (want_expr);       \
    if (write_mode_) {                    \
      PushHeap(want_);                    \
    } else {                              \
      const Cell d_ = Deref(heap_[s_++]); \
      if (d_.tag() == Tag::kRef) {        \
        Bind(d_.addr(), want_);           \
      } else if (d_ != want_) {           \
        EDUCE_FAIL();                     \
      }                                   \
    }                                     \
  } while (0)

#define EDUCE_OP_GET_STRUCTURE(ins)                      \
  do {                                                   \
    const Cell d_ = Deref(x_[(ins).a]);                  \
    if (d_.tag() == Tag::kRef) {                         \
      const uint64_t base_ = PushHeap(Cell::Fun((ins).c)); \
      Bind(d_.addr(), Cell::Str(base_));                 \
      write_mode_ = true;                                \
    } else if (d_.tag() == Tag::kStr &&                  \
               heap_[d_.addr()] == Cell::Fun((ins).c)) { \
      s_ = d_.addr() + 1;                                \
      write_mode_ = false;                               \
    } else {                                             \
      EDUCE_FAIL();                                      \
    }                                                    \
  } while (0)

#define EDUCE_OP_GET_LIST(ins)                  \
  do {                                          \
    const Cell d_ = Deref(x_[(ins).a]);         \
    if (d_.tag() == Tag::kRef) {                \
      Bind(d_.addr(), Cell::Lis(heap_.size())); \
      write_mode_ = true;                       \
    } else if (d_.tag() == Tag::kLis) {         \
      s_ = d_.addr();                           \
      write_mode_ = false;                      \
    } else {                                    \
      EDUCE_FAIL();                             \
    }                                           \
  } while (0)

#define EDUCE_OP_UNIFY_VARIABLE_X(ins) \
  do {                                 \
    if (write_mode_) {                 \
      x_[(ins).b] = NewVar();          \
    } else {                           \
      x_[(ins).b] = heap_[s_++];       \
    }                                  \
  } while (0)

#define EDUCE_OP_PUT_VALUE_X(ins) x_[(ins).a] = x_[(ins).b]
#define EDUCE_OP_PUT_VALUE_Y(ins) x_[(ins).a] = YSlot((ins).b)
#define EDUCE_OP_PROCEED() p_ = cp_

#define EDUCE_OP_CALL(ins)                                  \
  do {                                                      \
    cp_ = p_;                                               \
    EDUCE_RETURN_IF_ERROR(CallProcedure((ins).c, (ins).b)); \
    if (query_failed_) return false;                        \
  } while (0)

base::Result<bool> Machine::Run() {
#if EDUCE_USE_THREADED
  // Direct-threaded dispatch table, indexed by opcode value masked to the
  // table size so corrupt bytes land on the bad-op handler, never OOB.
  static const void* const kDispatch[kDispatchSlots] = {
#define EDUCE_LABEL_ADDR(name) &&L_##name,
      EDUCE_OPCODE_LIST(EDUCE_LABEL_ADDR)
#undef EDUCE_LABEL_ADDR
      &&L_badop, &&L_badop, &&L_badop, &&L_badop, &&L_badop,
  };
  static_assert(kOpcodeCount + 5 == kDispatchSlots,
                "adjust the dispatch-table bad-op padding");
#endif

  // Instruction fetch goes through a raw pointer refreshed only when
  // control moves to another code object; retained_ entries are stable
  // shared_ptrs to immutable LinkedCode, so the pointer cannot dangle.
  uint32_t fetch_id = p_.code_id;
  const LinkedCode* fetch_code = retained_[fetch_id].get();
  Instruction instr;   // current instruction (slot 1 of a fused pair)
  Instruction instr2;  // slot 2 of a fused pair
  uint32_t prev_op = UINT32_MAX;  // digram predecessor (profiling only)

dispatch:
  ++stats_.instructions;
  if (options_.max_steps != 0 && stats_.instructions > options_.max_steps) {
    return base::Status::ResourceExhausted("step budget exceeded");
  }
  if (p_.code_id != fetch_id) {
    fetch_id = p_.code_id;
    fetch_code = retained_[fetch_id].get();
  }
  instr = fetch_code->code[p_.offset];
  ++p_.offset;

  // The profiling gate (DESIGN.md §11): off = this one predictable
  // branch; on = class counters (both halves of a fused pair), the
  // digram histogram, and the heap high-water check.
  if (profiling_) {
    const uint8_t op = static_cast<uint8_t>(instr.op) &
                       static_cast<uint8_t>(kDispatchSlots - 1);
    const OpClassInfo ci = kOpClassTable[op];
    ++profile_.op_class[ci.first];
    if (ci.second != OpClassInfo::kNoClass) ++profile_.op_class[ci.second];
    if (prev_op != UINT32_MAX) {
      profile_.RecordDigram(static_cast<uint8_t>(prev_op), op);
    }
    prev_op = op;
    if (heap_.size() > profile_.heap_high_water) {
      profile_.heap_high_water = heap_.size();
    }
  }

#if EDUCE_USE_THREADED
  goto* kDispatch[static_cast<uint8_t>(instr.op) &
                  static_cast<uint8_t>(kDispatchSlots - 1)];
#else
  switch (instr.op) {
#endif

  // ---- head ---------------------------------------------------------
  EDUCE_CASE(kGetVariableX) {
    x_[instr.b] = x_[instr.a];
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetVariableY) {
    YSlot(instr.b) = x_[instr.a];
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetValueX) {
    if (!Unify(x_[instr.b], x_[instr.a])) EDUCE_FAIL();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetValueY) {
    if (!Unify(YSlot(instr.b), x_[instr.a])) EDUCE_FAIL();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetConstant) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Con(instr.c));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetInteger) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Int(static_cast<int64_t>(instr.imm)));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetFloat) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::FltFromBits(instr.imm));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetStructure) {
    EDUCE_OP_GET_STRUCTURE(instr);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetList) {
    EDUCE_OP_GET_LIST(instr);
    EDUCE_NEXT;
  }

  // ---- unify --------------------------------------------------------
  EDUCE_CASE(kUnifyVariableX) {
    EDUCE_OP_UNIFY_VARIABLE_X(instr);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyVariableY) {
    if (write_mode_) {
      YSlot(instr.b) = NewVar();
    } else {
      YSlot(instr.b) = heap_[s_++];
    }
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyValueX) {
    if (write_mode_) {
      PushHeap(x_[instr.b]);
    } else if (!Unify(x_[instr.b], heap_[s_++])) {
      EDUCE_FAIL();
    }
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyValueY) {
    if (write_mode_) {
      PushHeap(YSlot(instr.b));
    } else if (!Unify(YSlot(instr.b), heap_[s_++])) {
      EDUCE_FAIL();
    }
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyConstant) {
    EDUCE_OP_UNIFY_ATOMIC(Cell::Con(instr.c));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyInteger) {
    EDUCE_OP_UNIFY_ATOMIC(Cell::Int(static_cast<int64_t>(instr.imm)));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyFloat) {
    EDUCE_OP_UNIFY_ATOMIC(Cell::FltFromBits(instr.imm));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kUnifyVoid) {
    if (write_mode_) {
      for (uint16_t i = 0; i < instr.b; ++i) NewVar();
    } else {
      s_ += instr.b;
    }
    EDUCE_NEXT;
  }

  // ---- body ---------------------------------------------------------
  EDUCE_CASE(kPutVariableX) {
    const Cell var = NewVar();
    x_[instr.b] = var;
    x_[instr.a] = var;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutVariableY) {
    const Cell var = NewVar();
    YSlot(instr.b) = var;
    x_[instr.a] = var;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutValueX) {
    EDUCE_OP_PUT_VALUE_X(instr);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutValueY) {
    EDUCE_OP_PUT_VALUE_Y(instr);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutConstant) {
    x_[instr.a] = Cell::Con(instr.c);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutInteger) {
    x_[instr.a] = Cell::Int(static_cast<int64_t>(instr.imm));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutFloat) {
    x_[instr.a] = Cell::FltFromBits(instr.imm);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutStructure) {
    const uint64_t base = PushHeap(Cell::Fun(instr.c));
    x_[instr.a] = Cell::Str(base);
    write_mode_ = true;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kPutList) {
    x_[instr.a] = Cell::Lis(heap_.size());
    write_mode_ = true;
    EDUCE_NEXT;
  }

  // ---- control ------------------------------------------------------
  EDUCE_CASE(kAllocate) {
    const size_t protect = or_stack_.empty() ? 0 : or_stack_.back().protect;
    const size_t base = std::max(stack_top_, protect);
    const size_t need = base + kFrameHeader + instr.b;
    if (stack_.size() < need) stack_.resize(need + 64);
    stack_[base] = Cell{e_};
    stack_[base + 1] =
        Cell{(static_cast<uint64_t>(cp_.code_id) << 32) | cp_.offset};
    stack_[base + 2] = Cell{static_cast<uint64_t>(instr.b)};
    for (uint16_t i = 0; i < instr.b; ++i) {
      stack_[base + kFrameHeader + i] = Cell::Int(0);
    }
    e_ = base;
    stack_top_ = need;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kDeallocate) {
    const uint64_t saved_cp = stack_[e_ + 1].raw;
    cp_ = CodePtr{static_cast<uint32_t>(saved_cp >> 32),
                  static_cast<uint32_t>(saved_cp)};
    stack_top_ = e_;
    e_ = stack_[e_].raw;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kCall) {
    EDUCE_OP_CALL(instr);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kExecute) {
    EDUCE_RETURN_IF_ERROR(CallProcedure(instr.c, instr.b));
    if (query_failed_) return false;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kProceed) {
    EDUCE_OP_PROCEED();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kGetLevel) {
    YSlot(instr.b) = Cell::Int(static_cast<int64_t>(b0_));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kCut) {
    const size_t level = static_cast<size_t>(YSlot(instr.b).int_value());
    if (or_stack_.size() > level) or_stack_.resize(level);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kBuiltin) {
    const BuiltinFn& fn = program_->builtins()->fn(instr.c);
    BuiltinResult r = fn(this, instr.b);
    bool failed = false;
    EDUCE_ASSIGN_OR_RETURN(bool tail, HandleBuiltinResult(r, &failed));
    if (failed) EDUCE_FAIL();
    if (tail) {
      // A metacall in last position (next instruction is the clause's
      // kProceed) is a true tail transfer: the callee returns straight
      // to our caller. Setting cp_ to the kProceed would make that
      // kProceed its own continuation — an infinite loop.
      if (At(p_).op != Opcode::kProceed) cp_ = p_;
      EDUCE_RETURN_IF_ERROR(CallProcedure(pending_functor_, pending_arity_));
      if (query_failed_) return false;
    }
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFail) {
    EDUCE_FAIL();
  }

  // ---- choice -------------------------------------------------------
  EDUCE_CASE(kTryMeElse) {
    PushChoicePoint(fetch_code->arity, CodePtr{p_.code_id, instr.c}, nullptr,
                    CodePtr{});
    EDUCE_NEXT;
  }
  EDUCE_CASE(kRetryMeElse) {
    or_stack_.back().resume = CodePtr{p_.code_id, instr.c};
    EDUCE_NEXT;
  }
  EDUCE_CASE(kTrustMe) {
    or_stack_.pop_back();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kTry) {
    PushChoicePoint(fetch_code->arity, p_, nullptr, CodePtr{});
    p_.offset = instr.c;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kRetry) {
    or_stack_.back().resume = p_;
    p_.offset = instr.c;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kTrust) {
    or_stack_.pop_back();
    p_.offset = instr.c;
    EDUCE_NEXT;
  }

  // ---- indexing -----------------------------------------------------
  EDUCE_CASE(kSwitchOnTerm) {
    const SwitchTable& table = fetch_code->tables[instr.c];
    const Cell d = Deref(x_[0]);
    uint32_t target = kFailTarget;
    switch (d.tag()) {
      case Tag::kRef: target = table.on_var; break;
      case Tag::kCon: target = table.on_atom; break;
      case Tag::kInt:
      case Tag::kFlt: target = table.on_number; break;
      case Tag::kLis: target = table.on_list; break;
      case Tag::kStr: target = table.on_struct; break;
      default: break;
    }
    if (target == kFailTarget) EDUCE_FAIL();
    p_.offset = target;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kSwitchOnConstant) {
    const SwitchTable& table = fetch_code->tables[instr.c];
    const Cell d = Deref(x_[0]);
    auto it = table.entries.find(d.symbol());
    const uint32_t target =
        it != table.entries.end() ? it->second : table.default_target;
    if (target == kFailTarget) EDUCE_FAIL();
    p_.offset = target;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kSwitchOnInteger) {
    const SwitchTable& table = fetch_code->tables[instr.c];
    const Cell d = Deref(x_[0]);
    const uint64_t key = d.tag() == Tag::kInt
                             ? static_cast<uint64_t>(d.int_value())
                             : d.float_bits();
    auto it = table.entries.find(key);
    const uint32_t target =
        it != table.entries.end() ? it->second : table.default_target;
    if (target == kFailTarget) EDUCE_FAIL();
    p_.offset = target;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kSwitchOnStructure) {
    const SwitchTable& table = fetch_code->tables[instr.c];
    const Cell d = Deref(x_[0]);
    // The functor cell of the struct.
    auto it = table.entries.find(heap_[d.addr()].symbol());
    const uint32_t target =
        it != table.entries.end() ? it->second : table.default_target;
    if (target == kFailTarget) EDUCE_FAIL();
    p_.offset = target;
    EDUCE_NEXT;
  }

  EDUCE_CASE(kJump) {
    p_.offset = instr.c;
    EDUCE_NEXT;
  }
  EDUCE_CASE(kHalt) {
    return true;
  }

  // ---- superinstructions (link-time fusion, DESIGN.md §14) ----------
  EDUCE_CASE(kFusedGetConstantGetConstant) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Con(instr.c));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_GET_ATOMIC(instr2, Cell::Con(instr2.c));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetIntegerGetInteger) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Int(static_cast<int64_t>(instr.imm)));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_GET_ATOMIC(instr2, Cell::Int(static_cast<int64_t>(instr2.imm)));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetConstantGetInteger) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Con(instr.c));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_GET_ATOMIC(instr2, Cell::Int(static_cast<int64_t>(instr2.imm)));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetIntegerGetConstant) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Int(static_cast<int64_t>(instr.imm)));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_GET_ATOMIC(instr2, Cell::Con(instr2.c));
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetConstantProceed) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Con(instr.c));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_PROCEED();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetIntegerProceed) {
    EDUCE_OP_GET_ATOMIC(instr, Cell::Int(static_cast<int64_t>(instr.imm)));
    EDUCE_FETCH_SECOND();
    EDUCE_OP_PROCEED();
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetStructureUnifyVariableX) {
    EDUCE_OP_GET_STRUCTURE(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_UNIFY_VARIABLE_X(instr2);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedGetListUnifyVariableX) {
    EDUCE_OP_GET_LIST(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_UNIFY_VARIABLE_X(instr2);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedUnifyVariableXUnifyVariableX) {
    EDUCE_OP_UNIFY_VARIABLE_X(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_UNIFY_VARIABLE_X(instr2);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedPutValueYPutValueY) {
    EDUCE_OP_PUT_VALUE_Y(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_PUT_VALUE_Y(instr2);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedPutValueXCall) {
    EDUCE_OP_PUT_VALUE_X(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_CALL(instr2);
    EDUCE_NEXT;
  }
  EDUCE_CASE(kFusedPutValueYCall) {
    EDUCE_OP_PUT_VALUE_Y(instr);
    EDUCE_FETCH_SECOND();
    EDUCE_OP_CALL(instr2);
    EDUCE_NEXT;
  }

  EDUCE_BAD_OP {
    return base::Status::Internal(
        "unimplemented opcode " + std::to_string(static_cast<int>(instr.op)));
  }

#if !EDUCE_USE_THREADED
  }  // switch
#endif
  return base::Status::Internal("dispatch fell through");
}

#undef EDUCE_OP_CALL
#undef EDUCE_OP_PROCEED
#undef EDUCE_OP_PUT_VALUE_Y
#undef EDUCE_OP_PUT_VALUE_X
#undef EDUCE_OP_UNIFY_VARIABLE_X
#undef EDUCE_OP_GET_LIST
#undef EDUCE_OP_GET_STRUCTURE
#undef EDUCE_OP_UNIFY_ATOMIC
#undef EDUCE_OP_GET_ATOMIC
#undef EDUCE_FETCH_SECOND
#undef EDUCE_FAIL
#undef EDUCE_NEXT
#undef EDUCE_BAD_OP
#undef EDUCE_CASE

// ---------------------------------------------------------------------------
// Term import/export
// ---------------------------------------------------------------------------

base::Result<Cell> Machine::ImportAst(const term::Ast& t,
                                      std::vector<Cell>* var_cells) {
  switch (t.kind) {
    case term::Ast::Kind::kVar: {
      if (t.var_index >= var_cells->size()) {
        var_cells->resize(t.var_index + 1, Cell{});
      }
      Cell& slot = (*var_cells)[t.var_index];
      if (slot == Cell{}) slot = NewVar();
      return slot;
    }
    case term::Ast::Kind::kAtom:
      return Cell::Con(t.functor);
    case term::Ast::Kind::kInt:
      return Cell::Int(t.int_value);
    case term::Ast::Kind::kFloat:
      return Cell::Flt(t.float_value);
    case term::Ast::Kind::kStruct: {
      std::vector<Cell> args;
      args.reserve(t.args.size());
      for (const auto& arg : t.args) {
        EDUCE_ASSIGN_OR_RETURN(Cell c, ImportAst(*arg, var_cells));
        args.push_back(c);
      }
      // '.'/2 is a list cell, as the compiler builds it: a structure
      // would never unify with [H|T].
      if (t.functor == dot_symbol_ && args.size() == 2) {
        return NewList(args[0], args[1]);
      }
      return NewStruct(t.functor, args);
    }
  }
  return base::Status::Internal("bad ast kind");
}

term::AstPtr Machine::ExportCell(Cell cell,
                                 std::map<uint64_t, uint32_t>* var_map) const {
  const Cell d = Deref(cell);
  switch (d.tag()) {
    case Tag::kRef: {
      auto [it, inserted] =
          var_map->try_emplace(d.addr(),
                               static_cast<uint32_t>(var_map->size()));
      return term::MakeVar(it->second, "_G" + std::to_string(it->second));
    }
    case Tag::kCon:
      return term::MakeAtom(d.symbol());
    case Tag::kInt:
      return term::MakeInt(d.int_value());
    case Tag::kFlt:
      return term::MakeFloat(d.float_value());
    case Tag::kLis:
      return term::MakeStruct(
          dot_symbol_, {ExportCell(heap_[d.addr()], var_map),
                        ExportCell(heap_[d.addr() + 1], var_map)});
    case Tag::kStr: {
      const dict::SymbolId functor = heap_[d.addr()].symbol();
      const uint32_t arity = program_->dictionary()->ArityOf(functor);
      std::vector<term::AstPtr> args;
      args.reserve(arity);
      for (uint32_t i = 1; i <= arity; ++i) {
        args.push_back(ExportCell(heap_[d.addr() + i], var_map));
      }
      return term::MakeStruct(functor, std::move(args));
    }
    default:
      assert(false && "kFun cannot be exported directly");
      return term::MakeInt(0);
  }
}

term::AstPtr Machine::ExportVar(uint32_t index,
                                std::map<uint64_t, uint32_t>* var_map) const {
  return ExportCell(query_roots_[index], var_map);
}

int Machine::Compare(Cell a, Cell b) const {
  const Cell da = Deref(a);
  const Cell db = Deref(b);

  auto rank = [](const Cell& c) {
    switch (c.tag()) {
      case Tag::kRef: return 0;
      case Tag::kFlt: return 1;
      case Tag::kInt: return 1;
      case Tag::kCon: return 2;
      case Tag::kLis:
      case Tag::kStr: return 3;
      default: return 4;
    }
  };
  const int ra = rank(da);
  const int rb = rank(db);
  if (ra != rb) return ra < rb ? -1 : 1;

  const dict::Dictionary& dict = *program_->dictionary();
  switch (ra) {
    case 0:  // variables: by heap address
      return da.addr() < db.addr() ? -1 : (da.addr() == db.addr() ? 0 : 1);
    case 1: {  // numbers: by value (int/float mixed)
      const double va = da.tag() == Tag::kInt
                            ? static_cast<double>(da.int_value())
                            : da.float_value();
      const double vb = db.tag() == Tag::kInt
                            ? static_cast<double>(db.int_value())
                            : db.float_value();
      if (va < vb) return -1;
      if (va > vb) return 1;
      // Same numeric value: float < int per standard order of terms.
      const int ta = da.tag() == Tag::kFlt ? 0 : 1;
      const int tb = db.tag() == Tag::kFlt ? 0 : 1;
      return ta < tb ? -1 : (ta == tb ? 0 : 1);
    }
    case 2: {  // atoms: by name
      const auto na = dict.NameOf(da.symbol());
      const auto nb = dict.NameOf(db.symbol());
      return na < nb ? -1 : (na == nb ? 0 : 1);
    }
    default: {  // compounds: arity, then name, then args
      dict::SymbolId fa, fb;
      uint32_t aa, ab;
      uint64_t pa, pb;
      if (da.tag() == Tag::kLis) {
        aa = 2;
        fa = dict::kInvalidSymbol;
        pa = da.addr() - 1;  // args at pa+1, pa+2
      } else {
        fa = heap_[da.addr()].symbol();
        aa = dict.ArityOf(fa);
        pa = da.addr();
      }
      if (db.tag() == Tag::kLis) {
        ab = 2;
        fb = dict::kInvalidSymbol;
        pb = db.addr() - 1;
      } else {
        fb = heap_[db.addr()].symbol();
        ab = dict.ArityOf(fb);
        pb = db.addr();
      }
      if (aa != ab) return aa < ab ? -1 : 1;
      const std::string_view na =
          fa == dict::kInvalidSymbol ? "." : dict.NameOf(fa);
      const std::string_view nb =
          fb == dict::kInvalidSymbol ? "." : dict.NameOf(fb);
      if (na != nb) return na < nb ? -1 : 1;
      for (uint32_t i = 1; i <= aa; ++i) {
        const int c = Compare(heap_[pa + i], heap_[pb + i]);
        if (c != 0) return c;
      }
      return 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Garbage collection: sliding (order-preserving) collector over the heap.
// Order preservation keeps H-reset backtracking valid: any cell allocated
// after a choice point slides to a position >= the relocated saved H.
// ---------------------------------------------------------------------------

void Machine::MarkCell(Cell cell, std::vector<uint8_t>* marked,
                       std::vector<uint64_t>* work) const {
  switch (cell.tag()) {
    case Tag::kRef:
      work->push_back(cell.addr());
      break;
    case Tag::kStr:
      // The functor cell; the loop's kFun case pushes the arguments.
      work->push_back(cell.addr());
      break;
    case Tag::kLis:
      // Both cells of the cons pair are live.
      work->push_back(cell.addr());
      work->push_back(cell.addr() + 1);
      break;
    default:
      break;
  }
  while (!work->empty()) {
    const uint64_t addr = work->back();
    work->pop_back();
    if ((*marked)[addr]) continue;
    (*marked)[addr] = 1;
    const Cell c = heap_[addr];
    switch (c.tag()) {
      case Tag::kRef:
        if (c.addr() != addr) work->push_back(c.addr());
        break;
      case Tag::kLis:
        work->push_back(c.addr());
        work->push_back(c.addr() + 1);
        break;
      case Tag::kStr: {
        const uint64_t base = c.addr();
        if (!(*marked)[base]) {
          (*marked)[base] = 1;
          const uint32_t arity =
              program_->dictionary()->ArityOf(heap_[base].symbol());
          for (uint32_t i = 1; i <= arity; ++i) work->push_back(base + i);
        }
        break;
      }
      case Tag::kFun: {
        // A marked functor cell implies its argument cells are live (we
        // reach here when a kStr payload was pushed directly).
        const uint32_t arity =
            program_->dictionary()->ArityOf(c.symbol());
        for (uint32_t i = 1; i <= arity; ++i) work->push_back(addr + i);
        break;
      }
      default:
        break;  // immediates carry no references
    }
  }
}

void Machine::MaybeCollect(uint32_t live_args) {
  if (!options_.enable_gc) return;
  if (heap_.size() < options_.gc_threshold_cells) return;
  CollectGarbage(live_args);
  // Avoid thrashing: if the heap is still mostly full, raise the bar.
  if (heap_.size() * 4 > options_.gc_threshold_cells * 3) {
    options_.gc_threshold_cells *= 2;
  }
}

void Machine::CollectGarbage(uint32_t live_args) {
  ++stats_.gc_runs;
  const size_t old_size = heap_.size();
  std::vector<uint8_t> marked(old_size, 0);
  marked[0] = 1;  // the reserved sentinel cell never moves
  std::vector<uint64_t> work;

  // Roots: query roots, live argument registers, choice-point saved
  // arguments, environment frames (reachable from E and every CP), and
  // trailed addresses (kept valid so backtracking can reset them).
  for (const Cell& root : query_roots_) MarkCell(root, &marked, &work);
  for (uint32_t i = 0; i < live_args; ++i) MarkCell(x_[i], &marked, &work);
  for (const ChoicePoint& cp : or_stack_) {
    for (const Cell& arg : cp.args) MarkCell(arg, &marked, &work);
  }
  for (const uint64_t addr : trail_) {
    MarkCell(Cell::Ref(addr), &marked, &work);
  }

  // Environment frames: every frame reachable from the current E chain or
  // any choice point's saved E chain.
  std::vector<uint64_t> frame_bases;
  {
    std::vector<uint8_t> seen_frames;
    auto walk = [&](uint64_t e) {
      while (e != kNoFrame) {
        if (e < seen_frames.size() && seen_frames[e]) break;
        if (seen_frames.size() <= e) seen_frames.resize(e + 1, 0);
        seen_frames[e] = 1;
        frame_bases.push_back(e);
        const uint64_t n = stack_[e + 2].raw;
        for (uint64_t i = 0; i < n; ++i) {
          MarkCell(stack_[e + kFrameHeader + i], &marked, &work);
        }
        e = stack_[e].raw;
      }
    };
    walk(e_);
    for (const ChoicePoint& cp : or_stack_) walk(cp.saved_e);
  }

  // Forwarding table: forward[i] = number of live cells below i.
  std::vector<uint64_t> forward(old_size + 1);
  uint64_t live = 0;
  for (size_t i = 0; i < old_size; ++i) {
    forward[i] = live;
    if (marked[i]) ++live;
  }
  forward[old_size] = live;

  auto relocate = [&](Cell c) -> Cell {
    switch (c.tag()) {
      case Tag::kRef: return Cell::Ref(forward[c.addr()]);
      case Tag::kStr: return Cell::Str(forward[c.addr()]);
      case Tag::kLis: return Cell::Lis(forward[c.addr()]);
      default: return c;
    }
  };

  // Slide.
  for (size_t i = 0; i < old_size; ++i) {
    if (marked[i]) heap_[forward[i]] = relocate(heap_[i]);
  }
  heap_.resize(live);

  // Relocate all roots.
  for (Cell& root : query_roots_) root = relocate(root);
  for (uint32_t i = 0; i < live_args; ++i) x_[i] = relocate(x_[i]);
  for (ChoicePoint& cp : or_stack_) {
    for (Cell& arg : cp.args) arg = relocate(arg);
    cp.saved_heap_top = forward[cp.saved_heap_top];
  }
  for (uint64_t& addr : trail_) addr = forward[addr];
  for (const uint64_t e : frame_bases) {
    const uint64_t n = stack_[e + 2].raw;
    for (uint64_t i = 0; i < n; ++i) {
      stack_[e + kFrameHeader + i] = relocate(stack_[e + kFrameHeader + i]);
    }
  }

  stats_.cells_collected += old_size - live;
}

}  // namespace educe::wam
