#include "wam/builtins.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "reader/parser.h"
#include "reader/writer.h"
#include "term/cell.h"
#include "wam/machine.h"

namespace educe::wam {

using term::Cell;
using term::Tag;

namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

BuiltinResult Err(Machine* m, base::Status status) {
  m->SetBuiltinError(std::move(status));
  return BuiltinResult::kError;
}

BuiltinResult Bool(bool b) {
  return b ? BuiltinResult::kTrue : BuiltinResult::kFalse;
}

/// Arithmetic value: exact integer or double.
struct Num {
  bool is_float = false;
  int64_t i = 0;
  double f = 0;

  double AsDouble() const { return is_float ? f : static_cast<double>(i); }
  static Num OfInt(int64_t v) { return Num{false, v, 0}; }
  static Num OfFloat(double v) { return Num{true, 0, v}; }
  Cell ToCell() const { return is_float ? Cell::Flt(f) : Cell::Int(i); }
};

base::Result<Num> Eval(Machine* m, Cell c);

base::Result<Num> EvalBinary(Machine* m, std::string_view op, Cell lhs_cell,
                             Cell rhs_cell) {
  EDUCE_ASSIGN_OR_RETURN(Num a, Eval(m, lhs_cell));
  EDUCE_ASSIGN_OR_RETURN(Num b, Eval(m, rhs_cell));
  const bool both_int = !a.is_float && !b.is_float;
  if (op == "+") {
    return both_int ? Num::OfInt(a.i + b.i)
                    : Num::OfFloat(a.AsDouble() + b.AsDouble());
  }
  if (op == "-") {
    return both_int ? Num::OfInt(a.i - b.i)
                    : Num::OfFloat(a.AsDouble() - b.AsDouble());
  }
  if (op == "*") {
    return both_int ? Num::OfInt(a.i * b.i)
                    : Num::OfFloat(a.AsDouble() * b.AsDouble());
  }
  if (op == "/") {
    if (both_int) {
      if (b.i == 0) return base::Status::InvalidArgument("zero divisor");
      if (a.i % b.i == 0) return Num::OfInt(a.i / b.i);
    }
    if (b.AsDouble() == 0) return base::Status::InvalidArgument("zero divisor");
    return Num::OfFloat(a.AsDouble() / b.AsDouble());
  }
  if (op == "//") {
    if (!both_int) return base::Status::TypeError("// needs integers");
    if (b.i == 0) return base::Status::InvalidArgument("zero divisor");
    // Floor division (ISO).
    int64_t q = a.i / b.i;
    if ((a.i % b.i != 0) && ((a.i < 0) != (b.i < 0))) --q;
    return Num::OfInt(q);
  }
  if (op == "mod") {
    if (!both_int) return base::Status::TypeError("mod needs integers");
    if (b.i == 0) return base::Status::InvalidArgument("zero divisor");
    int64_t r = a.i % b.i;
    if (r != 0 && ((r < 0) != (b.i < 0))) r += b.i;
    return Num::OfInt(r);
  }
  if (op == "rem") {
    if (!both_int) return base::Status::TypeError("rem needs integers");
    if (b.i == 0) return base::Status::InvalidArgument("zero divisor");
    return Num::OfInt(a.i % b.i);
  }
  if (op == "min") {
    return a.AsDouble() <= b.AsDouble() ? a : b;
  }
  if (op == "max") {
    return a.AsDouble() >= b.AsDouble() ? a : b;
  }
  if (op == ">>") {
    if (!both_int) return base::Status::TypeError(">> needs integers");
    return Num::OfInt(a.i >> b.i);
  }
  if (op == "<<") {
    if (!both_int) return base::Status::TypeError("<< needs integers");
    return Num::OfInt(a.i << b.i);
  }
  if (op == "/\\") {
    if (!both_int) return base::Status::TypeError("/\\ needs integers");
    return Num::OfInt(a.i & b.i);
  }
  if (op == "\\/") {
    if (!both_int) return base::Status::TypeError("\\/ needs integers");
    return Num::OfInt(a.i | b.i);
  }
  if (op == "xor") {
    if (!both_int) return base::Status::TypeError("xor needs integers");
    return Num::OfInt(a.i ^ b.i);
  }
  if (op == "**") {
    return Num::OfFloat(std::pow(a.AsDouble(), b.AsDouble()));
  }
  if (op == "^") {
    if (both_int) {
      if (b.i < 0) return base::Status::TypeError("negative integer power");
      int64_t result = 1, base_v = a.i, exp = b.i;
      while (exp > 0) {
        if (exp & 1) result *= base_v;
        base_v *= base_v;
        exp >>= 1;
      }
      return Num::OfInt(result);
    }
    return Num::OfFloat(std::pow(a.AsDouble(), b.AsDouble()));
  }
  return base::Status::TypeError("unknown arithmetic operator " +
                                 std::string(op));
}

base::Result<Num> EvalUnary(Machine* m, std::string_view op, Cell arg_cell) {
  EDUCE_ASSIGN_OR_RETURN(Num a, Eval(m, arg_cell));
  if (op == "-") {
    return a.is_float ? Num::OfFloat(-a.f) : Num::OfInt(-a.i);
  }
  if (op == "+") return a;
  if (op == "abs") {
    return a.is_float ? Num::OfFloat(std::fabs(a.f))
                      : Num::OfInt(a.i < 0 ? -a.i : a.i);
  }
  if (op == "sign") {
    const double v = a.AsDouble();
    return a.is_float ? Num::OfFloat(v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0))
                      : Num::OfInt(v > 0 ? 1 : (v < 0 ? -1 : 0));
  }
  if (op == "float") return Num::OfFloat(a.AsDouble());
  if (op == "integer" || op == "truncate") {
    return Num::OfInt(static_cast<int64_t>(a.AsDouble()));
  }
  if (op == "floor") {
    return Num::OfInt(static_cast<int64_t>(std::floor(a.AsDouble())));
  }
  if (op == "ceiling") {
    return Num::OfInt(static_cast<int64_t>(std::ceil(a.AsDouble())));
  }
  if (op == "round") {
    return Num::OfInt(static_cast<int64_t>(std::llround(a.AsDouble())));
  }
  if (op == "sqrt") return Num::OfFloat(std::sqrt(a.AsDouble()));
  if (op == "sin") return Num::OfFloat(std::sin(a.AsDouble()));
  if (op == "cos") return Num::OfFloat(std::cos(a.AsDouble()));
  if (op == "atan") return Num::OfFloat(std::atan(a.AsDouble()));
  if (op == "log") return Num::OfFloat(std::log(a.AsDouble()));
  if (op == "exp") return Num::OfFloat(std::exp(a.AsDouble()));
  if (op == "\\") {
    if (a.is_float) return base::Status::TypeError("\\ needs an integer");
    return Num::OfInt(~a.i);
  }
  return base::Status::TypeError("unknown arithmetic operator " +
                                 std::string(op));
}

base::Result<Num> Eval(Machine* m, Cell c) {
  const Cell d = m->Deref(c);
  const dict::Dictionary& dict = *m->dictionary();
  switch (d.tag()) {
    case Tag::kInt:
      return Num::OfInt(d.int_value());
    case Tag::kFlt:
      return Num::OfFloat(d.float_value());
    case Tag::kRef:
      return base::Status::InstantiationError(
          "unbound variable in arithmetic");
    case Tag::kCon: {
      const std::string_view name = dict.NameOf(d.symbol());
      if (name == "pi") return Num::OfFloat(M_PI);
      if (name == "e") return Num::OfFloat(M_E);
      if (name == "inf" || name == "infinite") {
        return Num::OfFloat(HUGE_VAL);
      }
      return base::Status::TypeError("atom " + std::string(name) +
                                     " is not an arithmetic expression");
    }
    case Tag::kStr: {
      const dict::SymbolId functor = m->HeapAt(d.addr()).symbol();
      const std::string_view name = dict.NameOf(functor);
      const uint32_t arity = dict.ArityOf(functor);
      if (arity == 1) {
        return EvalUnary(m, name, m->HeapAt(d.addr() + 1));
      }
      if (arity == 2) {
        return EvalBinary(m, name, m->HeapAt(d.addr() + 1),
                          m->HeapAt(d.addr() + 2));
      }
      return base::Status::TypeError("bad arithmetic term");
    }
    default:
      return base::Status::TypeError("bad arithmetic term");
  }
}

// Arithmetic comparison: -1/0/1, exact for int pairs.
base::Result<int> NumCompare(Machine* m, Cell a_cell, Cell b_cell) {
  EDUCE_ASSIGN_OR_RETURN(Num a, Eval(m, a_cell));
  EDUCE_ASSIGN_OR_RETURN(Num b, Eval(m, b_cell));
  if (!a.is_float && !b.is_float) {
    return a.i < b.i ? -1 : (a.i == b.i ? 0 : 1);
  }
  const double da = a.AsDouble();
  const double db = b.AsDouble();
  return da < db ? -1 : (da == db ? 0 : 1);
}

// ---------------------------------------------------------------------------
// Type tests
// ---------------------------------------------------------------------------

bool IsListTerm(Machine* m, Cell c) {
  Cell d = m->Deref(c);
  const dict::Dictionary& dict = *m->dictionary();
  while (d.tag() == Tag::kLis) {
    d = m->Deref(m->HeapAt(d.addr() + 1));
  }
  return d.tag() == Tag::kCon && dict.NameOf(d.symbol()) == "[]";
}

bool IsGround(Machine* m, Cell c) {
  const Cell d = m->Deref(c);
  switch (d.tag()) {
    case Tag::kRef:
      return false;
    case Tag::kLis:
      return IsGround(m, m->HeapAt(d.addr())) &&
             IsGround(m, m->HeapAt(d.addr() + 1));
    case Tag::kStr: {
      const uint32_t arity =
          m->dictionary()->ArityOf(m->HeapAt(d.addr()).symbol());
      for (uint32_t i = 1; i <= arity; ++i) {
        if (!IsGround(m, m->HeapAt(d.addr() + i))) return false;
      }
      return true;
    }
    default:
      return true;
  }
}

// ---------------------------------------------------------------------------
// List build/walk helpers
// ---------------------------------------------------------------------------

Cell NilCell(Machine* m) {
  return Cell::Con(m->dictionary()->Intern("[]", 0).ValueOr(0));
}

base::Result<std::vector<Cell>> ListToCells(Machine* m, Cell list) {
  std::vector<Cell> out;
  Cell d = m->Deref(list);
  while (d.tag() == Tag::kLis) {
    out.push_back(m->HeapAt(d.addr()));
    d = m->Deref(m->HeapAt(d.addr() + 1));
  }
  if (d.tag() == Tag::kCon &&
      m->dictionary()->NameOf(d.symbol()) == "[]") {
    return out;
  }
  if (d.tag() == Tag::kRef) {
    return base::Status::InstantiationError("partial list");
  }
  return base::Status::TypeError("not a list");
}

Cell CellsToList(Machine* m, const std::vector<Cell>& cells) {
  Cell list = NilCell(m);
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
    list = m->NewList(*it, list);
  }
  return list;
}

Cell CodesToList(Machine* m, std::string_view text) {
  std::vector<Cell> cells;
  cells.reserve(text.size());
  for (unsigned char c : text) cells.push_back(Cell::Int(c));
  return CellsToList(m, cells);
}

base::Result<std::string> ListToCodes(Machine* m, Cell list) {
  EDUCE_ASSIGN_OR_RETURN(std::vector<Cell> cells, ListToCells(m, list));
  std::string out;
  out.reserve(cells.size());
  for (Cell c : cells) {
    const Cell d = m->Deref(c);
    if (d.tag() != Tag::kInt) {
      return base::Status::TypeError("code list element is not an integer");
    }
    out.push_back(static_cast<char>(d.int_value()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// between/3 when the third argument is unbound.
class BetweenGenerator : public Generator {
 public:
  BetweenGenerator(int64_t next, int64_t high) : next_(next), high_(high) {}

  base::Result<bool> Next(Machine* machine) override {
    if (next_ > high_) return false;
    return machine->Unify(machine->X(2), Cell::Int(next_++));
  }

 private:
  int64_t next_;
  int64_t high_;
};

// ---------------------------------------------------------------------------
// The builtins
// ---------------------------------------------------------------------------

BuiltinResult BuiltinTrue(Machine*, uint32_t) { return BuiltinResult::kTrue; }
BuiltinResult BuiltinFail(Machine*, uint32_t) { return BuiltinResult::kFalse; }

BuiltinResult BuiltinUnify(Machine* m, uint32_t) {
  return Bool(m->Unify(m->X(0), m->X(1)));
}

BuiltinResult BuiltinNotUnify(Machine* m, uint32_t) {
  const size_t mark = m->TrailMark();
  const bool unified = m->Unify(m->X(0), m->X(1));
  m->UndoTo(mark);
  return Bool(!unified);
}

BuiltinResult BuiltinIs(Machine* m, uint32_t) {
  auto value = Eval(m, m->X(1));
  if (!value.ok()) return Err(m, value.status());
  return Bool(m->Unify(m->X(0), value->ToCell()));
}

template <int Op>  // -2: <, -1: =<, 0: =:=, 1: >=, 2: >, 3: =\=
BuiltinResult BuiltinArithCompare(Machine* m, uint32_t) {
  auto c = NumCompare(m, m->X(0), m->X(1));
  if (!c.ok()) return Err(m, c.status());
  switch (Op) {
    case -2: return Bool(*c < 0);
    case -1: return Bool(*c <= 0);
    case 0: return Bool(*c == 0);
    case 1: return Bool(*c >= 0);
    case 2: return Bool(*c > 0);
    default: return Bool(*c != 0);
  }
}

template <int Op>  // same encoding for standard order @</==/...
BuiltinResult BuiltinTermCompare(Machine* m, uint32_t) {
  const int c = m->Compare(m->X(0), m->X(1));
  switch (Op) {
    case -2: return Bool(c < 0);
    case -1: return Bool(c <= 0);
    case 0: return Bool(c == 0);
    case 1: return Bool(c >= 0);
    case 2: return Bool(c > 0);
    default: return Bool(c != 0);
  }
}

BuiltinResult BuiltinCompare3(Machine* m, uint32_t) {
  const int c = m->Compare(m->X(1), m->X(2));
  const char* name = c < 0 ? "<" : (c == 0 ? "=" : ">");
  auto atom = m->dictionary()->Intern(name, 0);
  if (!atom.ok()) return Err(m, atom.status());
  return Bool(m->Unify(m->X(0), Cell::Con(*atom)));
}

template <Tag T>
BuiltinResult BuiltinTagTest(Machine* m, uint32_t) {
  return Bool(m->Deref(m->X(0)).tag() == T);
}

BuiltinResult BuiltinNonvar(Machine* m, uint32_t) {
  return Bool(m->Deref(m->X(0)).tag() != Tag::kRef);
}

BuiltinResult BuiltinNumber(Machine* m, uint32_t) {
  const Tag t = m->Deref(m->X(0)).tag();
  return Bool(t == Tag::kInt || t == Tag::kFlt);
}

BuiltinResult BuiltinAtomic(Machine* m, uint32_t) {
  const Tag t = m->Deref(m->X(0)).tag();
  return Bool(t == Tag::kCon || t == Tag::kInt || t == Tag::kFlt);
}

BuiltinResult BuiltinCompound(Machine* m, uint32_t) {
  const Tag t = m->Deref(m->X(0)).tag();
  return Bool(t == Tag::kStr || t == Tag::kLis);
}

BuiltinResult BuiltinCallable(Machine* m, uint32_t) {
  const Tag t = m->Deref(m->X(0)).tag();
  return Bool(t == Tag::kCon || t == Tag::kStr || t == Tag::kLis);
}

BuiltinResult BuiltinIsList(Machine* m, uint32_t) {
  return Bool(IsListTerm(m, m->X(0)));
}

BuiltinResult BuiltinGround(Machine* m, uint32_t) {
  return Bool(IsGround(m, m->X(0)));
}

BuiltinResult BuiltinFunctor(Machine* m, uint32_t) {
  const Cell d = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  if (d.tag() != Tag::kRef) {
    Cell name;
    int64_t arity = 0;
    switch (d.tag()) {
      case Tag::kCon:
        name = d;
        break;
      case Tag::kInt:
      case Tag::kFlt:
        name = d;
        break;
      case Tag::kLis: {
        auto dot = dict->Intern(".", 0);
        if (!dot.ok()) return Err(m, dot.status());
        name = Cell::Con(*dot);
        arity = 2;
        break;
      }
      case Tag::kStr: {
        const dict::SymbolId f = m->HeapAt(d.addr()).symbol();
        auto atom = dict->Intern(dict->NameOf(f), 0);
        if (!atom.ok()) return Err(m, atom.status());
        name = Cell::Con(*atom);
        arity = dict->ArityOf(f);
        break;
      }
      default:
        return Err(m, base::Status::Internal("bad functor/3 subject"));
    }
    return Bool(m->Unify(m->X(1), name) &&
                m->Unify(m->X(2), Cell::Int(arity)));
  }

  // Construction mode.
  const Cell name = m->Deref(m->X(1));
  const Cell arity_cell = m->Deref(m->X(2));
  if (name.tag() == Tag::kRef || arity_cell.tag() == Tag::kRef) {
    return Err(m, base::Status::InstantiationError("functor/3"));
  }
  if (arity_cell.tag() != Tag::kInt) {
    return Err(m, base::Status::TypeError("functor/3 arity"));
  }
  const int64_t arity = arity_cell.int_value();
  if (arity == 0) return Bool(m->Unify(m->X(0), name));
  if (name.tag() != Tag::kCon || arity < 0 || arity > 255) {
    return Err(m, base::Status::TypeError("functor/3 name/arity"));
  }
  const std::string fname(dict->NameOf(name.symbol()));
  if (fname == "." && arity == 2) {
    const Cell cell = m->NewList(m->NewVar(), m->NewVar());
    return Bool(m->Unify(m->X(0), cell));
  }
  auto functor = dict->Intern(fname, static_cast<uint32_t>(arity));
  if (!functor.ok()) return Err(m, functor.status());
  std::vector<Cell> args;
  for (int64_t i = 0; i < arity; ++i) args.push_back(m->NewVar());
  auto built = m->NewStruct(*functor, args);
  if (!built.ok()) return Err(m, built.status());
  return Bool(m->Unify(m->X(0), *built));
}

BuiltinResult BuiltinArg(Machine* m, uint32_t) {
  const Cell n = m->Deref(m->X(0));
  const Cell t = m->Deref(m->X(1));
  if (n.tag() != Tag::kInt) {
    return Err(m, base::Status::TypeError("arg/3 index"));
  }
  const int64_t index = n.int_value();
  if (t.tag() == Tag::kStr) {
    const uint32_t arity =
        m->dictionary()->ArityOf(m->HeapAt(t.addr()).symbol());
    if (index < 1 || index > arity) return BuiltinResult::kFalse;
    return Bool(m->Unify(m->X(2), m->HeapAt(t.addr() + index)));
  }
  if (t.tag() == Tag::kLis) {
    if (index < 1 || index > 2) return BuiltinResult::kFalse;
    return Bool(m->Unify(m->X(2), m->HeapAt(t.addr() + index - 1)));
  }
  return Err(m, base::Status::TypeError("arg/3 subject is not compound"));
}

BuiltinResult BuiltinUniv(Machine* m, uint32_t) {
  const Cell t = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  if (t.tag() != Tag::kRef) {
    std::vector<Cell> items;
    switch (t.tag()) {
      case Tag::kCon:
      case Tag::kInt:
      case Tag::kFlt:
        items.push_back(t);
        break;
      case Tag::kLis: {
        auto dot = dict->Intern(".", 0);
        if (!dot.ok()) return Err(m, dot.status());
        items.push_back(Cell::Con(*dot));
        items.push_back(m->HeapAt(t.addr()));
        items.push_back(m->HeapAt(t.addr() + 1));
        break;
      }
      case Tag::kStr: {
        const dict::SymbolId f = m->HeapAt(t.addr()).symbol();
        auto atom = dict->Intern(dict->NameOf(f), 0);
        if (!atom.ok()) return Err(m, atom.status());
        items.push_back(Cell::Con(*atom));
        const uint32_t arity = dict->ArityOf(f);
        for (uint32_t i = 1; i <= arity; ++i) {
          items.push_back(m->HeapAt(t.addr() + i));
        }
        break;
      }
      default:
        return Err(m, base::Status::Internal("bad =.. subject"));
    }
    return Bool(m->Unify(m->X(1), CellsToList(m, items)));
  }

  // Construction mode.
  auto items = ListToCells(m, m->X(1));
  if (!items.ok()) return Err(m, items.status());
  if (items->empty()) {
    return Err(m, base::Status::TypeError("=.. with empty list"));
  }
  const Cell head = m->Deref((*items)[0]);
  if (items->size() == 1) return Bool(m->Unify(m->X(0), head));
  if (head.tag() != Tag::kCon) {
    return Err(m, base::Status::TypeError("=.. head is not an atom"));
  }
  const std::string name(dict->NameOf(head.symbol()));
  const uint32_t arity = static_cast<uint32_t>(items->size() - 1);
  if (name == "." && arity == 2) {
    const Cell cell = m->NewList((*items)[1], (*items)[2]);
    return Bool(m->Unify(m->X(0), cell));
  }
  auto functor = dict->Intern(name, arity);
  if (!functor.ok()) return Err(m, functor.status());
  auto built = m->NewStruct(
      *functor, std::vector<Cell>(items->begin() + 1, items->end()));
  if (!built.ok()) return Err(m, built.status());
  return Bool(m->Unify(m->X(0), *built));
}

BuiltinResult BuiltinCopyTerm(Machine* m, uint32_t) {
  std::map<uint64_t, uint32_t> var_map;
  term::AstPtr ast = m->ExportCell(m->X(0), &var_map);
  std::vector<Cell> fresh;
  auto copy = m->ImportAst(*ast, &fresh);
  if (!copy.ok()) return Err(m, copy.status());
  return Bool(m->Unify(m->X(1), *copy));
}

BuiltinResult BuiltinCall(Machine* m, uint32_t arity) {
  const Cell goal = m->Deref(m->X(0));
  const uint32_t extra = arity - 1;
  std::vector<Cell> extras;
  for (uint32_t i = 1; i < arity; ++i) extras.push_back(m->X(i));

  dict::Dictionary* dict = m->dictionary();
  if (goal.tag() == Tag::kRef) {
    return Err(m, base::Status::InstantiationError("call/N goal"));
  }
  if (goal.tag() == Tag::kCon) {
    if (extra == 0) {
      m->SetPendingCall(goal.symbol(), 0);
      return BuiltinResult::kTailCall;
    }
    auto functor = dict->Intern(dict->NameOf(goal.symbol()), extra);
    if (!functor.ok()) return Err(m, functor.status());
    for (uint32_t i = 0; i < extra; ++i) m->X(i) = extras[i];
    m->SetPendingCall(*functor, extra);
    return BuiltinResult::kTailCall;
  }
  if (goal.tag() == Tag::kStr) {
    const dict::SymbolId f = m->HeapAt(goal.addr()).symbol();
    const uint32_t n = dict->ArityOf(f);
    for (uint32_t i = 0; i < n; ++i) m->X(i) = m->HeapAt(goal.addr() + 1 + i);
    if (extra == 0) {
      m->SetPendingCall(f, n);
      return BuiltinResult::kTailCall;
    }
    auto functor = dict->Intern(dict->NameOf(f), n + extra);
    if (!functor.ok()) return Err(m, functor.status());
    for (uint32_t i = 0; i < extra; ++i) m->X(n + i) = extras[i];
    m->SetPendingCall(*functor, n + extra);
    return BuiltinResult::kTailCall;
  }
  return Err(m, base::Status::TypeError("call/N goal is not callable"));
}

BuiltinResult BuiltinBetween(Machine* m, uint32_t) {
  const Cell lo = m->Deref(m->X(0));
  const Cell hi = m->Deref(m->X(1));
  const Cell x = m->Deref(m->X(2));
  if (lo.tag() != Tag::kInt || hi.tag() != Tag::kInt) {
    return Err(m, base::Status::TypeError("between/3 bounds"));
  }
  if (x.tag() == Tag::kInt) {
    return Bool(x.int_value() >= lo.int_value() &&
                x.int_value() <= hi.int_value());
  }
  if (x.tag() != Tag::kRef) {
    return Err(m, base::Status::TypeError("between/3 subject"));
  }
  auto r = m->RunGenerator(
      std::make_unique<BetweenGenerator>(lo.int_value(), hi.int_value()), 3,
      /*at_most_one=*/lo.int_value() >= hi.int_value());
  if (!r.ok()) return Err(m, r.status());
  return Bool(*r);
}

BuiltinResult BuiltinFindall(Machine* m, uint32_t) {
  std::map<uint64_t, uint32_t> var_map;
  term::AstPtr template_ast = m->ExportCell(m->X(0), &var_map);
  term::AstPtr goal_ast = m->ExportCell(m->X(1), &var_map);
  const Cell out_cell = m->X(2);
  const uint32_t num_vars = static_cast<uint32_t>(var_map.size());

  // Run the goal to exhaustion in a sub-machine over the same program.
  MachineOptions sub_options = m->options();
  Machine sub(m->program(), sub_options);
  sub.set_resolver(m->resolver());
  sub.set_output(m->output());
  base::Status st = sub.StartQuery(goal_ast, num_vars);
  if (!st.ok()) return Err(m, st);

  std::vector<term::AstPtr> solutions;
  while (true) {
    auto more = sub.NextSolution();
    if (!more.ok()) return Err(m, more.status());
    if (!*more) break;
    // Instantiate the template under the solution bindings and snapshot.
    std::vector<Cell> roots(num_vars);
    for (uint32_t i = 0; i < num_vars; ++i) roots[i] = sub.QueryRoot(i);
    auto inst = sub.ImportAst(*template_ast, &roots);
    if (!inst.ok()) return Err(m, inst.status());
    std::map<uint64_t, uint32_t> snapshot_vars;
    solutions.push_back(sub.ExportCell(*inst, &snapshot_vars));
  }

  // Build the result list on the parent heap.
  Cell list = NilCell(m);
  for (auto it = solutions.rbegin(); it != solutions.rend(); ++it) {
    std::vector<Cell> fresh;
    auto cell = m->ImportAst(**it, &fresh);
    if (!cell.ok()) return Err(m, cell.status());
    list = m->NewList(*cell, list);
  }
  return Bool(m->Unify(out_cell, list));
}

base::Result<term::AstPtr> ExportClauseArg(Machine* m, Cell c,
                                           std::map<uint64_t, uint32_t>* vars) {
  const Cell d = m->Deref(c);
  if (d.tag() == Tag::kRef) {
    return base::Status::InstantiationError("clause argument");
  }
  return m->ExportCell(d, vars);
}

BuiltinResult BuiltinAssert(Machine* m, uint32_t, bool front) {
  std::map<uint64_t, uint32_t> vars;
  auto ast = ExportClauseArg(m, m->X(0), &vars);
  if (!ast.ok()) return Err(m, ast.status());
  base::Status st = m->program()->AddClause(*ast, front);
  if (!st.ok()) return Err(m, st);
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinRetract(Machine* m, uint32_t) {
  // Normalize the argument to (Head, Body).
  const Cell arg = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  Cell head_cell = arg;
  Cell body_cell{};
  bool has_body = false;
  if (arg.tag() == Tag::kStr) {
    const dict::SymbolId f = m->HeapAt(arg.addr()).symbol();
    if (dict->NameOf(f) == ":-" && dict->ArityOf(f) == 2) {
      head_cell = m->Deref(m->HeapAt(arg.addr() + 1));
      body_cell = m->HeapAt(arg.addr() + 2);
      has_body = true;
    }
  }
  dict::SymbolId functor;
  if (head_cell.tag() == Tag::kCon) {
    functor = head_cell.symbol();
  } else if (head_cell.tag() == Tag::kStr) {
    functor = m->HeapAt(head_cell.addr()).symbol();
  } else {
    return Err(m, base::Status::TypeError("retract/1 head"));
  }

  // On an overlay the clause may live in the base; EraseClause shadows
  // the procedure copy-on-write before erasing.
  const Program::Proc* proc = m->program()->Find(functor);
  if (proc == nullptr) return BuiltinResult::kFalse;

  auto true_atom = dict->Intern("true", 0);
  if (!true_atom.ok()) return Err(m, true_atom.status());

  for (size_t i = 0; i < proc->clauses.size(); ++i) {
    const term::AstPtr& source = proc->clauses[i].source;
    if (source == nullptr) continue;
    // Rename the stored clause apart and split it.
    std::vector<Cell> fresh;
    auto clause_cell = m->ImportAst(*source, &fresh);
    if (!clause_cell.ok()) return Err(m, clause_cell.status());
    Cell stored_head = m->Deref(*clause_cell);
    Cell stored_body = Cell::Con(*true_atom);
    if (stored_head.tag() == Tag::kStr) {
      const dict::SymbolId f = m->HeapAt(stored_head.addr()).symbol();
      if (dict->NameOf(f) == ":-" && dict->ArityOf(f) == 2) {
        stored_body = m->HeapAt(stored_head.addr() + 2);
        stored_head = m->Deref(m->HeapAt(stored_head.addr() + 1));
      }
    }
    const size_t mark = m->TrailMark();
    bool match = m->Unify(head_cell, stored_head);
    if (match && has_body) match = m->Unify(body_cell, stored_body);
    if (match) {
      base::Status st = m->program()->EraseClause(functor, i);
      if (!st.ok()) return Err(m, st);
      return BuiltinResult::kTrue;  // bindings are kept (ISO retract)
    }
    m->UndoTo(mark);
  }
  return BuiltinResult::kFalse;
}

BuiltinResult BuiltinAbolish(Machine* m, uint32_t) {
  const Cell arg = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  if (arg.tag() != Tag::kStr) {
    return Err(m, base::Status::TypeError("abolish/1 expects Name/Arity"));
  }
  const dict::SymbolId slash = m->HeapAt(arg.addr()).symbol();
  if (dict->NameOf(slash) != "/" || dict->ArityOf(slash) != 2) {
    return Err(m, base::Status::TypeError("abolish/1 expects Name/Arity"));
  }
  const Cell name = m->Deref(m->HeapAt(arg.addr() + 1));
  const Cell arity = m->Deref(m->HeapAt(arg.addr() + 2));
  if (name.tag() != Tag::kCon || arity.tag() != Tag::kInt) {
    return Err(m, base::Status::TypeError("abolish/1 expects Name/Arity"));
  }
  auto functor = dict->Lookup(dict->NameOf(name.symbol()),
                              static_cast<uint32_t>(arity.int_value()));
  if (functor) {
    (void)m->program()->EraseProcedure(*functor);
  }
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinWrite(Machine* m, uint32_t, bool quoted) {
  std::map<uint64_t, uint32_t> vars;
  term::AstPtr ast = m->ExportCell(m->X(0), &vars);
  reader::WriteOptions options;
  options.quoted = quoted;
  *m->output() << reader::WriteTerm(*m->dictionary(), *ast, options);
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinNl(Machine* m, uint32_t) {
  *m->output() << "\n";
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinTab(Machine* m, uint32_t) {
  auto n = Eval(m, m->X(0));
  if (!n.ok()) return Err(m, n.status());
  for (int64_t i = 0; i < n->i; ++i) *m->output() << ' ';
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinAtomCodes(Machine* m, uint32_t) {
  const Cell a = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  if (a.tag() == Tag::kCon) {
    return Bool(m->Unify(m->X(1), CodesToList(m, dict->NameOf(a.symbol()))));
  }
  if (a.tag() == Tag::kInt) {
    return Bool(
        m->Unify(m->X(1), CodesToList(m, std::to_string(a.int_value()))));
  }
  if (a.tag() != Tag::kRef) {
    return Err(m, base::Status::TypeError("atom_codes/2 subject"));
  }
  auto text = ListToCodes(m, m->X(1));
  if (!text.ok()) return Err(m, text.status());
  auto atom = dict->Intern(*text, 0);
  if (!atom.ok()) return Err(m, atom.status());
  return Bool(m->Unify(m->X(0), Cell::Con(*atom)));
}

BuiltinResult BuiltinAtomLength(Machine* m, uint32_t) {
  const Cell a = m->Deref(m->X(0));
  if (a.tag() != Tag::kCon) {
    return Err(m, base::Status::TypeError("atom_length/2 subject"));
  }
  const int64_t len =
      static_cast<int64_t>(m->dictionary()->NameOf(a.symbol()).size());
  return Bool(m->Unify(m->X(1), Cell::Int(len)));
}

BuiltinResult BuiltinAtomConcat(Machine* m, uint32_t) {
  const Cell a = m->Deref(m->X(0));
  const Cell b = m->Deref(m->X(1));
  dict::Dictionary* dict = m->dictionary();
  auto text_of = [&](Cell c) -> base::Result<std::string> {
    if (c.tag() == Tag::kCon) return std::string(dict->NameOf(c.symbol()));
    if (c.tag() == Tag::kInt) return std::to_string(c.int_value());
    return base::Status::InstantiationError("atom_concat/3 argument");
  };
  auto ta = text_of(a);
  if (!ta.ok()) return Err(m, ta.status());
  auto tb = text_of(b);
  if (!tb.ok()) return Err(m, tb.status());
  auto atom = dict->Intern(*ta + *tb, 0);
  if (!atom.ok()) return Err(m, atom.status());
  return Bool(m->Unify(m->X(2), Cell::Con(*atom)));
}

BuiltinResult BuiltinListing(Machine* m, uint32_t) {
  // listing(Name/Arity) or listing(Name): prints stored clause sources.
  const Cell d = m->Deref(m->X(0));
  dict::Dictionary* dict = m->dictionary();
  std::string name;
  int64_t arity = -1;  // -1 = any
  if (d.tag() == Tag::kCon) {
    name = dict->NameOf(d.symbol());
  } else if (d.tag() == Tag::kStr &&
             dict->NameOf(m->HeapAt(d.addr()).symbol()) == "/") {
    const Cell n = m->Deref(m->HeapAt(d.addr() + 1));
    const Cell a = m->Deref(m->HeapAt(d.addr() + 2));
    if (n.tag() != Tag::kCon || a.tag() != Tag::kInt) {
      return Err(m, base::Status::TypeError("listing/1 expects Name/Arity"));
    }
    name = dict->NameOf(n.symbol());
    arity = a.int_value();
  } else {
    return Err(m, base::Status::TypeError("listing/1 expects Name/Arity"));
  }

  reader::WriteOptions wo;
  for (uint32_t ar = 0; ar < 64; ++ar) {
    if (arity >= 0 && ar != static_cast<uint32_t>(arity)) continue;
    auto functor = dict->Lookup(name, ar);
    if (!functor) continue;
    const Program::Proc* proc = m->program()->Find(*functor);
    if (proc == nullptr) continue;
    for (const auto& clause : proc->clauses) {
      if (clause.source == nullptr) continue;
      *m->output() << reader::WriteTerm(*dict, *clause.source, wo) << ".\n";
    }
  }
  return BuiltinResult::kTrue;
}

BuiltinResult BuiltinStatistics(Machine* m, uint32_t) {
  // statistics(Key, Value): inferences | choice_points | backtracks |
  // gc_runs | heap_cells | trail_entries.
  const Cell key = m->Deref(m->X(0));
  if (key.tag() != Tag::kCon) {
    return Err(m, base::Status::TypeError("statistics/2 key"));
  }
  const std::string_view name = m->dictionary()->NameOf(key.symbol());
  const wam::MachineStats& stats = m->stats();
  int64_t value;
  if (name == "inferences") {
    value = static_cast<int64_t>(stats.calls);
  } else if (name == "instructions") {
    value = static_cast<int64_t>(stats.instructions);
  } else if (name == "choice_points") {
    value = static_cast<int64_t>(stats.choice_points);
  } else if (name == "backtracks") {
    value = static_cast<int64_t>(stats.backtracks);
  } else if (name == "gc_runs") {
    value = static_cast<int64_t>(stats.gc_runs);
  } else if (name == "heap_cells") {
    value = static_cast<int64_t>(m->heap_size());
  } else if (name == "trail_entries") {
    value = static_cast<int64_t>(stats.trail_entries);
  } else {
    return Err(m, base::Status::InvalidArgument("unknown statistics key " +
                                                std::string(name)));
  }
  return Bool(m->Unify(m->X(1), Cell::Int(value)));
}

BuiltinResult BuiltinSort(Machine* m, uint32_t, bool dedup) {
  auto cells = ListToCells(m, m->X(0));
  if (!cells.ok()) return Err(m, cells.status());
  std::stable_sort(cells->begin(), cells->end(),
                   [m](Cell a, Cell b) { return m->Compare(a, b) < 0; });
  if (dedup) {
    auto last = std::unique(cells->begin(), cells->end(),
                            [m](Cell a, Cell b) { return m->Compare(a, b) == 0; });
    cells->erase(last, cells->end());
  }
  return Bool(m->Unify(m->X(1), CellsToList(m, *cells)));
}

BuiltinResult BuiltinKeysort(Machine* m, uint32_t) {
  auto cells = ListToCells(m, m->X(0));
  if (!cells.ok()) return Err(m, cells.status());
  // Every element must be Key-Value; sort stably by the key.
  const dict::Dictionary& dict = *m->dictionary();
  for (Cell c : *cells) {
    const Cell d = m->Deref(c);
    if (d.tag() != Tag::kStr ||
        dict.NameOf(m->HeapAt(d.addr()).symbol()) != "-" ||
        dict.ArityOf(m->HeapAt(d.addr()).symbol()) != 2) {
      return Err(m, base::Status::TypeError("keysort/2 expects Key-Value pairs"));
    }
  }
  std::stable_sort(cells->begin(), cells->end(), [m](Cell a, Cell b) {
    const Cell da = m->Deref(a);
    const Cell db = m->Deref(b);
    return m->Compare(m->HeapAt(da.addr() + 1), m->HeapAt(db.addr() + 1)) < 0;
  });
  return Bool(m->Unify(m->X(1), CellsToList(m, *cells)));
}

BuiltinResult BuiltinSucc(Machine* m, uint32_t) {
  const Cell a = m->Deref(m->X(0));
  const Cell b = m->Deref(m->X(1));
  if (a.tag() == Tag::kInt) {
    if (a.int_value() < 0) {
      return Err(m, base::Status::TypeError("succ/2 needs naturals"));
    }
    return Bool(m->Unify(m->X(1), Cell::Int(a.int_value() + 1)));
  }
  if (b.tag() == Tag::kInt) {
    if (b.int_value() <= 0) return BuiltinResult::kFalse;
    return Bool(m->Unify(m->X(0), Cell::Int(b.int_value() - 1)));
  }
  return Err(m, base::Status::InstantiationError("succ/2"));
}

BuiltinResult BuiltinNumberCodes(Machine* m, uint32_t) {
  const Cell a = m->Deref(m->X(0));
  if (a.tag() == Tag::kInt) {
    return Bool(
        m->Unify(m->X(1), CodesToList(m, std::to_string(a.int_value()))));
  }
  if (a.tag() == Tag::kFlt) {
    return Bool(
        m->Unify(m->X(1), CodesToList(m, std::to_string(a.float_value()))));
  }
  if (a.tag() != Tag::kRef) {
    return Err(m, base::Status::TypeError("number_codes/2 subject"));
  }
  auto text = ListToCodes(m, m->X(1));
  if (!text.ok()) return Err(m, text.status());
  if (text->find_first_of(".eE") != std::string::npos) {
    return Bool(m->Unify(m->X(0), Cell::Flt(std::strtod(text->c_str(), nullptr))));
  }
  return Bool(
      m->Unify(m->X(0), Cell::Int(std::strtoll(text->c_str(), nullptr, 10))));
}

// The bootstrap library: list utilities plus metacall definitions of the
// control constructs (compile-time occurrences in clause bodies are
// transformed away by the compiler; these serve call/1).
constexpr const char* kBootstrap = R"PROLOG(
','(A, B) :- call(A), call(B).
';'(A, _) :- call(A).
';'(_, B) :- call(B).
'->'(C, T) :- call(C), !, call(T).
'\\+'(G) :- call(G), !, fail.
'\\+'(_).
not(G) :- call(G), !, fail.
not(_).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).
memberchk(X, L) :- member(X, L), !.
length([], 0).
length([_|T], N) :- length(T, M), N is M + 1.
reverse(L, R) :- '$rev'(L, [], R).
'$rev'([], A, A).
'$rev'([H|T], A, R) :- '$rev'(T, [H|A], R).
last([X], X).
last([_|T], X) :- last(T, X).
nth1(1, [X|_], X) :- !.
nth1(N, [_|T], X) :- N > 1, M is N - 1, nth1(M, T, X).
sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S1), S is S1 + H.
max_list([X], X).
max_list([H|T], M) :- max_list(T, M1), M is max(H, M1).
min_list([X], X).
min_list([H|T], M) :- min_list(T, M1), M is min(H, M1).
select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).
writeln(X) :- write(X), nl.
forall(C, A) :- '\\+'((call(C), '\\+'(call(A)))).
ignore(G) :- call(G), !.
ignore(_).
once(G) :- call(G), !.

% Simplified all-solutions predicates: bagof/setof do not group by free
% variables; `V ^ Goal` witnesses are stripped.
'$strip_carets'(_ ^ G, G1) :- !, '$strip_carets'(G, G1).
'$strip_carets'(G, G).
bagof(T, G, L) :- '$strip_carets'(G, G1), findall(T, G1, L), L \= [].
setof(T, G, L) :- bagof(T, G, L0), sort(L0, L).
aggregate_all(count, G, N) :- findall(x, G, L), length(L, N).
aggregate_all(bag(E), G, L) :- findall(E, G, L).
aggregate_all(sum(E), G, S) :- findall(E, G, L), sum_list(L, S).
aggregate_all(max(E), G, M) :- findall(E, G, L), max_list(L, M).
aggregate_all(min(E), G, M) :- findall(E, G, L), min_list(L, M).

numlist(L, H, []) :- L > H, !.
numlist(L, H, [L|T]) :- L1 is L + 1, numlist(L1, H, T).
exclude(_, [], []).
exclude(P, [H|T], R) :- call(P, H), !, exclude(P, T, R).
exclude(P, [H|T], [H|R]) :- exclude(P, T, R).
include(_, [], []).
include(P, [H|T], [H|R]) :- call(P, H), !, include(P, T, R).
include(P, [_|T], R) :- include(P, T, R).
maplist(_, []).
maplist(P, [H|T]) :- call(P, H), maplist(P, T).
maplist(_, [], []).
maplist(P, [H|T], [H2|T2]) :- call(P, H, H2), maplist(P, T, T2).

% Directive support predicates: declarations are catalog hints here.
dynamic(_).
discontiguous(_).
)PROLOG";

}  // namespace

base::Status InstallStandardLibrary(Program* program) {
  BuiltinTable* b = program->builtins();

  auto reg = [&](std::string_view name, uint32_t arity,
                 BuiltinFn fn) -> base::Status {
    return b->Register(name, arity, std::move(fn)).status();
  };

  EDUCE_RETURN_IF_ERROR(reg("true", 0, BuiltinTrue));
  EDUCE_RETURN_IF_ERROR(reg("fail", 0, BuiltinFail));
  EDUCE_RETURN_IF_ERROR(reg("false", 0, BuiltinFail));
  EDUCE_RETURN_IF_ERROR(reg("=", 2, BuiltinUnify));
  EDUCE_RETURN_IF_ERROR(reg("\\=", 2, BuiltinNotUnify));
  EDUCE_RETURN_IF_ERROR(reg("is", 2, BuiltinIs));
  EDUCE_RETURN_IF_ERROR(reg("<", 2, BuiltinArithCompare<-2>));
  EDUCE_RETURN_IF_ERROR(reg("=<", 2, BuiltinArithCompare<-1>));
  EDUCE_RETURN_IF_ERROR(reg("=:=", 2, BuiltinArithCompare<0>));
  EDUCE_RETURN_IF_ERROR(reg(">=", 2, BuiltinArithCompare<1>));
  EDUCE_RETURN_IF_ERROR(reg(">", 2, BuiltinArithCompare<2>));
  EDUCE_RETURN_IF_ERROR(reg("=\\=", 2, BuiltinArithCompare<3>));
  EDUCE_RETURN_IF_ERROR(reg("@<", 2, BuiltinTermCompare<-2>));
  EDUCE_RETURN_IF_ERROR(reg("@=<", 2, BuiltinTermCompare<-1>));
  EDUCE_RETURN_IF_ERROR(reg("==", 2, BuiltinTermCompare<0>));
  EDUCE_RETURN_IF_ERROR(reg("@>=", 2, BuiltinTermCompare<1>));
  EDUCE_RETURN_IF_ERROR(reg("@>", 2, BuiltinTermCompare<2>));
  EDUCE_RETURN_IF_ERROR(reg("\\==", 2, BuiltinTermCompare<3>));
  EDUCE_RETURN_IF_ERROR(reg("compare", 3, BuiltinCompare3));
  EDUCE_RETURN_IF_ERROR(reg("var", 1, BuiltinTagTest<Tag::kRef>));
  EDUCE_RETURN_IF_ERROR(reg("nonvar", 1, BuiltinNonvar));
  EDUCE_RETURN_IF_ERROR(reg("atom", 1, BuiltinTagTest<Tag::kCon>));
  EDUCE_RETURN_IF_ERROR(reg("integer", 1, BuiltinTagTest<Tag::kInt>));
  EDUCE_RETURN_IF_ERROR(reg("float", 1, BuiltinTagTest<Tag::kFlt>));
  EDUCE_RETURN_IF_ERROR(reg("number", 1, BuiltinNumber));
  EDUCE_RETURN_IF_ERROR(reg("atomic", 1, BuiltinAtomic));
  EDUCE_RETURN_IF_ERROR(reg("compound", 1, BuiltinCompound));
  EDUCE_RETURN_IF_ERROR(reg("callable", 1, BuiltinCallable));
  EDUCE_RETURN_IF_ERROR(reg("is_list", 1, BuiltinIsList));
  EDUCE_RETURN_IF_ERROR(reg("ground", 1, BuiltinGround));
  EDUCE_RETURN_IF_ERROR(reg("functor", 3, BuiltinFunctor));
  EDUCE_RETURN_IF_ERROR(reg("arg", 3, BuiltinArg));
  EDUCE_RETURN_IF_ERROR(reg("=..", 2, BuiltinUniv));
  EDUCE_RETURN_IF_ERROR(reg("copy_term", 2, BuiltinCopyTerm));
  for (uint32_t n = 1; n <= 8; ++n) {
    EDUCE_RETURN_IF_ERROR(reg("call", n, BuiltinCall));
  }
  EDUCE_RETURN_IF_ERROR(reg("between", 3, BuiltinBetween));
  EDUCE_RETURN_IF_ERROR(reg("findall", 3, BuiltinFindall));
  EDUCE_RETURN_IF_ERROR(reg("assert", 1, [](Machine* m, uint32_t a) {
    return BuiltinAssert(m, a, false);
  }));
  EDUCE_RETURN_IF_ERROR(reg("assertz", 1, [](Machine* m, uint32_t a) {
    return BuiltinAssert(m, a, false);
  }));
  EDUCE_RETURN_IF_ERROR(reg("asserta", 1, [](Machine* m, uint32_t a) {
    return BuiltinAssert(m, a, true);
  }));
  EDUCE_RETURN_IF_ERROR(reg("retract", 1, BuiltinRetract));
  EDUCE_RETURN_IF_ERROR(reg("abolish", 1, BuiltinAbolish));
  EDUCE_RETURN_IF_ERROR(reg("write", 1, [](Machine* m, uint32_t a) {
    return BuiltinWrite(m, a, false);
  }));
  EDUCE_RETURN_IF_ERROR(reg("print", 1, [](Machine* m, uint32_t a) {
    return BuiltinWrite(m, a, false);
  }));
  EDUCE_RETURN_IF_ERROR(reg("writeq", 1, [](Machine* m, uint32_t a) {
    return BuiltinWrite(m, a, true);
  }));
  EDUCE_RETURN_IF_ERROR(reg("nl", 0, BuiltinNl));
  EDUCE_RETURN_IF_ERROR(reg("tab", 1, BuiltinTab));
  EDUCE_RETURN_IF_ERROR(reg("listing", 1, BuiltinListing));
  EDUCE_RETURN_IF_ERROR(reg("statistics", 2, BuiltinStatistics));
  EDUCE_RETURN_IF_ERROR(reg("sort", 2, [](Machine* m, uint32_t a) {
    return BuiltinSort(m, a, true);
  }));
  EDUCE_RETURN_IF_ERROR(reg("msort", 2, [](Machine* m, uint32_t a) {
    return BuiltinSort(m, a, false);
  }));
  EDUCE_RETURN_IF_ERROR(reg("keysort", 2, BuiltinKeysort));
  EDUCE_RETURN_IF_ERROR(reg("succ", 2, BuiltinSucc));
  EDUCE_RETURN_IF_ERROR(reg("atom_codes", 2, BuiltinAtomCodes));
  EDUCE_RETURN_IF_ERROR(reg("atom_length", 2, BuiltinAtomLength));
  EDUCE_RETURN_IF_ERROR(reg("atom_concat", 3, BuiltinAtomConcat));
  EDUCE_RETURN_IF_ERROR(reg("number_codes", 2, BuiltinNumberCodes));

  // Bootstrap library.
  EDUCE_ASSIGN_OR_RETURN(
      std::vector<reader::ReadTerm> clauses,
      reader::ParseProgram(program->dictionary(), kBootstrap));
  for (const auto& clause : clauses) {
    EDUCE_RETURN_IF_ERROR(program->AddClause(clause.term));
  }
  return base::Status::OK();
}

}  // namespace educe::wam
