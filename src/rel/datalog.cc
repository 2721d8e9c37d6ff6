#include "rel/datalog.h"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "base/stopwatch.h"

namespace educe::rel::datalog {

namespace {

std::string PredName(const Program& program, uint32_t pred) {
  if (pred < program.preds.size() && !program.preds[pred].name.empty()) {
    return program.preds[pred].name;
  }
  return "p" + std::to_string(pred);
}

void CollectVars(const std::vector<Term>& args, std::set<uint32_t>* vars) {
  for (const Term& t : args) {
    if (t.is_var) vars->insert(t.var);
  }
}

}  // namespace

base::Status Validate(const Program& program) {
  auto check_atom = [&](const Atom& atom, const char* where,
                        size_t rule_idx) -> base::Status {
    if (atom.pred >= program.preds.size()) {
      return base::Status::InvalidArgument(
          "datalog: rule " + std::to_string(rule_idx) + ": " + where +
          " references undefined predicate id " + std::to_string(atom.pred));
    }
    if (atom.args.size() != program.preds[atom.pred].arity) {
      return base::Status::InvalidArgument(
          "datalog: rule " + std::to_string(rule_idx) + ": " + where + " " +
          PredName(program, atom.pred) + " has " +
          std::to_string(atom.args.size()) + " args, arity is " +
          std::to_string(program.preds[atom.pred].arity));
    }
    return base::Status::OK();
  };

  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    EDUCE_RETURN_IF_ERROR(check_atom(rule.head, "head", r));
    if (rule.head.negated) {
      return base::Status::InvalidArgument(
          "datalog: rule " + std::to_string(r) + ": negated head");
    }
    if (program.preds[rule.head.pred].edb) {
      return base::Status::InvalidArgument(
          "datalog: rule " + std::to_string(r) + ": EDB predicate " +
          PredName(program, rule.head.pred) + " used as rule head");
    }
    std::set<uint32_t> positive_vars;
    for (const Atom& atom : rule.body) {
      EDUCE_RETURN_IF_ERROR(check_atom(atom, "body literal", r));
      if (!atom.negated) CollectVars(atom.args, &positive_vars);
    }
    // Range restriction: head vars and negated-literal vars must occur in
    // a positive body literal (facts must be ground).
    std::set<uint32_t> needed;
    CollectVars(rule.head.args, &needed);
    for (const Atom& atom : rule.body) {
      if (atom.negated) CollectVars(atom.args, &needed);
    }
    for (uint32_t v : needed) {
      if (positive_vars.find(v) == positive_vars.end()) {
        return base::Status::InvalidArgument(
            "datalog: rule " + std::to_string(r) + " for " +
            PredName(program, rule.head.pred) +
            " is not range-restricted (variable " + std::to_string(v) +
            " unbound by any positive body literal)");
      }
    }
  }
  return base::Status::OK();
}

base::Result<std::vector<uint32_t>> Stratify(const Program& program) {
  const size_t n = program.preds.size();
  // Dependency edges: head -> body predicate.
  std::vector<std::vector<uint32_t>> adj(n);
  for (const Rule& rule : program.rules) {
    for (const Atom& atom : rule.body) {
      adj[rule.head.pred].push_back(atom.pred);
    }
  }

  // Iterative Tarjan. SCCs complete in dependency-first order: when an
  // SCC pops, every SCC it depends on has already popped, so the pop
  // index is directly the evaluation stratum.
  constexpr uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<uint32_t> index(n, kUnvisited), lowlink(n, 0), comp(n, kUnvisited);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  uint32_t next_index = 0, next_comp = 0;

  struct Frame {
    uint32_t node;
    size_t child;
  };
  std::vector<Frame> work;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    work.push_back({root, 0});
    while (!work.empty()) {
      Frame& frame = work.back();
      uint32_t v = frame.node;
      if (frame.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (frame.child < adj[v].size()) {
        uint32_t w = adj[v][frame.child++];
        if (index[w] == kUnvisited) {
          work.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) lowlink[v] = std::min(lowlink[v], index[w]);
      }
      if (descended) continue;
      if (lowlink[v] == index[v]) {
        while (true) {
          uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = next_comp;
          if (w == v) break;
        }
        ++next_comp;
      }
      work.pop_back();
      if (!work.empty()) {
        uint32_t parent = work.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }

  // Stratified negation: a negated dependency may not stay inside its SCC
  // (the predicate would negate through its own fixpoint).
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    for (const Atom& atom : rule.body) {
      if (atom.negated && comp[atom.pred] == comp[rule.head.pred]) {
        return base::Status::InvalidArgument(
            "datalog: not stratifiable — rule " + std::to_string(r) +
            " negates " + PredName(program, atom.pred) +
            " inside its own recursive component");
      }
    }
  }
  return comp;
}

namespace {

std::string AdornSuffix(const std::vector<bool>& bound) {
  std::string s = "@";
  for (bool b : bound) s += b ? 'b' : 'f';
  return s;
}

}  // namespace

base::Result<MagicProgram> MagicRewrite(const Program& program,
                                        uint32_t query_pred,
                                        const std::vector<bool>& bound) {
  if (query_pred >= program.preds.size()) {
    return base::Status::InvalidArgument("magic: query predicate out of range");
  }
  if (program.preds[query_pred].edb) {
    return base::Status::InvalidArgument("magic: query predicate is EDB");
  }
  if (bound.size() != program.preds[query_pred].arity) {
    return base::Status::InvalidArgument(
        "magic: adornment length != query arity");
  }
  if (std::none_of(bound.begin(), bound.end(), [](bool b) { return b; })) {
    MagicProgram out;
    out.program = program;
    out.query_pred = query_pred;
    out.seed_pred = kNoPred;
    return out;
  }
  for (const Rule& rule : program.rules) {
    for (const Atom& atom : rule.body) {
      if (atom.negated) {
        return base::Status::InvalidArgument(
            "magic: rewrite requires a negation-free program");
      }
    }
  }

  MagicProgram out;
  using AdornKey = std::pair<uint32_t, std::vector<bool>>;
  std::map<AdornKey, uint32_t> adorned, magic;
  std::map<uint32_t, uint32_t> edb_map;
  std::vector<AdornKey> worklist;

  auto get_edb = [&](uint32_t pred) {
    auto it = edb_map.find(pred);
    if (it != edb_map.end()) return it->second;
    uint32_t id = out.program.AddPred(PredName(program, pred),
                                      program.preds[pred].arity, true);
    edb_map.emplace(pred, id);
    return id;
  };
  auto get_adorned = [&](uint32_t pred, const std::vector<bool>& adorn) {
    AdornKey key{pred, adorn};
    auto it = adorned.find(key);
    if (it != adorned.end()) return it->second;
    uint32_t id =
        out.program.AddPred(PredName(program, pred) + AdornSuffix(adorn),
                            program.preds[pred].arity, false);
    adorned.emplace(key, id);
    worklist.push_back(key);
    return id;
  };
  auto get_magic = [&](uint32_t pred, const std::vector<bool>& adorn) {
    AdornKey key{pred, adorn};
    auto it = magic.find(key);
    if (it != magic.end()) return it->second;
    uint32_t arity = static_cast<uint32_t>(
        std::count(adorn.begin(), adorn.end(), true));
    uint32_t id = out.program.AddPred(
        "m_" + PredName(program, pred) + AdornSuffix(adorn), arity, false);
    magic.emplace(key, id);
    return id;
  };
  auto bound_args = [](const Atom& atom, const std::vector<bool>& adorn) {
    std::vector<Term> args;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (adorn[i]) args.push_back(atom.args[i]);
    }
    return args;
  };

  out.query_pred = get_adorned(query_pred, bound);
  uint32_t nbound = static_cast<uint32_t>(
      std::count(bound.begin(), bound.end(), true));
  out.seed_pred = out.program.AddPred(
      "seed_" + PredName(program, query_pred) + AdornSuffix(bound), nbound,
      true);
  // m_q(X...) :- seed(X...): the caller feeds the query's bound constants
  // through the EDB loader, keeping the rewritten program value-free (one
  // compiled program serves every constant with the same adornment).
  {
    Rule seed_rule;
    seed_rule.head.pred = get_magic(query_pred, bound);
    Atom seed_atom;
    seed_atom.pred = out.seed_pred;
    for (uint32_t i = 0; i < nbound; ++i) {
      seed_rule.head.args.push_back(Term::Var(i));
      seed_atom.args.push_back(Term::Var(i));
    }
    seed_rule.body.push_back(std::move(seed_atom));
    out.program.rules.push_back(std::move(seed_rule));
  }

  std::set<AdornKey> done;
  while (!worklist.empty()) {
    AdornKey key = worklist.back();
    worklist.pop_back();
    if (!done.insert(key).second) continue;
    const auto& [pred, adorn] = key;
    for (const Rule& rule : program.rules) {
      if (rule.head.pred != pred) continue;
      std::set<uint32_t> bound_vars;
      for (size_t i = 0; i < adorn.size(); ++i) {
        if (adorn[i] && rule.head.args[i].is_var) {
          bound_vars.insert(rule.head.args[i].var);
        }
      }
      Rule adorned_rule;
      adorned_rule.head.pred = get_adorned(pred, adorn);
      adorned_rule.head.args = rule.head.args;
      // Guard the rule with its magic predicate: only head bindings that
      // are actually demanded fire the body joins. An all-free adornment
      // has no demand set — the full relation is wanted — so no guard.
      if (std::any_of(adorn.begin(), adorn.end(), [](bool b) { return b; })) {
        Atom guard;
        guard.pred = get_magic(pred, adorn);
        guard.args = bound_args(rule.head, adorn);
        adorned_rule.body.push_back(std::move(guard));
      }

      for (const Atom& atom : rule.body) {
        if (program.preds[atom.pred].edb) {
          Atom mapped = atom;
          mapped.pred = get_edb(atom.pred);
          adorned_rule.body.push_back(std::move(mapped));
        } else {
          std::vector<bool> sub_adorn(atom.args.size());
          for (size_t i = 0; i < atom.args.size(); ++i) {
            sub_adorn[i] = !atom.args[i].is_var ||
                           bound_vars.count(atom.args[i].var) > 0;
          }
          if (std::any_of(sub_adorn.begin(), sub_adorn.end(),
                          [](bool b) { return b; })) {
            // Sideways pass: what is known once the body prefix has
            // matched becomes the demand set of the callee.
            Rule magic_rule;
            magic_rule.head.pred = get_magic(atom.pred, sub_adorn);
            magic_rule.head.args = bound_args(atom, sub_adorn);
            magic_rule.body = adorned_rule.body;
            out.program.rules.push_back(std::move(magic_rule));
          }
          Atom mapped = atom;
          mapped.pred = get_adorned(atom.pred, sub_adorn);
          adorned_rule.body.push_back(std::move(mapped));
        }
        CollectVars(atom.args, &bound_vars);
      }
      out.program.rules.push_back(std::move(adorned_rule));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RowSet

namespace {

// Hash of one row for the open-addressing tables: a multiply-xorshift
// step per column, so the low bits a power-of-two mask keeps depend on
// every bit of every column.
uint64_t HashRow(const int64_t* row, uint32_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < width; ++i) {
    h = (h ^ static_cast<uint64_t>(row[i])) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

RowSet::RowSet(uint32_t width) : width_(width) {}

uint64_t RowSet::FindSlot(const int64_t* row) const {
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t s = HashRow(row, width_) & mask;; s = (s + 1) & mask) {
    const uint64_t id = slots_[s];
    if (id == kNotFound || std::equal(row, row + width_, RowAt(id))) return s;
  }
}

void RowSet::Grow() {
  // The first insert sizes the arena for the rows the first table holds,
  // so a small relation grows it once.
  if (slots_.empty()) arena_.reserve(8 * width_);
  slots_.assign(std::max<size_t>(16, slots_.size() * 2), kNotFound);
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t id = 0; id < count_; ++id) {
    uint64_t s = HashRow(RowAt(id), width_) & mask;
    while (slots_[s] != kNotFound) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

bool RowSet::Insert(const int64_t* row) {
  // A load factor of at most 1/2 keeps linear-probe runs short.
  if ((count_ + 1) * 2 > slots_.size()) Grow();
  const uint64_t s = FindSlot(row);
  if (slots_[s] != kNotFound) return false;
  slots_[s] = count_++;
  arena_.insert(arena_.end(), row, row + width_);
  return true;
}

uint64_t RowSet::MemoryBytes() const {
  return arena_.capacity() * sizeof(int64_t) +
         slots_.capacity() * sizeof(uint64_t);
}

// ---------------------------------------------------------------------------
// ValueIds, ColumnIndex, Relation

uint64_t ValueIds::Intern(int64_t value) {
  // A load factor of at most 1/2 keeps linear-probe runs short.
  if ((count_ + 1) * 2 > slots_.size()) Grow();
  Slot& slot = slots_[SlotOf(value)];
  if (slot.id == kNotFound) slot = Slot{value, count_++};
  return slot.id;
}

void ValueIds::Grow() {
  std::vector<Slot> old(std::max<size_t>(16, slots_.size() * 2));
  old.swap(slots_);
  shift_ = 64 - static_cast<uint32_t>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (slot.id != kNotFound) slots_[SlotOf(slot.value)] = slot;
  }
}

void ColumnIndex::Extend(const RowSet& rows, uint64_t end) {
  for (uint64_t r = next_.size(); r < end; ++r) {
    const uint64_t k = keys_.Intern(rows.RowAt(r)[column_]);
    if (k == head_.size()) {
      head_.push_back(r);
      tail_.push_back(r);
    } else {
      next_[tail_[k]] = r;
      tail_[k] = r;
    }
    next_.push_back(kEnd);
  }
}

uint64_t ColumnIndex::MemoryBytes() const {
  return keys_.MemoryBytes() +
         (head_.capacity() + tail_.capacity() + next_.capacity()) *
             sizeof(uint64_t);
}

struct Relation::Column {
  std::once_flag once;
  std::unique_ptr<ColumnIndex> index;
};

Relation::Relation(uint32_t arity)
    : arity_(arity),
      rows_(arity == 0 ? 1 : arity),
      columns_(std::make_unique<Column[]>(rows_.width())) {}

Relation::~Relation() = default;

bool Relation::Insert(const int64_t* row) {
  static constexpr int64_t kPadding = 0;
  return rows_.Insert(arity_ == 0 ? &kPadding : row);
}

const ColumnIndex* Relation::Index(uint32_t column, uint64_t end,
                                   bool* built) const {
  Column& slot = columns_[column];
  std::call_once(slot.once, [&] {
    slot.index = std::make_unique<ColumnIndex>(column);
    slot.index->Extend(rows_, end);
    index_bytes_.fetch_add(slot.index->MemoryBytes());
    *built = true;
  });
  return slot.index.get();
}

void Relation::ExtendIndexes(uint64_t end) {
  uint64_t bytes = 0;
  for (uint32_t c = 0; c < rows_.width(); ++c) {
    if (columns_[c].index == nullptr) continue;
    columns_[c].index->Extend(rows_, end);
    bytes += columns_[c].index->MemoryBytes();
  }
  index_bytes_.store(bytes);
}

uint64_t Relation::MemoryBytes() const {
  return rows_.MemoryBytes() + index_bytes_.load();
}

// ---------------------------------------------------------------------------
// CompiledProgram

CompiledProgram::Variant CompiledProgram::CompileVariant(const Rule& rule,
                                                         int delta_pos,
                                                         uint32_t* next_slot) {
  Variant variant;
  variant.head_pred = rule.head.pred;
  variant.head_args = rule.head.args;
  uint32_t num_vars = 0;
  auto count_vars = [&](const Atom& atom) {
    for (const Term& t : atom.args) {
      if (t.is_var) num_vars = std::max(num_vars, t.var + 1);
    }
  };
  count_vars(rule.head);
  std::vector<size_t> positives;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    count_vars(rule.body[i]);
    if (rule.body[i].negated) {
      variant.negatives.push_back(rule.body[i]);
    } else {
      positives.push_back(i);
    }
  }
  // A fact rule, or a purely negative body (which range restriction
  // limits to ground literals): no steps, one virtual match.
  if (positives.empty()) return variant;

  // Join order: the delta literal leads its variant; after that, greedily
  // chain literals sharing a bound variable, falling back to a cross
  // product for disconnected bodies.
  std::vector<size_t> order;
  {
    std::vector<size_t> remaining = positives;
    size_t start = delta_pos >= 0 ? static_cast<size_t>(delta_pos)
                                  : positives.front();
    order.push_back(start);
    remaining.erase(std::find(remaining.begin(), remaining.end(), start));
    std::set<uint32_t> bound;
    CollectVars(rule.body[start].args, &bound);
    while (!remaining.empty()) {
      auto it = std::find_if(remaining.begin(), remaining.end(), [&](size_t i) {
        for (const Term& t : rule.body[i].args) {
          if (t.is_var && bound.count(t.var)) return true;
        }
        return false;
      });
      if (it == remaining.end()) it = remaining.begin();
      CollectVars(rule.body[*it].args, &bound);
      order.push_back(*it);
      remaining.erase(it);
    }
  }

  std::vector<bool> bound(num_vars, false);
  for (size_t body_idx : order) {
    const Atom& atom = rule.body[body_idx];
    Step& step = variant.steps.emplace_back();
    step.pred = atom.pred;
    step.delta = delta_pos >= 0 && body_idx == static_cast<size_t>(delta_pos);
    step.slot = (*next_slot)++;
    // The delta is scanned; any other literal probes the index of its
    // first column whose value is known before the literal is reached.
    if (!step.delta) {
      for (uint32_t col = 0; col < atom.args.size(); ++col) {
        const Term& t = atom.args[col];
        if (!t.is_var || bound[t.var]) {
          step.probe_column = col;
          step.key = t;
          break;
        }
      }
    }
    for (uint32_t col = 0; col < atom.args.size(); ++col) {
      if (col == step.probe_column) continue;
      const Term& t = atom.args[col];
      if (t.is_var && !bound[t.var]) {
        bound[t.var] = true;
        step.binds.emplace_back(t.var, col);
      } else {
        step.checks.emplace_back(col, t);
      }
    }
  }
  return variant;
}

base::Result<CompiledProgram> CompiledProgram::Compile(Program program) {
  EDUCE_RETURN_IF_ERROR(Validate(program));
  EDUCE_ASSIGN_OR_RETURN(std::vector<uint32_t> strata, Stratify(program));

  CompiledProgram out;
  out.program_ = std::move(program);
  const Program& p = out.program_;
  for (const Rule& rule : p.rules) {
    auto widen = [&](const Atom& atom) {
      out.row_width_ = std::max(out.row_width_,
                                static_cast<uint32_t>(atom.args.size()));
      for (const Term& t : atom.args) {
        if (t.is_var) out.num_vars_ = std::max(out.num_vars_, t.var + 1);
      }
    };
    widen(rule.head);
    for (const Atom& atom : rule.body) widen(atom);
  }

  // Group rules by head stratum; strata run in dependency order.
  std::map<uint32_t, std::vector<uint32_t>> by_stratum;
  for (uint32_t r = 0; r < p.rules.size(); ++r) {
    by_stratum[strata[p.rules[r].head.pred]].push_back(r);
  }
  auto add = [&](uint32_t r, int delta_pos) {
    out.variants_.push_back(
        CompileVariant(p.rules[r], delta_pos, &out.num_slots_));
    return static_cast<uint32_t>(out.variants_.size() - 1);
  };
  for (const auto& [stratum, rule_ids] : by_stratum) {
    Stratum& unit = out.strata_.emplace_back();
    std::set<uint32_t> members;
    for (uint32_t r : rule_ids) {
      members.insert(p.rules[r].head.pred);
      unit.base.push_back(add(r, -1));
    }
    unit.members.assign(members.begin(), members.end());
    // A rule reads the delta through each same-stratum positive literal.
    // Rules with none are non-recursive within this stratum and fire only
    // in round 0: their lower-stratum inputs are already complete.
    for (uint32_t r : rule_ids) {
      const Rule& rule = p.rules[r];
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (!rule.body[i].negated && strata[rule.body[i].pred] == stratum) {
          unit.deltas.push_back(add(r, static_cast<int>(i)));
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Evaluator

// Rows [0, total_end) are the total as of the last flush and
// [delta_begin, total_end) the rows that flush added; rows past
// total_end are this round's derivations, which no join reads yet. A
// borrowed EDB relation is complete before the first round: its total is
// every row, and it never leads a rule variant as a delta.
struct Evaluator::Rel {
  std::shared_ptr<const Relation> relation;  // what joins read
  Relation* own = nullptr;  // IDB only: the same relation, writable
  uint64_t total_end = 0;
  uint64_t delta_begin = 0;
};

namespace {

inline int64_t ValueOf(const Term& t, const std::vector<int64_t>& vars) {
  return t.is_var ? vars[t.var] : t.value;
}

}  // namespace

Evaluator::Evaluator(const CompiledProgram* program, EvalOptions options)
    : program_(program), options_(options) {}

Evaluator::~Evaluator() = default;

base::Status Evaluator::SetUpRelations(const EdbLoader& loader) {
  const Program& program = program_->program();
  rels_.reserve(program.preds.size());
  for (uint32_t p = 0; p < program.preds.size(); ++p) {
    const Predicate& pred = program.preds[p];
    Rel& rel = rels_.emplace_back();
    if (!pred.edb) {
      auto own = std::make_shared<Relation>(pred.arity);
      rel.own = own.get();
      rel.relation = std::move(own);
      continue;
    }
    EDUCE_ASSIGN_OR_RETURN(rel.relation, loader(p));
    if (rel.relation == nullptr || rel.relation->arity() != pred.arity) {
      return base::Status::InvalidArgument(
          "datalog: loader gave no relation of arity " +
          std::to_string(pred.arity) + " for " + PredName(program, p));
    }
    rel.total_end = rel.relation->size();
    stats_.edb_rows += rel.total_end;
  }
  return base::Status::OK();
}

void Evaluator::RunVariants(const std::vector<uint32_t>& ids) {
  for (uint32_t id : ids) {
    const Variant& variant = program_->variants_[id];
    // An empty input range means no matches: skip the variant before
    // building any index for it.
    bool empty = false;
    for (const Step& step : variant.steps) {
      const Rel& rel = rels_[step.pred];
      empty = empty || (step.delta ? rel.delta_begin : 0) == rel.total_end;
    }
    if (empty) continue;
    for (const Step& step : variant.steps) {
      if (step.probe_column == CompiledProgram::kScan ||
          indexes_[step.slot] != nullptr) {
        continue;
      }
      bool built = false;
      const Rel& rel = rels_[step.pred];
      indexes_[step.slot] =
          rel.relation->Index(step.probe_column, rel.total_end, &built);
      if (built) ++stats_.index_builds;
    }
    if (variant.steps.empty()) {
      EmitHead(variant);
    } else {
      Join(variant, 0);
    }
  }
}

void Evaluator::Join(const Variant& variant, size_t k) {
  if (k == variant.steps.size()) {
    ++stats_.join_rows;
    EmitHead(variant);
    return;
  }
  const Step& step = variant.steps[k];
  const Rel& rel = rels_[step.pred];
  const RowSet& rows = rel.relation->rows();
  // Bindings and checks read the row before recursing: deeper steps may
  // append to this same RowSet and move its arena.
  auto match = [&](uint64_t r) {
    const int64_t* row = rows.RowAt(r);
    for (const auto& [var, col] : step.binds) vars_[var] = row[col];
    for (const auto& [col, term] : step.checks) {
      if (row[col] != ValueOf(term, vars_)) return;
    }
    Join(variant, k + 1);
  };
  if (step.probe_column != CompiledProgram::kScan) {
    ++stats_.join_probes;
    const ColumnIndex* index = indexes_[step.slot];
    for (uint64_t r = index->First(ValueOf(step.key, vars_));
         r != ColumnIndex::kEnd; r = index->Next(r)) {
      match(r);
    }
  } else {
    const uint64_t end = rel.total_end;
    for (uint64_t r = step.delta ? rel.delta_begin : 0; r < end; ++r) {
      match(r);
    }
  }
}

void Evaluator::EmitHead(const Variant& variant) {
  // A nullary atom is stored as one constant-0 column, hence the zero
  // before the arguments go in.
  for (const Atom& atom : variant.negatives) {
    row_[0] = 0;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      row_[i] = ValueOf(atom.args[i], vars_);
    }
    if (rels_[atom.pred].relation->rows().Contains(row_.data())) return;
  }
  for (size_t i = 0; i < variant.head_args.size(); ++i) {
    row_[i] = ValueOf(variant.head_args[i], vars_);
  }
  if (rels_[variant.head_pred].own->Insert(row_.data())) {
    ++stats_.tuples_derived;
  } else {
    ++stats_.dedup_hits;
  }
}

uint64_t Evaluator::FlushPending(const std::vector<uint32_t>& members) {
  uint64_t flushed = 0;
  for (uint32_t p : members) {
    Rel& rel = rels_[p];
    rel.delta_begin = rel.total_end;
    rel.total_end = rel.relation->size();
    flushed += rel.total_end - rel.delta_begin;
    rel.own->ExtendIndexes(rel.total_end);
  }
  return flushed;
}

base::Status Evaluator::EvalStratum(const CompiledProgram::Stratum& stratum) {
  // One round: the variants over the current ranges, then the flush that
  // makes their derivations the next delta. Timed per round, not per row:
  // one clock read ends the join, and one ends the flush and starts the
  // next round's join.
  const base::Stopwatch watch;
  uint64_t lap = watch.ElapsedNanos();
  auto round = [&](const std::vector<uint32_t>& variants) {
    RunVariants(variants);
    const uint64_t joined = watch.ElapsedNanos();
    const uint64_t flushed = FlushPending(stratum.members);
    const uint64_t done = watch.ElapsedNanos();
    stats_.join_ns += joined - lap;
    stats_.flush_ns += done - joined;
    lap = done;
    ++stats_.iterations;
    stats_.delta_sizes.push_back(flushed);
    return flushed;
  };
  uint64_t flushed = round(stratum.base);
  uint64_t stratum_tuples = flushed;
  for (uint64_t n = 1; flushed > 0; ++n) {
    if (options_.max_iterations > 0 && n > options_.max_iterations) {
      return base::Status::Internal(
          "datalog: fixpoint exceeded max_iterations=" +
          std::to_string(options_.max_iterations));
    }
    // Naive mode re-derives everything from totals every round; the
    // RowSet keeps the fixpoint identical. Testing reference only.
    flushed = round(options_.semi_naive ? stratum.deltas : stratum.base);
    stratum_tuples += flushed;
  }
  stats_.per_stratum_tuples.push_back(stratum_tuples);
  return base::Status::OK();
}

base::Status Evaluator::Run(const EdbLoader& loader) {
  if (ran_) return base::Status::FailedPrecondition("datalog: Run called twice");
  ran_ = true;
  if (base::Status status = SetUpRelations(loader); !status.ok()) {
    rels_.clear();  // no half-built relation for TupleCount or Visit
    return status;
  }
  indexes_.assign(program_->num_slots_, nullptr);
  stats_.per_stratum_tuples.reserve(program_->strata_.size());
  stats_.delta_sizes.reserve(16);
  vars_.assign(program_->num_vars_, 0);
  row_.assign(program_->row_width_, 0);
  for (const CompiledProgram::Stratum& stratum : program_->strata_) {
    ++stats_.strata;
    EDUCE_RETURN_IF_ERROR(EvalStratum(stratum));
  }
  return base::Status::OK();
}

uint64_t Evaluator::TupleCount(uint32_t pred) const {
  if (pred >= rels_.size()) return 0;
  return rels_[pred].relation->size();
}

std::vector<std::vector<int64_t>> Evaluator::Tuples(uint32_t pred) const {
  std::vector<std::vector<int64_t>> out;
  if (pred >= rels_.size()) return out;
  const RowSet& rows = rels_[pred].relation->rows();
  const uint32_t width = program_->program().preds[pred].arity;
  out.reserve(rows.size());
  for (uint64_t i = 0; i < rows.size(); ++i) {
    const int64_t* row = rows.RowAt(i);
    out.emplace_back(row, row + width);
  }
  return out;
}

const RowSet* Evaluator::Rows(uint32_t pred) const {
  return pred < rels_.size() ? &rels_[pred].relation->rows() : nullptr;
}

}  // namespace educe::rel::datalog
