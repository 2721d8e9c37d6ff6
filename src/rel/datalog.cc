#include "rel/datalog.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <utility>

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

RowSet::RowSet(uint32_t width) : width_(width), slots_(16, kNotFound) {}

uint64_t RowSet::FindSlot(const int64_t* row) const {
  const uint64_t mask = slots_.size() - 1;
  for (uint64_t s = HashRow(row, width_) & mask;; s = (s + 1) & mask) {
    const uint64_t id = slots_[s];
    if (id == kNotFound || std::equal(row, row + width_, RowAt(id))) return s;
  }
}

void RowSet::Grow() {
  slots_.assign(slots_.size() * 2, kNotFound);
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
// ColumnIndex, Relation

void ColumnIndex::Extend(const RowSet& rows, uint64_t end) {
  for (uint64_t r = next_.size(); r < end; ++r) {
    const int64_t* key = rows.RowAt(r) + column_;
    const uint64_t k = keys_.Find(key);
    if (k == RowSet::kNotFound) {
      keys_.Insert(key);
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

// A positive body literal: a scan of a row range, or a hash-index probe
// on a constant or an earlier-bound variable; then the bindings of its
// new variables and the checks of its other columns.
struct Evaluator::Step {
  const RowSet* rows = nullptr;
  uint64_t begin = 0, end = 0;  // scanned range when `index` is null
  const ColumnIndex* index = nullptr;
  Term key;
  std::vector<std::pair<uint32_t, uint32_t>> binds;  // var := row[col]
  std::vector<std::pair<uint32_t, Term>> checks;     // row[col] == term
};

struct Evaluator::RuleJoin {
  const Rule* rule = nullptr;
  Rel* head = nullptr;
  std::vector<Step> steps;
  std::vector<const Atom*> negatives;
  std::vector<int64_t> vars;  // current value of each rule variable
  std::vector<int64_t> row;   // head / negated-literal probe buffer
  uint64_t* derived = nullptr;

  int64_t Value(const Term& t) const { return t.is_var ? vars[t.var] : t.value; }
};

Evaluator::Evaluator(const Program* program, EvalOptions options)
    : program_(program), options_(options) {}

Evaluator::~Evaluator() = default;

base::Status Evaluator::SetUpRelations(const EdbLoader& loader) {
  rels_.reserve(program_->preds.size());
  for (uint32_t p = 0; p < program_->preds.size(); ++p) {
    const Predicate& pred = program_->preds[p];
    Rel* rel = rels_.emplace_back(std::make_unique<Rel>()).get();
    if (!pred.edb) {
      auto own = std::make_shared<Relation>(pred.arity);
      rel->own = own.get();
      rel->relation = std::move(own);
      continue;
    }
    EDUCE_ASSIGN_OR_RETURN(rel->relation, loader(p));
    if (rel->relation == nullptr || rel->relation->arity() != pred.arity) {
      return base::Status::InvalidArgument(
          "datalog: loader gave no relation of arity " +
          std::to_string(pred.arity) + " for " + PredName(*program_, p));
    }
    rel->total_end = rel->relation->size();
    stats_.edb_rows += rel->total_end;
  }
  return base::Status::OK();
}

const ColumnIndex* Evaluator::IndexOn(Rel* rel, uint32_t column) {
  bool built = false;
  const ColumnIndex* index =
      rel->relation->Index(column, rel->total_end, &built);
  if (built) ++stats_.index_builds;
  return index;
}

void Evaluator::EvalRule(const Rule& rule, int delta_pos, uint64_t* derived) {
  RuleJoin join;
  join.rule = &rule;
  join.head = rels_[rule.head.pred].get();
  join.derived = derived;
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
      join.negatives.push_back(&rule.body[i]);
    } else {
      positives.push_back(i);
    }
  }
  join.vars.assign(num_vars, 0);

  if (positives.empty()) {
    // Fact rule (or purely negative body, which range restriction limits
    // to ground literals): one virtual match, no scan.
    EmitHead(&join);
    return;
  }

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
    Rel* rel = rels_[atom.pred].get();
    const bool is_delta =
        delta_pos >= 0 && body_idx == static_cast<size_t>(delta_pos);
    Step step;
    step.rows = &rel->relation->rows();
    step.begin = is_delta ? rel->delta_begin : 0;
    step.end = rel->total_end;
    if (step.begin == step.end) return;  // an empty input: no matches
    // The delta is scanned; any other literal probes the index of its
    // first column whose value is known before the literal is reached.
    int probe_column = -1;
    if (!is_delta) {
      for (uint32_t col = 0; col < atom.args.size(); ++col) {
        const Term& t = atom.args[col];
        if (!t.is_var || bound[t.var]) {
          probe_column = static_cast<int>(col);
          step.index = IndexOn(rel, col);
          step.key = t;
          break;
        }
      }
    }
    for (uint32_t col = 0; col < atom.args.size(); ++col) {
      if (static_cast<int>(col) == probe_column) continue;
      const Term& t = atom.args[col];
      if (t.is_var && !bound[t.var]) {
        bound[t.var] = true;
        step.binds.emplace_back(t.var, col);
      } else {
        step.checks.emplace_back(col, t);
      }
    }
    join.steps.push_back(std::move(step));
  }
  Join(&join, 0);
}

void Evaluator::Join(RuleJoin* join, size_t k) {
  if (k == join->steps.size()) {
    ++stats_.join_rows;
    EmitHead(join);
    return;
  }
  const Step& step = join->steps[k];
  // Bindings and checks read the row before recursing: deeper steps may
  // append to this same RowSet and move its arena.
  auto match = [&](uint64_t r) {
    const int64_t* row = step.rows->RowAt(r);
    for (const auto& [var, col] : step.binds) join->vars[var] = row[col];
    for (const auto& [col, term] : step.checks) {
      if (row[col] != join->Value(term)) return;
    }
    Join(join, k + 1);
  };
  if (step.index != nullptr) {
    ++stats_.join_probes;
    for (uint64_t r = step.index->First(join->Value(step.key));
         r != ColumnIndex::kEnd; r = step.index->Next(r)) {
      match(r);
    }
  } else {
    for (uint64_t r = step.begin; r < step.end; ++r) match(r);
  }
}

void Evaluator::EmitHead(RuleJoin* join) {
  // Nullary atoms are stored as one constant-0 column, hence the zero
  // fill before the arguments go in.
  for (const Atom* atom : join->negatives) {
    const RowSet& rows = rels_[atom->pred]->relation->rows();
    join->row.assign(rows.width(), 0);
    for (size_t i = 0; i < atom->args.size(); ++i) {
      join->row[i] = join->Value(atom->args[i]);
    }
    if (rows.Contains(join->row.data())) return;
  }
  const std::vector<Term>& head_args = join->rule->head.args;
  join->row.resize(head_args.size());
  for (size_t i = 0; i < head_args.size(); ++i) {
    join->row[i] = join->Value(head_args[i]);
  }
  if (join->head->own->Insert(join->row.data())) {
    ++stats_.tuples_derived;
    ++*join->derived;
  } else {
    ++stats_.dedup_hits;
  }
}

uint64_t Evaluator::FlushPending(const std::vector<uint32_t>& members) {
  uint64_t flushed = 0;
  for (uint32_t p : members) {
    Rel* rel = rels_[p].get();
    rel->delta_begin = rel->total_end;
    rel->total_end = rel->relation->size();
    flushed += rel->total_end - rel->delta_begin;
    rel->own->ExtendIndexes(rel->total_end);
  }
  return flushed;
}

base::Status Evaluator::EvalStratum(const std::vector<uint32_t>& rule_ids,
                                    const std::vector<uint32_t>& strata,
                                    uint32_t stratum) {
  std::set<uint32_t> member_set;
  for (uint32_t r : rule_ids) member_set.insert(program_->rules[r].head.pred);
  std::vector<uint32_t> members(member_set.begin(), member_set.end());

  // Variants: (rule, position of the same-stratum positive literal that
  // reads the delta). Rules with none are non-recursive within this
  // stratum and fire only in round 0 — their lower-stratum inputs are
  // already complete.
  std::vector<std::pair<uint32_t, int>> variants;
  for (uint32_t r : rule_ids) {
    const Rule& rule = program_->rules[r];
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!rule.body[i].negated && strata[rule.body[i].pred] == stratum) {
        variants.emplace_back(r, static_cast<int>(i));
      }
    }
  }

  uint64_t derived = 0;
  for (uint32_t r : rule_ids) EvalRule(program_->rules[r], -1, &derived);
  uint64_t round = 0;
  uint64_t flushed = FlushPending(members);
  uint64_t stratum_tuples = flushed;
  ++stats_.iterations;
  stats_.delta_sizes.push_back(flushed);

  while (flushed > 0) {
    ++round;
    if (options_.max_iterations > 0 && round > options_.max_iterations) {
      return base::Status::Internal(
          "datalog: fixpoint exceeded max_iterations=" +
          std::to_string(options_.max_iterations));
    }
    derived = 0;
    if (options_.semi_naive) {
      for (const auto& [r, pos] : variants) {
        EvalRule(program_->rules[r], pos, &derived);
      }
    } else {
      // Naive mode re-derives everything from totals every round; the
      // RowSet keeps the fixpoint identical. Testing reference only.
      for (uint32_t r : rule_ids) EvalRule(program_->rules[r], -1, &derived);
    }
    flushed = FlushPending(members);
    ++stats_.iterations;
    stats_.delta_sizes.push_back(flushed);
    stratum_tuples += flushed;
  }
  stats_.per_stratum_tuples.push_back(stratum_tuples);
  return base::Status::OK();
}

base::Status Evaluator::Run(const EdbLoader& loader) {
  if (ran_) return base::Status::FailedPrecondition("datalog: Run called twice");
  ran_ = true;
  EDUCE_RETURN_IF_ERROR(Validate(*program_));
  EDUCE_ASSIGN_OR_RETURN(std::vector<uint32_t> strata, Stratify(*program_));

  if (base::Status status = SetUpRelations(loader); !status.ok()) {
    rels_.clear();  // no half-built relation for TupleCount or Visit
    return status;
  }

  // Group rules by head stratum, evaluate strata in dependency order.
  std::map<uint32_t, std::vector<uint32_t>> by_stratum;
  for (uint32_t r = 0; r < program_->rules.size(); ++r) {
    by_stratum[strata[program_->rules[r].head.pred]].push_back(r);
  }
  for (const auto& [stratum, rule_ids] : by_stratum) {
    ++stats_.strata;
    EDUCE_RETURN_IF_ERROR(EvalStratum(rule_ids, strata, stratum));
  }
  return base::Status::OK();
}

uint64_t Evaluator::TupleCount(uint32_t pred) const {
  if (pred >= rels_.size()) return 0;
  return rels_[pred]->relation->size();
}

std::vector<std::vector<int64_t>> Evaluator::Tuples(uint32_t pred) const {
  std::vector<std::vector<int64_t>> out;
  if (pred >= rels_.size()) return out;
  const RowSet& rows = rels_[pred]->relation->rows();
  const uint32_t width = program_->preds[pred].arity;
  out.reserve(rows.size());
  for (uint64_t i = 0; i < rows.size(); ++i) {
    const int64_t* row = rows.RowAt(i);
    out.emplace_back(row, row + width);
  }
  return out;
}

void Evaluator::Visit(
    uint32_t pred, const std::function<bool(const int64_t* row)>& fn) const {
  if (pred >= rels_.size()) return;
  const RowSet& rows = rels_[pred]->relation->rows();
  for (uint64_t i = 0; i < rows.size(); ++i) {
    if (!fn(rows.RowAt(i))) return;
  }
}

}  // namespace educe::rel::datalog
