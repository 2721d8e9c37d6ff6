#include "educe/datalog.h"

#include <limits>
#include <optional>
#include <tuple>

#include "base/stopwatch.h"

namespace educe {

namespace rdl = rel::datalog;

namespace {

// Constants ride in the IR's int64 payload with a one-bit tag, so the
// evaluator never touches the dictionary: atoms carry their (session-
// stable) SymbolId, integers their value. Integers outside 62 bits are
// out of Datalog range (fall back to the WAM rather than mis-encode).
constexpr int64_t kIntLimit = int64_t{1} << 61;

int64_t EncodeAtom(dict::SymbolId sym) {
  return static_cast<int64_t>((static_cast<uint64_t>(sym) << 1) | 1);
}

bool EncodableInt(int64_t v) { return v > -kIntLimit && v < kIntLimit; }

int64_t EncodeInt(int64_t v) {
  return static_cast<int64_t>(static_cast<uint64_t>(v) << 1);
}

term::AstPtr DecodeConstant(int64_t value) {
  if (value & 1) {
    return term::MakeAtom(
        static_cast<dict::SymbolId>(static_cast<uint64_t>(value) >> 1));
  }
  return term::MakeInt(value >> 1);
}

// Encodes a goal/clause argument; Unsupported when out of Datalog range.
base::Result<rdl::Term> EncodeArg(const term::Ast& arg) {
  switch (arg.kind) {
    case term::Ast::Kind::kVar:
      return rdl::Term::Var(arg.var_index);
    case term::Ast::Kind::kAtom:
      return rdl::Term::Const(EncodeAtom(arg.functor));
    case term::Ast::Kind::kInt:
      if (!EncodableInt(arg.int_value)) {
        return base::Status::Unsupported("datalog: integer out of range");
      }
      return rdl::Term::Const(EncodeInt(arg.int_value));
    default:
      return base::Status::Unsupported(
          "datalog: argument is not a constant or variable");
  }
}

bool IsUnsupported(const base::Status& status) {
  return status.code() == base::StatusCode::kUnsupported;
}

}  // namespace

const term::AstPtr& AnswerConstants::Ast(uint32_t id) const {
  Constant& constant = constants_[id];
  if (constant.ast == nullptr) {
    constant.ast = DecodeConstant(constant.value);
    if (decoded_ != nullptr) decoded_->fetch_add(1, std::memory_order_relaxed);
  }
  return constant.ast;
}

struct DatalogManager::Plan {
  /// The IR, compiled once: every evaluation of the plan runs it.
  rdl::CompiledProgram compiled;
  uint32_t query_pred = 0;
  uint32_t seed_pred = rdl::kNoPred;
  /// Goal argument positions feeding the magic seed tuple, ascending.
  std::vector<size_t> seed_positions;
  /// IR pred id -> EDB relation to bulk-scan.
  std::map<uint32_t, PredKey> edb_sources;
  /// Every predicate the plan was compiled from (push invalidation set).
  std::set<PredKey> deps;
  bool recursive = false;
  uint64_t epoch = 0;  // catalog epoch at compile start
};

/// One EDB relation, read at `version` of `proc`. Its rows never change
/// once published, so evaluations borrow it without mu_; they build its
/// column indexes lazily, each at most once (rel::datalog::Relation).
struct DatalogManager::EdbEntry {
  EdbEntry(const edb::ProcedureInfo* p, uint32_t arity)
      : proc(p), relation(arity) {}
  const edb::ProcedureInfo* proc;
  uint64_t version = 0;
  rdl::Relation relation;
};

DatalogManager::DatalogManager(dict::Dictionary* dictionary,
                               edb::ClauseStore* store, wam::Program* program,
                               obs::Tracer* tracer)
    : dictionary_(dictionary),
      store_(store),
      program_(program),
      tracer_(tracer) {
  // Push invalidation, same contract as the code cache: the store fires
  // listeners under its write latch before the mutation unlatches, so a
  // plan can never be fetched after the facts it compiled against moved.
  // (Lock order: the store latch is held while mu_ is taken here, so no
  // path in this class may call into the store while holding mu_.)
  listener_token_ = store_->AddMutationListener(
      [this](const edb::ProcedureInfo& proc) {
        InvalidateDependents(PredKey{proc.name, proc.arity});
      });
}

DatalogManager::~DatalogManager() {
  store_->RemoveMutationListener(listener_token_);
}

void DatalogManager::InvalidateDependents(const PredKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
  edb_cache_.erase(key);
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->second->deps.count(key) > 0) {
      it = plans_.erase(it);
      ++stats_.plans_invalidated;
    } else {
      ++it;
    }
  }
}

void DatalogManager::AddClause(const term::AstPtr& clause) {
  term::AstPtr head = clause;
  if (head->IsStruct() && head->args.size() == 2 &&
      dictionary_->NameOf(head->functor) == ":-") {
    head = head->args[0];
  }
  if (!head->IsCallable()) return;
  PredKey key{std::string(dictionary_->NameOf(head->functor)), head->arity()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    catalog_[key].push_back(clause);
  }
  InvalidateDependents(key);
}

void DatalogManager::SetStrategy(std::string_view name, uint32_t arity,
                                 DatalogStrategy strategy) {
  std::lock_guard<std::mutex> lock(mu_);
  strategies_[PredKey{std::string(name), arity}] = strategy;
}

DatalogStrategy DatalogManager::GetStrategy(std::string_view name,
                                            uint32_t arity) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = strategies_.find(PredKey{std::string(name), arity});
  return it == strategies_.end() ? DatalogStrategy::kAuto : it->second;
}

DatalogStats DatalogManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DatalogStats stats = stats_;
  stats.constants_decoded = constants_decoded_.load(std::memory_order_relaxed);
  return stats;
}

uint64_t DatalogManager::EdbCacheBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const auto& [key, entry] : edb_cache_) {
    bytes += entry->relation.MemoryBytes();
  }
  return bytes;
}

void DatalogManager::ClearEdbCache() {
  std::lock_guard<std::mutex> lock(mu_);
  edb_cache_.clear();
}

base::Result<std::shared_ptr<const rdl::Relation>> DatalogManager::LoadEdb(
    const PredKey& key, uint64_t* rows_read) {
  edb::ProcedureInfo* proc = store_->Find(key.first, key.second);
  if (proc == nullptr) {
    return base::Status::Unsupported("datalog: relation dropped");
  }
  std::shared_ptr<const EdbEntry> entry;
  {
    // The version may move right after this read; the entry is then
    // still the relation as of a moment before that mutation.
    const uint64_t version = proc->version.load();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = edb_cache_.find(key);
    if (it != edb_cache_.end() && it->second->proc == proc &&
        it->second->version == version) {
      entry = it->second;
    }
  }
  if (entry == nullptr) {
    auto fresh = std::make_shared<EdbEntry>(proc, key.second);
    std::vector<int64_t> row(key.second);
    uint64_t read = 0;
    EDUCE_ASSIGN_OR_RETURN(
        fresh->version,
        store_->ScanAllFacts(proc, [&](const term::Ast& fact)
                                       -> base::Status {
          for (uint32_t i = 0; i < key.second; ++i) {
            EDUCE_ASSIGN_OR_RETURN(rdl::Term t, EncodeArg(*fact.args[i]));
            if (t.is_var) {
              return base::Status::Unsupported("datalog: non-ground EDB fact");
            }
            row[i] = t.value;
          }
          fresh->relation.Insert(row.data());
          ++read;
          return base::Status::OK();
        }));
    *rows_read += read;
    // A mutation that landed after the scan has already run the listener;
    // the stale version recorded here keeps this entry from being used.
    std::lock_guard<std::mutex> lock(mu_);
    edb_cache_[key] = fresh;
    entry = std::move(fresh);
  }
  // Aliases the entry: the relation lives as long as any borrower.
  return std::shared_ptr<const rdl::Relation>(entry, &entry->relation);
}

base::Result<std::shared_ptr<DatalogManager::Plan>> DatalogManager::Compile(
    const std::string& name, uint32_t arity, uint64_t adornment,
    const term::Ast& goal) {
  (void)goal;
  auto plan = std::make_shared<Plan>();
  rdl::Program program;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan->epoch = epoch_;
  }

  std::map<PredKey, uint32_t> pred_ids;
  std::vector<PredKey> worklist;
  auto intern_pred = [&](const PredKey& key) {
    auto it = pred_ids.find(key);
    if (it != pred_ids.end()) return it->second;
    uint32_t id = program.AddPred(
        key.first + "/" + std::to_string(key.second), key.second,
        /*edb=*/false);
    pred_ids.emplace(key, id);
    plan->deps.insert(key);
    worklist.push_back(key);
    return id;
  };

  const wam::BuiltinTable* builtins = program_->builtins();
  uint32_t query_id = intern_pred(PredKey{name, arity});

  // Translates one body goal into IR literals (flattening conjunctions,
  // mapping \+ to stratified negation).
  std::function<base::Status(const term::Ast&, bool, rdl::Rule*)> add_goal =
      [&](const term::Ast& g, bool negated, rdl::Rule* rule) -> base::Status {
    if (g.IsAtom() && dictionary_->NameOf(g.functor) == "true") {
      if (negated) {
        return base::Status::Unsupported("datalog: \\+ true");
      }
      return base::Status::OK();
    }
    if (!g.IsCallable()) {
      return base::Status::Unsupported("datalog: body goal is not callable");
    }
    const std::string_view gname = dictionary_->NameOf(g.functor);
    if (g.args.size() == 2 && gname == ",") {
      if (negated) {
        return base::Status::Unsupported("datalog: \\+ over a conjunction");
      }
      EDUCE_RETURN_IF_ERROR(add_goal(*g.args[0], false, rule));
      return add_goal(*g.args[1], false, rule);
    }
    if (g.args.size() == 1 && gname == "\\+") {
      if (negated) {
        return base::Status::Unsupported("datalog: nested \\+");
      }
      return add_goal(*g.args[0], true, rule);
    }
    if (builtins->Find(g.functor).has_value() || gname == ";" ||
        gname == "->" || gname == "!" || gname == ":-") {
      return base::Status::Unsupported("datalog: builtin or control goal " +
                                       std::string(gname));
    }
    rdl::Atom atom;
    atom.pred =
        intern_pred(PredKey{std::string(gname), g.arity()});
    atom.negated = negated;
    for (const term::AstPtr& arg : g.args) {
      EDUCE_ASSIGN_OR_RETURN(rdl::Term t, EncodeArg(*arg));
      atom.args.push_back(t);
    }
    rule->body.push_back(std::move(atom));
    return base::Status::OK();
  };

  // Resolve every reachable predicate, mirroring the WAM: a main-memory
  // (catalog) definition wins; otherwise the EDB resolver's view — fact
  // relations bulk-scan, anything else is out of range.
  std::set<PredKey> resolved;
  while (!worklist.empty()) {
    PredKey key = worklist.back();
    worklist.pop_back();
    if (!resolved.insert(key).second) continue;
    uint32_t id = pred_ids.at(key);

    std::vector<term::AstPtr> clauses;
    bool in_catalog = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = catalog_.find(key);
      if (it != catalog_.end()) {
        in_catalog = true;
        clauses = it->second;  // snapshot: no store call under mu_
      }
    }
    if (!in_catalog) {
      edb::ProcedureInfo* proc = store_->Find(key.first, key.second);
      if (proc == nullptr) {
        return base::Status::Unsupported("datalog: " + key.first + "/" +
                                         std::to_string(key.second) +
                                         " has no Datalog definition");
      }
      if (proc->mode != edb::ProcedureMode::kFacts) {
        return base::Status::Unsupported(
            "datalog: " + key.first +
            " stores rules with no catalog source (prior-session image)");
      }
      program.preds[id].edb = true;
      plan->edb_sources.emplace(id, key);
      continue;
    }

    for (const term::AstPtr& clause : clauses) {
      rdl::Rule rule;
      rule.head.pred = id;
      const term::Ast* head = clause.get();
      const term::Ast* body = nullptr;
      if (clause->IsStruct() && clause->args.size() == 2 &&
          dictionary_->NameOf(clause->functor) == ":-") {
        head = clause->args[0].get();
        body = clause->args[1].get();
      }
      for (const term::AstPtr& arg : head->args) {
        EDUCE_ASSIGN_OR_RETURN(rdl::Term t, EncodeArg(*arg));
        rule.head.args.push_back(t);
      }
      if (body != nullptr) {
        EDUCE_RETURN_IF_ERROR(add_goal(*body, false, &rule));
      }
      program.rules.push_back(std::move(rule));
    }
  }

  // Eligibility is decided on the program as written: a magic rewrite
  // adds guards that could make an out-of-range rule look range-
  // restricted.
  base::Status valid = rdl::Validate(program);
  if (!valid.ok()) {
    return base::Status::Unsupported(valid.message());
  }
  {
    base::Result<std::vector<uint32_t>> strata = rdl::Stratify(program);
    if (!strata.ok()) {
      return base::Status::Unsupported(strata.status().message());
    }
  }

  // Recursion anywhere in the closure is what the auto policy keys on:
  // that is the regime where tuple-at-a-time SLD re-derives (DESIGN.md
  // §15). Plain reachability over head -> positive-or-negated body edges.
  {
    const size_t n = program.preds.size();
    std::vector<std::vector<uint32_t>> adj(n);
    for (const rdl::Rule& rule : program.rules) {
      for (const rdl::Atom& atom : rule.body) {
        adj[rule.head.pred].push_back(atom.pred);
      }
    }
    for (uint32_t p = 0; p < n && !plan->recursive; ++p) {
      std::vector<bool> seen(n, false);
      std::vector<uint32_t> stack(adj[p].begin(), adj[p].end());
      while (!stack.empty()) {
        uint32_t v = stack.back();
        stack.pop_back();
        if (v == p) {
          plan->recursive = true;
          break;
        }
        if (seen[v]) continue;
        seen[v] = true;
        stack.insert(stack.end(), adj[v].begin(), adj[v].end());
      }
    }
  }

  plan->query_pred = query_id;
  if (adornment != 0) {
    std::vector<bool> bound(arity, false);
    for (uint32_t i = 0; i < arity; ++i) {
      if (adornment & (uint64_t{1} << i)) {
        bound[i] = true;
        plan->seed_positions.push_back(i);
      }
    }
    base::Result<rdl::MagicProgram> magic =
        rdl::MagicRewrite(program, query_id, bound);
    if (magic.ok() && magic->seed_pred != rdl::kNoPred) {
      program = std::move(magic->program);
      plan->query_pred = magic->query_pred;
      plan->seed_pred = magic->seed_pred;
      // The rewrite re-ids every predicate; re-key the EDB sources.
      std::map<uint32_t, PredKey> rewritten;
      for (uint32_t p = 0; p < program.preds.size(); ++p) {
        if (!program.preds[p].edb ||
            p == plan->seed_pred) {
          continue;
        }
        // EDB preds keep their catalog name through the rewrite.
        const std::string& pname = program.preds[p].name;
        auto slash = pname.rfind('/');
        PredKey key{pname.substr(0, slash),
                    static_cast<uint32_t>(
                        std::stoul(pname.substr(slash + 1)))};
        rewritten.emplace(p, key);
      }
      plan->edb_sources = std::move(rewritten);
    } else if (!magic.ok() && !IsUnsupported(magic.status()) &&
               magic.status().code() != base::StatusCode::kInvalidArgument) {
      return magic.status();
    } else {
      plan->seed_positions.clear();
    }
  }
  base::Result<rdl::CompiledProgram> compiled =
      rdl::CompiledProgram::Compile(std::move(program));
  if (!compiled.ok()) {
    return base::Status::Unsupported(compiled.status().message());
  }
  plan->compiled = std::move(*compiled);
  return plan;
}

base::Result<DatalogManager::Answer> DatalogManager::TryQuery(
    const reader::ReadTerm& read) {
  Answer answer;
  answer.constants = AnswerConstants(&constants_decoded_);
  auto fallback = [&]() -> base::Result<Answer> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_fallback;
    return answer;
  };

  const term::Ast& goal = *read.term;
  if (!goal.IsCallable() || goal.arity() > 63) return fallback();
  const std::string name(dictionary_->NameOf(goal.functor));
  const uint32_t arity = goal.arity();

  DatalogStrategy strategy = GetStrategy(name, arity);
  if (strategy == DatalogStrategy::kWam) return fallback();

  uint64_t adornment = 0;
  for (uint32_t i = 0; i < arity; ++i) {
    const term::Ast& arg = *goal.args[i];
    if (arg.IsVar()) continue;
    base::Result<rdl::Term> enc = EncodeArg(arg);
    if (!enc.ok()) return fallback();  // non-constant goal argument
    adornment |= uint64_t{1} << i;
  }

  std::shared_ptr<Plan> plan;
  PlanKey plan_key{name, arity, adornment};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(plan_key);
    if (it != plans_.end()) {
      plan = it->second;
      ++stats_.plan_cache_hits;
    }
  }
  if (plan == nullptr) {
    base::Result<std::shared_ptr<Plan>> compiled =
        Compile(name, arity, adornment, goal);
    if (!compiled.ok()) {
      if (IsUnsupported(compiled.status())) return fallback();
      return compiled.status();
    }
    plan = *compiled;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.plans_compiled;
    if (plan->seed_pred != rdl::kNoPred) ++stats_.magic_rewrites;
    // Cache only if no mutation raced the compile (the listener fires
    // under the store's write latch; a racing plan must not outlive it).
    if (plan->epoch == epoch_) plans_[plan_key] = plan;
  }
  if (strategy == DatalogStrategy::kAuto && !plan->recursive) {
    return fallback();
  }

  // Evaluate on the evaluator's own arenas; the only shared state
  // touched is the EDB cache (whose relations the evaluation borrows and
  // may index) and, on a miss, the clause store's latched bulk scan.
  rdl::Evaluator eval(&plan->compiled, rdl::EvalOptions{});
  uint64_t store_rows = 0;
  base::Status eval_status;
  {
    obs::ScopedSpan span(tracer_, obs::SpanKind::kDatalog,
                         dictionary_->HashOf(goal.functor));
    eval_status = eval.Run(
        [&](uint32_t pred)
            -> base::Result<std::shared_ptr<const rdl::Relation>> {
          if (pred == plan->seed_pred) {
            // The magic seed: one row of the goal's bound constants.
            std::vector<int64_t> row;
            for (size_t position : plan->seed_positions) {
              EDUCE_ASSIGN_OR_RETURN(rdl::Term t,
                                     EncodeArg(*goal.args[position]));
              row.push_back(t.value);
            }
            auto seed = std::make_shared<rdl::Relation>(
                static_cast<uint32_t>(row.size()));
            seed->Insert(row.data());
            return std::shared_ptr<const rdl::Relation>(std::move(seed));
          }
          auto src = plan->edb_sources.find(pred);
          if (src == plan->edb_sources.end()) {
            return base::Status::Internal("datalog: EDB pred without source");
          }
          return LoadEdb(src->second, &store_rows);
        });
  }
  if (!eval_status.ok()) {
    if (IsUnsupported(eval_status)) return fallback();
    return eval_status;
  }

  // Filter the query relation against the goal's constants and repeated
  // variables and project the named variables, in derivation order.
  std::vector<std::pair<int64_t, int>> const_cols;   // col == value
  std::vector<std::pair<int, int>> eq_cols;          // col == col
  std::map<uint32_t, int> var_first;
  for (uint32_t i = 0; i < arity; ++i) {
    const term::Ast& arg = *goal.args[i];
    if (!arg.IsVar()) {
      EDUCE_ASSIGN_OR_RETURN(rdl::Term t, EncodeArg(arg));
      const_cols.emplace_back(t.value, static_cast<int>(i));
      continue;
    }
    auto [it, fresh] = var_first.emplace(arg.var_index, static_cast<int>(i));
    if (!fresh) eq_cols.emplace_back(it->second, static_cast<int>(i));
  }
  std::vector<int> out_cols;
  for (const auto& [var_name, index] : read.var_names) {
    auto it = var_first.find(index);
    if (it == var_first.end()) {
      return base::Status::Internal("datalog: named var missing from goal");
    }
    out_cols.push_back(it->second);
  }
  auto matches = [&](const int64_t* row) {
    for (const auto& [value, col] : const_cols) {
      if (row[col] != value) return false;
    }
    for (const auto& [a, b] : eq_cols) {
      if (row[a] != row[b]) return false;
    }
    return true;
  };

  const base::Stopwatch answer_watch;
  const rdl::RowSet& rows = *eval.Rows(plan->query_pred);
  answer.handled = true;
  answer.width = static_cast<uint32_t>(out_cols.size());
  const bool filtered = !const_cols.empty() || !eq_cols.empty();
  if (out_cols.empty()) {
    // No named variables: a bare yes (one empty row) iff any tuple
    // survives the filters.
    for (uint64_t r = 0; r < rows.size() && answer.count == 0; ++r) {
      if (matches(rows.RowAt(r))) answer.count = 1;
    }
  } else {
    // The query relation holds each tuple once, and surviving rows agree
    // on the constant and repeated columns, so the projection keeps them
    // distinct unless it drops the column of a variable no name covers
    // (an `_`): only then does it need a set to stay duplicate-free.
    std::optional<rdl::RowSet> seen;
    if (out_cols.size() < var_first.size()) seen.emplace(answer.width);
    // Room for every surviving row: one pass of the filters sizes it.
    uint64_t survivors = rows.size();
    if (filtered) {
      survivors = 0;
      for (uint64_t r = 0; r < rows.size(); ++r) {
        survivors += matches(rows.RowAt(r)) ? 1 : 0;
      }
    }
    answer.cells.reserve(survivors * answer.width);
    // A cell is the id of its constant in the answer's table; nothing
    // decodes here.
    std::vector<int64_t> projected(out_cols.size());
    for (uint64_t r = 0; r < rows.size(); ++r) {
      const int64_t* row = rows.RowAt(r);
      if (filtered && !matches(row)) continue;
      for (size_t i = 0; i < out_cols.size(); ++i) {
        projected[i] = row[out_cols[i]];
      }
      if (seen && !seen->Insert(projected.data())) continue;
      for (int64_t value : projected) {
        const uint64_t id = answer.constants.Intern(value);
        if (id > std::numeric_limits<uint32_t>::max()) {
          return base::Status::ResourceExhausted(
              "datalog: more than 2^32 distinct constants in one answer");
        }
        answer.cells.push_back(static_cast<uint32_t>(id));
      }
      ++answer.count;
    }
  }
  const uint64_t answer_ns = answer_watch.ElapsedNanos();

  {
    std::lock_guard<std::mutex> lock(mu_);
    const rdl::EvalStats& es = eval.stats();
    ++stats_.queries_bottom_up;
    stats_.strata += es.strata;
    stats_.iterations += es.iterations;
    stats_.tuples_derived += es.tuples_derived;
    stats_.join_rows += es.join_rows;
    stats_.join_probes += es.join_probes;
    stats_.index_builds += es.index_builds;
    stats_.dedup_hits += es.dedup_hits;
    stats_.edb_rows += store_rows;
    stats_.join_ns += es.join_ns;
    stats_.flush_ns += es.flush_ns;
    stats_.answer_ns += answer_ns;
    stats_.last_delta_sizes = es.delta_sizes;
    stats_.last_per_stratum_tuples = es.per_stratum_tuples;
  }
  return answer;
}

std::string DatalogManager::Describe(std::string_view name, uint32_t arity) {
  const std::string key_name(name);
  DatalogStrategy strategy = GetStrategy(key_name, arity);
  const char* strategy_name =
      strategy == DatalogStrategy::kAuto
          ? "auto"
          : strategy == DatalogStrategy::kWam ? "wam" : "bottom-up";
  term::AstPtr dummy = term::MakeAtom(0);
  base::Result<std::shared_ptr<Plan>> plan =
      Compile(key_name, arity, /*adornment=*/0, *dummy);
  std::string out = key_name + "/" + std::to_string(arity) + ": strategy=" +
                    strategy_name;
  if (!plan.ok()) {
    out += " eligible=no (" + plan.status().message() + ")";
    return out;
  }
  out += " eligible=yes recursive=";
  out += (*plan)->recursive ? "yes" : "no";
  out += " preds=" +
         std::to_string((*plan)->compiled.program().preds.size());
  out += " rules=" +
         std::to_string((*plan)->compiled.program().rules.size());
  const char* effective =
      strategy == DatalogStrategy::kWam
          ? "wam"
          : (strategy == DatalogStrategy::kBottomUp || (*plan)->recursive)
                ? "bottom-up"
                : "wam";
  out += std::string(" effective=") + effective;
  return out;
}

}  // namespace educe
