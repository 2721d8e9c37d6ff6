// Differential testing: a tiny reference SLD-resolution interpreter over
// ASTs is the oracle; the WAM (compiler + linker + emulator), with and
// without first-argument indexing, and with clauses stored in the EDB as
// compiled relative code, must produce exactly the same solution lists on
// randomly generated stratified programs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "edb/external_dictionary.h"
#include "educe/engine.h"
#include "reader/parser.h"
#include "reader/writer.h"

namespace educe {
namespace {

// ---------------------------------------------------------------------------
// Reference interpreter: substitution-based resolution on ASTs. Pure
// conjunctive programs only (facts + rules, no builtins, no cut).
// ---------------------------------------------------------------------------

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(dict::Dictionary* dict) : dict_(dict) {}

  void AddClause(const term::AstPtr& clause) {
    term::AstPtr head = clause;
    term::AstPtr body;
    if (IsFunctor(*clause, ":-", 2)) {
      head = clause->args[0];
      body = clause->args[1];
    }
    Clause c;
    c.head = head;
    if (body != nullptr) Flatten(body, &c.body);
    c.num_vars = ClauseVars(clause);
    db_[head->functor].push_back(std::move(c));
  }

  // All solutions of `goal`, rendered: each solution is the list of
  // query-variable bindings in index order.
  std::vector<std::string> Solve(const term::AstPtr& goal, uint32_t num_vars,
                                 int max_solutions = 10000) {
    bindings_.assign(num_vars, nullptr);
    next_var_ = num_vars;
    solutions_.clear();
    max_solutions_ = max_solutions;
    std::vector<term::AstPtr> goals;
    Flatten(goal, &goals);
    std::vector<uint32_t> query_vars(num_vars);
    for (uint32_t i = 0; i < num_vars; ++i) query_vars[i] = i;
    Run(goals, query_vars, 0);
    return solutions_;
  }

 private:
  struct Clause {
    term::AstPtr head;
    std::vector<term::AstPtr> body;
    uint32_t num_vars = 0;
  };

  bool IsFunctor(const term::Ast& t, std::string_view name,
                 size_t arity) const {
    return t.IsStruct() && t.args.size() == arity &&
           dict_->NameOf(t.functor) == name;
  }

  void Flatten(const term::AstPtr& body, std::vector<term::AstPtr>* out) {
    if (IsFunctor(*body, ",", 2)) {
      Flatten(body->args[0], out);
      Flatten(body->args[1], out);
      return;
    }
    out->push_back(body);
  }

  static uint32_t ClauseVars(const term::AstPtr& clause) {
    return term::CountVars(*clause);
  }

  // Dereference a variable index through the substitution.
  term::AstPtr Walk(term::AstPtr t) {
    while (t->IsVar()) {
      if (t->var_index >= bindings_.size() ||
          bindings_[t->var_index] == nullptr) {
        return t;
      }
      t = bindings_[t->var_index];
    }
    return t;
  }

  bool Unify(term::AstPtr a, term::AstPtr b, std::vector<uint32_t>* trail) {
    a = Walk(std::move(a));
    b = Walk(std::move(b));
    if (a->IsVar() && b->IsVar() && a->var_index == b->var_index) return true;
    if (a->IsVar()) {
      Bind(a->var_index, b, trail);
      return true;
    }
    if (b->IsVar()) {
      Bind(b->var_index, a, trail);
      return true;
    }
    if (a->kind != b->kind) return false;
    switch (a->kind) {
      case term::Ast::Kind::kAtom:
        return a->functor == b->functor;
      case term::Ast::Kind::kInt:
        return a->int_value == b->int_value;
      case term::Ast::Kind::kFloat:
        return a->float_value == b->float_value;
      case term::Ast::Kind::kStruct: {
        if (a->functor != b->functor) return false;
        for (size_t i = 0; i < a->args.size(); ++i) {
          if (!Unify(a->args[i], b->args[i], trail)) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  void Bind(uint32_t var, term::AstPtr value, std::vector<uint32_t>* trail) {
    if (var >= bindings_.size()) bindings_.resize(var + 1, nullptr);
    bindings_[var] = std::move(value);
    trail->push_back(var);
  }

  // Renames a clause term by shifting its variable indices by `offset`.
  term::AstPtr Rename(const term::AstPtr& t, uint32_t offset) {
    switch (t->kind) {
      case term::Ast::Kind::kVar:
        return term::MakeVar(t->var_index + offset, t->var_name);
      case term::Ast::Kind::kStruct: {
        std::vector<term::AstPtr> args;
        args.reserve(t->args.size());
        for (const auto& arg : t->args) args.push_back(Rename(arg, offset));
        return term::MakeStruct(t->functor, std::move(args));
      }
      default:
        return t;
    }
  }

  // Fully applies the substitution (for rendering solutions).
  term::AstPtr Resolve(term::AstPtr t) {
    t = Walk(std::move(t));
    if (t->IsStruct()) {
      std::vector<term::AstPtr> args;
      args.reserve(t->args.size());
      for (const auto& arg : t->args) args.push_back(Resolve(arg));
      return term::MakeStruct(t->functor, std::move(args));
    }
    return t;
  }

  void Run(const std::vector<term::AstPtr>& goals,
           const std::vector<uint32_t>& query_vars, size_t index) {
    if (static_cast<int>(solutions_.size()) >= max_solutions_) return;
    if (index == goals.size()) {
      std::string rendered;
      for (uint32_t v : query_vars) {
        reader::WriteOptions wo;
        wo.quoted = true;
        term::AstPtr value = Resolve(term::MakeVar(v, ""));
        // Unbound variables render uniformly (fresh per solution).
        rendered += value->IsVar() ? "_" : reader::WriteTerm(*dict_, *value, wo);
        rendered += "; ";
      }
      solutions_.push_back(std::move(rendered));
      return;
    }
    const term::AstPtr goal = Walk(goals[index]);
    if (!goal->IsCallable()) return;  // ill-typed goal: fail
    auto it = db_.find(goal->functor);
    if (it == db_.end()) return;
    for (const Clause& clause : it->second) {
      const uint32_t offset = next_var_;
      next_var_ += clause.num_vars;
      std::vector<uint32_t> trail;
      if (Unify(goal, Rename(clause.head, offset), &trail)) {
        std::vector<term::AstPtr> rest = goals;
        std::vector<term::AstPtr> renamed_body;
        for (const auto& g : clause.body) {
          renamed_body.push_back(Rename(g, offset));
        }
        rest.insert(rest.begin() + static_cast<long>(index) + 1,
                    renamed_body.begin(), renamed_body.end());
        // Goal at `index` is resolved; its body was spliced right after
        // it, so continuing at index+1 is SLD leftmost selection.
        Run(rest, query_vars, index + 1);
      }
      for (auto rit = trail.rbegin(); rit != trail.rend(); ++rit) {
        bindings_[*rit] = nullptr;
      }
      next_var_ = offset;
    }
  }

  dict::Dictionary* dict_;
  std::map<dict::SymbolId, std::vector<Clause>> db_;
  std::vector<term::AstPtr> bindings_;
  uint32_t next_var_ = 0;
  std::vector<std::string> solutions_;
  int max_solutions_ = 10000;
};

// ---------------------------------------------------------------------------
// Random stratified program generator: pred0.. predK where predI's rule
// bodies only call predJ with J < I (no recursion — both evaluators then
// terminate and enumerate identical finite solution sets).
// ---------------------------------------------------------------------------

struct GeneratedProgram {
  std::string text;
  std::vector<std::string> queries;
};

GeneratedProgram GenerateProgram(uint64_t seed) {
  base::Rng rng(seed);
  GeneratedProgram out;
  const int num_preds = 5;
  const int num_consts = 4;
  std::vector<int> arities;

  auto constant = [&](int c) { return "c" + std::to_string(c); };
  auto random_const = [&] { return constant(static_cast<int>(rng.Below(num_consts))); };

  for (int p = 0; p < num_preds; ++p) {
    const int arity = 1 + static_cast<int>(rng.Below(3));
    arities.push_back(arity);
    const std::string name = "p" + std::to_string(p);

    // Facts.
    const int facts = 2 + static_cast<int>(rng.Below(5));
    for (int f = 0; f < facts; ++f) {
      out.text += name + "(";
      for (int a = 0; a < arity; ++a) {
        if (a) out.text += ", ";
        // Occasionally a structured or duplicate-constant argument.
        if (rng.Below(5) == 0) {
          out.text += "s(" + random_const() + ")";
        } else {
          out.text += random_const();
        }
      }
      out.text += ").\n";
    }

    // Rules calling strictly lower predicates.
    if (p > 0) {
      const int rules = 1 + static_cast<int>(rng.Below(2));
      for (int r = 0; r < rules; ++r) {
        const int body_len = 1 + static_cast<int>(rng.Below(2));
        // Head: mix of variables (drawn from a small pool) and constants.
        std::vector<std::string> vars = {"X", "Y", "Z"};
        out.text += name + "(";
        for (int a = 0; a < arity; ++a) {
          if (a) out.text += ", ";
          out.text += rng.Below(3) == 0 ? random_const()
                                        : vars[rng.Below(vars.size())];
        }
        out.text += ") :- ";
        for (int b = 0; b < body_len; ++b) {
          if (b) out.text += ", ";
          const int callee = static_cast<int>(rng.Below(p));
          out.text += "p" + std::to_string(callee) + "(";
          for (int a = 0; a < arities[callee]; ++a) {
            if (a) out.text += ", ";
            out.text += rng.Below(4) == 0 ? random_const()
                                          : vars[rng.Below(vars.size())];
          }
          out.text += ")";
        }
        out.text += ".\n";
      }
    }
  }

  // Queries: each predicate probed with random boundness patterns.
  for (int p = 0; p < num_preds; ++p) {
    for (int q = 0; q < 3; ++q) {
      std::string query = "p" + std::to_string(p) + "(";
      const char* vars[] = {"A", "B", "C"};
      for (int a = 0; a < arities[p]; ++a) {
        if (a) query += ", ";
        query += rng.Below(2) == 0 ? vars[a] : random_const();
      }
      query += ")";
      out.queries.push_back(std::move(query));
    }
  }
  return out;
}

// Renders one engine solution the same way the reference does.
std::vector<std::string> EngineSolutions(Engine* engine,
                                         const std::string& query,
                                         int max_solutions) {
  auto q = engine->Query(query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> out;
  if (!q.ok()) return out;
  auto parsed = reader::ParseTerm(engine->dictionary(), query);
  while (static_cast<int>(out.size()) < max_solutions) {
    auto more = (*q)->Next();
    EXPECT_TRUE(more.ok()) << more.status() << " for " << query;
    if (!more.ok() || !*more) break;
    std::string rendered;
    for (const auto& [name, index] : parsed->var_names) {
      std::string b = (*q)->Binding(name);
      if (b.rfind("_G", 0) == 0) b = "_";
      rendered += b + "; ";
    }
    out.push_back(std::move(rendered));
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, WamMatchesReferenceInterpreter) {
  const GeneratedProgram program = GenerateProgram(GetParam());
  constexpr int kMaxSolutions = 5000;

  // Oracle.
  dict::Dictionary ref_dict;
  ReferenceInterpreter reference(&ref_dict);
  auto ref_clauses = reader::ParseProgram(&ref_dict, program.text);
  ASSERT_TRUE(ref_clauses.ok()) << ref_clauses.status();
  for (const auto& clause : *ref_clauses) reference.AddClause(clause.term);

  // Systems under test.
  Engine indexed;
  ASSERT_TRUE(indexed.Consult(program.text).ok());
  EngineOptions no_index_options;
  no_index_options.first_arg_indexing = false;
  Engine unindexed(no_index_options);
  ASSERT_TRUE(unindexed.Consult(program.text).ok());
  EngineOptions edb_options;
  edb_options.rule_storage = RuleStorage::kCompiled;
  Engine edb(edb_options);
  ASSERT_TRUE(edb.StoreRulesExternal(program.text).ok());

  for (const std::string& query : program.queries) {
    auto parsed = reader::ParseTerm(&ref_dict, query);
    ASSERT_TRUE(parsed.ok());
    std::vector<std::string> expected =
        reference.Solve(parsed->term, parsed->num_vars, kMaxSolutions);

    EXPECT_EQ(EngineSolutions(&indexed, query, kMaxSolutions), expected)
        << "indexed engine diverged on " << query << "\nprogram:\n"
        << program.text;
    EXPECT_EQ(EngineSolutions(&unindexed, query, kMaxSolutions), expected)
        << "unindexed engine diverged on " << query;
    EXPECT_EQ(EngineSolutions(&edb, query, kMaxSolutions), expected)
        << "EDB-compiled engine diverged on " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

// Fact pre-unification in the page: EDB fact relations bound on non-key
// arguments must answer exactly like the same facts consulted in memory.
// The facts put the filter's edge cases in columns outside the BANG key.
class FactFilterDifferentialTest : public ::testing::Test {
 protected:
  // An atom whose external hash, read as an integer, is a non-negative
  // 61-bit value: a stored atom and a stored int then carry equal u64
  // bits, and only their tags tell them apart.
  static std::pair<std::string, std::string> AtomAndEqualInt() {
    for (int i = 0;; ++i) {
      const std::string name = "k" + std::to_string(i);
      const uint64_t hash = edb::ExternalDictionary::HashOf(name, 0);
      if (hash < (1ull << 60)) return {name, std::to_string(hash)};
    }
  }

  static std::vector<std::string> Sorted(std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  }

  // Facts r(Id, A, B, C): the BANG key is Id alone.
  std::string Facts(bool with_retracted) const {
    std::string facts =
        "r(1, a, 10, 1.5).\n"
        "r(2, b, 20, 2.5).\n"
        "r(3, a, 0, 0.0).\n"
        "r(4, c, 0.0, 0).\n"
        "r(5, f(a), a, 7).\n"
        "r(6, [x, y], b, 8).\n"
        "r(7, " + atom_ + ", " + int_ + ", 1.0000000000000002).\n"
        "r(8, " + int_ + ", " + atom_ + ", 1.0).\n"
        "r(9, g(b, c), 20, -0.0).\n";
    if (with_retracted) facts += "r(10, d, 30, 3.5).\n";
    return facts;
  }

  std::vector<std::string> Queries() const {
    return {
        "r(X, a, Y, Z)",        "r(X, b, 20, Z)",
        "r(X, Y, 0, Z)",        "r(X, Y, 0.0, Z)",
        "r(X, Y, Z, 0)",        "r(X, Y, Z, 0.0)",
        "r(X, Y, Z, -0.0)",     "r(X, Y, a, Z)",
        "r(X, f(a), Y, Z)",     "r(X, f(b), Y, Z)",
        "r(X, g(b, C), 20, Z)", "r(X, [x|T], Y, Z)",
        "r(X, Y, Z, 1.0)",      "r(X, " + atom_ + ", Y, Z)",
        "r(X, " + int_ + ", Y, Z)", "r(X, Y, " + atom_ + ", Z)",
        "r(X, Y, " + int_ + ", Z)", "r(X, Y, Z, W)",
        "r(X, d, Y, Z)",        "z",
    };
  }

  const std::string atom_ = AtomAndEqualInt().first;
  const std::string int_ = AtomAndEqualInt().second;
};

TEST_F(FactFilterDifferentialTest, EdbFactsMatchConsultedFacts) {
  Engine memory;
  ASSERT_TRUE(memory.Consult(Facts(true) + "z.\n").ok());
  Engine edb;
  ASSERT_TRUE(edb.DeclareRelation("r", 4, {0}).ok());
  ASSERT_TRUE(edb.DeclareRelation("z", 0).ok());
  ASSERT_TRUE(edb.StoreFactsExternal(Facts(true) + "z.\n").ok());

  for (const std::string& query : Queries()) {
    EXPECT_EQ(Sorted(EngineSolutions(&edb, query, 100)),
              Sorted(EngineSolutions(&memory, query, 100)))
        << query;
  }
  // Not vacuous: the edge cases do match where unification says so.
  EXPECT_EQ(EngineSolutions(&memory, "r(X, Y, Z, 1.0)", 100).size(), 2u);
  EXPECT_EQ(EngineSolutions(&memory, "r(X, [x|T], Y, Z)", 100).size(), 1u);
  EXPECT_EQ(EngineSolutions(&memory, "r(X, Y, " + int_ + ", Z)", 100).size(),
            1u);
  // Some rows were rejected in the page, before decoding.
  EXPECT_GT(edb.Stats().clause_store.fact_rows_filtered, 0u);

  // edb_retract bound on a non-key argument removes exactly its match.
  Engine retracted;
  ASSERT_TRUE(retracted.Consult(Facts(false)).ok());
  EXPECT_EQ(EngineSolutions(&edb, "edb_retract(r(X, d, Y, Z))", 10).size(),
            1u);
  EXPECT_EQ(EngineSolutions(&edb, "edb_retract(r(X, d, Y, Z))", 10).size(),
            0u);
  EXPECT_EQ(Sorted(EngineSolutions(&edb, "r(X, Y, Z, W)", 100)),
            Sorted(EngineSolutions(&retracted, "r(X, Y, Z, W)", 100)));
  EXPECT_EQ(EngineSolutions(&edb, "edb_retract(z)", 10).size(), 1u);
  EXPECT_TRUE(EngineSolutions(&edb, "z", 10).empty());
}

// Fact rows decode straight onto the heap. Compound, nested and list
// arguments must come back as the same terms the source-mode store
// (clause text, parsed and compiled per call) yields for the same facts,
// through the resolver, edb_scan and edb_retract alike.
TEST(FactDecodeDifferentialTest, EdbFactsMatchSourceStoredFacts) {
  const std::string facts =
      "t(1, f(a, g(b, 2)), [x, y, z]).\n"
      "t(2, [f(a), [1, 2.5], []], h([a|b])).\n"
      "t(3, 'Quoted atom', [[], [[]]]).\n"
      "t(4, -7, p(-1.25, q(r(s(t)))) ).\n"
      "t(5, [a|tail], '[]').\n"
      "t(6, point(1, 2), [point(3, 4), point(5, 6)]).\n"
      "t(7, 'hello world', \"codes\").\n";
  EngineOptions source_options;
  source_options.rule_storage = RuleStorage::kSource;
  Engine source(source_options);
  ASSERT_TRUE(source.StoreRulesExternal(facts).ok());
  Engine edb;
  ASSERT_TRUE(edb.DeclareRelation("t", 3, {0}).ok());
  ASSERT_TRUE(edb.StoreFactsExternal(facts).ok());

  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  for (const std::string& query : std::vector<std::string>{
           "t(I, A, B)", "t(1, f(X, g(Y, Z)), [H|T])", "t(I, [F|R], B)",
           "t(I, A, [[]|R])", "t(I, A, p(F, q(r(X))))", "t(I, [a|T], A)",
           "t(I, A, [point(X, Y)|R])", "t(I, A, h([H|T]))",
           "t(I, 'Quoted atom', B)", "t(I, A, [x, y, z])",
           "t(I, A, [x, y])", "t(I, A, B), A = [_, [N, F], _]"}) {
    const std::vector<std::string> expected =
        sorted(EngineSolutions(&source, query, 100));
    EXPECT_EQ(sorted(EngineSolutions(&edb, query, 100)), expected) << query;
  }
  // Not vacuous: list arguments are lists, not '.'/2 structures.
  EXPECT_EQ(EngineSolutions(&edb, "t(I, [F|R], B)", 100).size(), 2u);

  // edb_scan ships the whole relation as one list of terms, in storage
  // order; sorted, it is the source store's list of facts.
  auto sorted_list = [](Engine* engine, const std::string& goal) {
    auto q = engine->Query(goal + ", msort(L, S)");
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return std::string();
    auto more = (*q)->Next();
    EXPECT_TRUE(more.ok() && *more) << goal;
    return (*q)->Binding("S");
  };
  const std::string scanned = sorted_list(&edb, "edb_scan(t/3, L)");
  EXPECT_EQ(scanned,
            sorted_list(&source, "findall(t(I, A, B), t(I, A, B), L)"));
  EXPECT_NE(scanned.find("h([a|b])"), std::string::npos) << scanned;

  // edb_retract unifies a decoded row with a compound pattern.
  EXPECT_EQ(
      EngineSolutions(&edb, "edb_retract(t(I, [f(X)|R], h([a|B])))", 10),
      EngineSolutions(&source, "t(I, [f(X)|R], h([a|B]))", 10));
  EXPECT_EQ(EngineSolutions(&edb, "t(2, A, B)", 10).size(), 0u);
}

}  // namespace
}  // namespace educe
