// Bottom-up Datalog (DESIGN.md §15), both layers:
//   - rel::datalog: validation, stratification, semi-naive vs naive
//     differentials on seeded recursive programs, magic-set rewriting,
//     and one compiled program run many times, in sequence and at once.
//   - educe::DatalogManager: WAM differentials (identical solution sets),
//     strategy selection, plan caching + push invalidation on edb_assert,
//     edb_retract and consult, the materialized Solutions mode and its
//     answer constant table, and the fallback contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/stopwatch.h"
#include "educe/datalog.h"
#include "educe/engine.h"
#include "rel/datalog.h"
#include "workloads/graph.h"

namespace educe {
namespace {

namespace rdl = rel::datalog;
using workloads::GraphWorkload;

// ---------------------------------------------------------------------------
// rel::datalog layer
// ---------------------------------------------------------------------------

rdl::Program ClosureProgram(uint32_t* edge_out, uint32_t* path_out) {
  rdl::Program program;
  const uint32_t edge = program.AddPred("edge", 2, /*edb=*/true);
  const uint32_t path = program.AddPred("path", 2, /*edb=*/false);
  using T = rdl::Term;
  // path(X, Y) :- edge(X, Y).
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(1)}}}});
  // path(X, Y) :- path(X, Z), edge(Z, Y).
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{path, false, {T::Var(0), T::Var(2)}},
        rdl::Atom{edge, false, {T::Var(2), T::Var(1)}}}});
  *edge_out = edge;
  *path_out = path;
  return program;
}

// The one way these tests build an EDB relation: `rows` of `arity`
// values each (empty rows for a nullary relation), frozen for sharing.
std::shared_ptr<const rdl::Relation> MakeRelation(
    uint32_t arity, const std::vector<std::vector<int64_t>>& rows) {
  auto relation = std::make_shared<rdl::Relation>(arity);
  for (const std::vector<int64_t>& row : rows) {
    EXPECT_EQ(row.size(), arity);
    relation->Insert(row.data());
  }
  return relation;
}

std::shared_ptr<const rdl::Relation> EdgeRelation(
    const std::vector<GraphWorkload::Edge>& edges) {
  std::vector<std::vector<int64_t>> rows;
  for (const auto& e : edges) rows.push_back({e.first, e.second});
  return MakeRelation(2, rows);
}

rdl::Evaluator::EdbLoader EdgeLoader(uint32_t edge_pred,
                                     const std::vector<GraphWorkload::Edge>&
                                         edges) {
  return [edge_pred, relation = EdgeRelation(edges)](uint32_t pred)
             -> base::Result<std::shared_ptr<const rdl::Relation>> {
    if (pred != edge_pred) {
      return base::Status::InvalidArgument("unexpected EDB pred");
    }
    return relation;
  };
}

// Compiles `program`, failing the test when it does not compile.
rdl::CompiledProgram Compiled(rdl::Program program) {
  base::Result<rdl::CompiledProgram> compiled =
      rdl::CompiledProgram::Compile(std::move(program));
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  return compiled.ok() ? std::move(*compiled) : rdl::CompiledProgram();
}

std::vector<std::vector<int64_t>> SortedTuples(const rdl::Evaluator& eval,
                                               uint32_t pred) {
  std::vector<std::vector<int64_t>> tuples = eval.Tuples(pred);
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(DatalogIrTest, ValidateRejectsUnboundHeadVariable) {
  rdl::Program program;
  const uint32_t e = program.AddPred("e", 2, true);
  const uint32_t p = program.AddPred("p", 2, false);
  using T = rdl::Term;
  // p(X, Y) :- e(X, X).  — Y never bound.
  program.rules.push_back({rdl::Atom{p, false, {T::Var(0), T::Var(1)}},
                           {rdl::Atom{e, false, {T::Var(0), T::Var(0)}}}});
  EXPECT_FALSE(rdl::Validate(program).ok());
}

TEST(DatalogIrTest, ValidateRejectsEdbHead) {
  rdl::Program program;
  const uint32_t e = program.AddPred("e", 1, true);
  using T = rdl::Term;
  program.rules.push_back({rdl::Atom{e, false, {T::Const(1)}}, {}});
  EXPECT_FALSE(rdl::Validate(program).ok());
}

TEST(DatalogIrTest, StratifyRejectsNegationInCycle) {
  rdl::Program program;
  const uint32_t e = program.AddPred("e", 1, true);
  const uint32_t p = program.AddPred("p", 1, false);
  const uint32_t q = program.AddPred("q", 1, false);
  using T = rdl::Term;
  // p(X) :- e(X), \+ q(X).   q(X) :- e(X), p(X).  — p and q share an SCC
  // through a negated edge: not stratifiable.
  program.rules.push_back({rdl::Atom{p, false, {T::Var(0)}},
                           {rdl::Atom{e, false, {T::Var(0)}},
                            rdl::Atom{q, true, {T::Var(0)}}}});
  program.rules.push_back({rdl::Atom{q, false, {T::Var(0)}},
                           {rdl::Atom{e, false, {T::Var(0)}},
                            rdl::Atom{p, false, {T::Var(0)}}}});
  ASSERT_TRUE(rdl::Validate(program).ok());
  EXPECT_FALSE(rdl::Stratify(program).ok());
}

TEST(DatalogIrTest, ChainClosureCountsAndDeltas) {
  uint32_t edge = 0, path = 0;
  const rdl::Program program = ClosureProgram(&edge, &path);
  const std::vector<GraphWorkload::Edge> edges = GraphWorkload::Chain(10);
  const rdl::CompiledProgram compiled = Compiled(program);
  rdl::Evaluator eval(&compiled, {});
  ASSERT_TRUE(eval.Run(EdgeLoader(edge, edges)).ok());
  // 10-node chain: path count = 10*9/2 = 45.
  EXPECT_EQ(eval.TupleCount(path), 45u);
  EXPECT_EQ(eval.stats().edb_rows, 9u);
  EXPECT_EQ(eval.stats().tuples_derived, 45u);
  // Semi-naive on a chain: each round extends the frontier by one hop, so
  // the delta sizes shrink monotonically to zero.
  const auto& deltas = eval.stats().delta_sizes;
  ASSERT_GE(deltas.size(), 2u);
  EXPECT_EQ(deltas.back(), 0u);  // final round proves the fixpoint
  for (size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_LE(deltas[i], deltas[i - 1]);
  }
}

// Closure plus a mutually recursive pair (even/odd-hop paths) over a
// seeded random DAG: the programs the semi-naive, naive and reuse tests
// share. `*preds` receives path, p and q.
rdl::Program SeededProgram(uint64_t seed, uint32_t* edge_out,
                           std::vector<uint32_t>* preds,
                           std::vector<GraphWorkload::Edge>* edges) {
  using T = rdl::Term;
  rdl::Program program;
  const uint32_t edge = program.AddPred("edge", 2, true);
  const uint32_t path = program.AddPred("path", 2, false);
  const uint32_t p = program.AddPred("p", 2, false);
  const uint32_t q = program.AddPred("q", 2, false);
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(1)}}}});
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{path, false, {T::Var(0), T::Var(2)}},
        rdl::Atom{edge, false, {T::Var(2), T::Var(1)}}}});
  // p(X,Y) :- edge(X,Y).  p(X,Y) :- edge(X,Z), q(Z,Y).
  // q(X,Y) :- edge(X,Z), p(Z,Y).
  program.rules.push_back(
      {rdl::Atom{p, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(1)}}}});
  program.rules.push_back(
      {rdl::Atom{p, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(2)}},
        rdl::Atom{q, false, {T::Var(2), T::Var(1)}}}});
  program.rules.push_back(
      {rdl::Atom{q, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(2)}},
        rdl::Atom{p, false, {T::Var(2), T::Var(1)}}}});
  *edge_out = edge;
  *preds = {path, p, q};
  *edges = GraphWorkload::RandomDag(12 + seed % 5, 28 + 2 * seed, seed);
  return program;
}

TEST(DatalogIrTest, SemiNaiveMatchesNaiveOnSeededPrograms) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    uint32_t edge = 0;
    std::vector<uint32_t> preds;
    std::vector<GraphWorkload::Edge> edges;
    const rdl::Program program = SeededProgram(seed, &edge, &preds, &edges);

    rdl::EvalOptions semi;
    semi.semi_naive = true;
    rdl::EvalOptions naive;
    naive.semi_naive = false;
    const rdl::CompiledProgram compiled = Compiled(program);
    rdl::Evaluator semi_eval(&compiled, semi);
    rdl::Evaluator naive_eval(&compiled, naive);
    ASSERT_TRUE(semi_eval.Run(EdgeLoader(edge, edges)).ok()) << "seed " << seed;
    ASSERT_TRUE(naive_eval.Run(EdgeLoader(edge, edges)).ok())
        << "seed " << seed;
    for (uint32_t pred : preds) {
      EXPECT_EQ(SortedTuples(semi_eval, pred), SortedTuples(naive_eval, pred))
          << "seed " << seed << " pred " << pred;
    }
    // Naive re-derives everything each round; its duplicate count must
    // strictly dominate once the fixpoint needs more than one round.
    if (semi_eval.stats().iterations > 2) {
      EXPECT_GT(naive_eval.stats().dedup_hits, semi_eval.stats().dedup_hits)
          << "seed " << seed;
    }
  }
}

// One evaluation's observable result: every IDB predicate's tuples in
// derivation order, and every counter but the wall-clock phase timers.
struct RunRecord {
  std::vector<std::vector<std::vector<int64_t>>> tuples;
  std::vector<uint64_t> counters;
  std::vector<uint64_t> delta_sizes;
  bool ok = false;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

RunRecord RecordRun(const rdl::CompiledProgram& compiled,
                    const rdl::Evaluator::EdbLoader& loader) {
  RunRecord record;
  rdl::Evaluator eval(&compiled, {});
  record.ok = eval.Run(loader).ok();
  for (uint32_t pred = 0; pred < compiled.program().preds.size(); ++pred) {
    record.tuples.push_back(eval.Tuples(pred));
  }
  const rdl::EvalStats& s = eval.stats();
  record.counters = {s.strata,      s.iterations,   s.tuples_derived,
                     s.join_rows,   s.join_probes,  s.index_builds,
                     s.dedup_hits,  s.edb_rows};
  record.delta_sizes = s.delta_sizes;
  return record;
}

TEST(DatalogIrTest, CompiledProgramIsReusedSafely) {
  // A compiled program is only read by its evaluations: run one 3 times
  // in sequence and 4 times at once, and every run must give what the
  // first gave. Each run gets its own EDB relation, so each builds the
  // same indexes and the counters match exactly. TSan sweeps this test.
  std::vector<std::pair<rdl::Program, rdl::Evaluator::EdbLoader>> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    uint32_t edge = 0;
    std::vector<uint32_t> preds;
    std::vector<GraphWorkload::Edge> edges;
    rdl::Program program = SeededProgram(seed, &edge, &preds, &edges);
    cases.emplace_back(std::move(program), [edge, edges](uint32_t pred) {
      return EdgeLoader(edge, edges)(pred);
    });
  }
  {
    // The magic-rewritten closure, bound on its first argument.
    uint32_t edge = 0, path = 0;
    const rdl::Program program = ClosureProgram(&edge, &path);
    auto rewritten = rdl::MagicRewrite(program, path, {true, false});
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    const uint32_t seed_pred = rewritten->seed_pred;
    const std::vector<GraphWorkload::Edge> edges =
        GraphWorkload::RandomDag(40, 90, 5);
    cases.emplace_back(
        rewritten->program,
        [seed_pred, edges](uint32_t pred)
            -> base::Result<std::shared_ptr<const rdl::Relation>> {
          if (pred == seed_pred) return MakeRelation(1, {{0}});
          return EdgeRelation(edges);
        });
  }

  for (size_t c = 0; c < cases.size(); ++c) {
    const rdl::CompiledProgram compiled = Compiled(cases[c].first);
    const rdl::Evaluator::EdbLoader& loader = cases[c].second;
    const RunRecord first = RecordRun(compiled, loader);
    ASSERT_TRUE(first.ok) << "case " << c;
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(RecordRun(compiled, loader) == first)
          << "case " << c << " sequential run " << i;
    }
    std::vector<RunRecord> concurrent(4);
    std::vector<std::thread> threads;
    for (RunRecord& slot : concurrent) {
      threads.emplace_back(
          [&compiled, &loader, &slot] { slot = RecordRun(compiled, loader); });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < concurrent.size(); ++i) {
      EXPECT_TRUE(concurrent[i] == first)
          << "case " << c << " concurrent run " << i;
    }
  }
}

TEST(DatalogIrTest, StratifiedNegation) {
  rdl::Program program;
  const uint32_t node = program.AddPred("node", 1, true);
  const uint32_t edge = program.AddPred("edge", 2, true);
  const uint32_t path = program.AddPred("path", 2, false);
  const uint32_t unreached = program.AddPred("unreached", 1, false);
  using T = rdl::Term;
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{edge, false, {T::Var(0), T::Var(1)}}}});
  program.rules.push_back(
      {rdl::Atom{path, false, {T::Var(0), T::Var(1)}},
       {rdl::Atom{path, false, {T::Var(0), T::Var(2)}},
        rdl::Atom{edge, false, {T::Var(2), T::Var(1)}}}});
  // unreached(X) :- node(X), \+ path(0, X).
  program.rules.push_back(
      {rdl::Atom{unreached, false, {T::Var(0)}},
       {rdl::Atom{node, false, {T::Var(0)}},
        rdl::Atom{path, true, {T::Const(0), T::Var(0)}}}});

  const std::vector<GraphWorkload::Edge> edges = GraphWorkload::Chain(5);
  auto loader = [&](uint32_t pred)
      -> base::Result<std::shared_ptr<const rdl::Relation>> {
    if (pred == node) return MakeRelation(1, {{0}, {1}, {2}, {3}, {4}});
    return EdgeLoader(edge, edges)(pred);
  };
  const rdl::CompiledProgram compiled = Compiled(program);
  rdl::Evaluator eval(&compiled, {});
  ASSERT_TRUE(eval.Run(loader).ok());
  // path(0, ·) reaches 1..4, so only node 0 is unreached from 0.
  EXPECT_EQ(SortedTuples(eval, unreached),
            (std::vector<std::vector<int64_t>>{{0}}));
}

TEST(DatalogIrTest, JoinShapesMatchHandComputedSets) {
  // One program with every body shape the join loop handles differently:
  // constants, repeated variables, disconnected bodies (cross products),
  // nullary heads and bodies, and negated EDB literals — plus a recursive
  // relation so semi-naive and naive evaluation actually diverge in work.
  rdl::Program program;
  const uint32_t edge = program.AddPred("edge", 2, true);
  const uint32_t node = program.AddPred("node", 1, true);
  const uint32_t on = program.AddPred("switch", 0, true);    // one tuple
  const uint32_t off = program.AddPred("breaker", 0, true);  // empty
  const uint32_t from1 = program.AddPred("from1", 1, false);
  const uint32_t loop = program.AddPred("loop", 1, false);
  const uint32_t pair = program.AddPred("pair", 2, false);
  const uint32_t has_loop = program.AddPred("has_loop", 0, false);
  const uint32_t flag = program.AddPred("flag", 0, false);
  const uint32_t lit = program.AddPred("lit", 1, false);
  const uint32_t powered = program.AddPred("powered", 1, false);
  const uint32_t tripped = program.AddPred("tripped", 1, false);
  const uint32_t noself = program.AddPred("noself", 1, false);
  const uint32_t reach = program.AddPred("reach", 2, false);
  const uint32_t reach1 = program.AddPred("reach1", 1, false);
  using T = rdl::Term;
  using A = rdl::Atom;
  const T X = T::Var(0), Y = T::Var(1), Z = T::Var(2);
  // from1(X) :- edge(1, X).
  program.rules.push_back({A{from1, false, {X}}, {A{edge, false, {T::Const(1), X}}}});
  // loop(X) :- edge(X, X).
  program.rules.push_back({A{loop, false, {X}}, {A{edge, false, {X, X}}}});
  // pair(X, Y) :- node(X), node(Y).
  program.rules.push_back(
      {A{pair, false, {X, Y}}, {A{node, false, {X}}, A{node, false, {Y}}}});
  // has_loop :- edge(X, X).
  program.rules.push_back({A{has_loop, false, {}}, {A{edge, false, {X, X}}}});
  // flag.
  program.rules.push_back({A{flag, false, {}}, {}});
  // lit(X) :- flag, node(X).
  program.rules.push_back(
      {A{lit, false, {X}}, {A{flag, false, {}}, A{node, false, {X}}}});
  // powered(X) :- switch, loop(X).
  program.rules.push_back(
      {A{powered, false, {X}}, {A{on, false, {}}, A{loop, false, {X}}}});
  // tripped(X) :- breaker, node(X).
  program.rules.push_back(
      {A{tripped, false, {X}}, {A{off, false, {}}, A{node, false, {X}}}});
  // noself(X) :- node(X), \+ edge(X, X).
  program.rules.push_back({A{noself, false, {X}},
                           {A{node, false, {X}}, A{edge, true, {X, X}}}});
  // reach(X, Y) :- edge(X, Y).  reach(X, Y) :- reach(X, Z), edge(Z, Y).
  program.rules.push_back({A{reach, false, {X, Y}}, {A{edge, false, {X, Y}}}});
  program.rules.push_back(
      {A{reach, false, {X, Y}},
       {A{reach, false, {X, Z}}, A{edge, false, {Z, Y}}}});
  // reach1(Y) :- reach(1, Y).
  program.rules.push_back(
      {A{reach1, false, {Y}}, {A{reach, false, {T::Const(1), Y}}}});

  const std::vector<GraphWorkload::Edge> edges = {
      {1, 2}, {2, 3}, {3, 3}, {1, 4}, {4, 4}, {3, 5}};
  auto loader = [&](uint32_t pred)
      -> base::Result<std::shared_ptr<const rdl::Relation>> {
    if (pred == node) return MakeRelation(1, {{1}, {2}, {3}, {4}, {5}});
    if (pred == on) return MakeRelation(0, {{}});
    if (pred == off) return MakeRelation(0, {});
    return EdgeLoader(edge, edges)(pred);
  };

  using Rows = std::vector<std::vector<int64_t>>;
  std::vector<std::pair<uint32_t, Rows>> expected = {
      {from1, {{2}, {4}}},
      {loop, {{3}, {4}}},
      {has_loop, {{}}},
      {flag, {{}}},
      {lit, {{1}, {2}, {3}, {4}, {5}}},
      {powered, {{3}, {4}}},
      {tripped, {}},
      {noself, {{1}, {2}, {5}}},
      {reach,
       {{1, 2}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 5}, {3, 3}, {3, 5},
        {4, 4}}},
      {reach1, {{2}, {3}, {4}, {5}}},
  };
  Rows pairs;
  for (int64_t x = 1; x <= 5; ++x) {
    for (int64_t y = 1; y <= 5; ++y) pairs.push_back({x, y});
  }
  expected.emplace_back(pair, pairs);

  rdl::EvalOptions naive_options;
  naive_options.semi_naive = false;
  const rdl::CompiledProgram compiled = Compiled(program);
  rdl::Evaluator semi(&compiled, {});
  rdl::Evaluator naive(&compiled, naive_options);
  ASSERT_TRUE(semi.Run(loader).ok());
  ASSERT_TRUE(naive.Run(loader).ok());
  for (const auto& [pred, rows] : expected) {
    EXPECT_EQ(SortedTuples(semi, pred), rows) << program.preds[pred].name;
    EXPECT_EQ(SortedTuples(naive, pred), rows) << program.preds[pred].name;
  }
  // Literals after the first probe column hash indexes.
  EXPECT_GT(semi.stats().join_probes, 0u);
  EXPECT_GT(naive.stats().dedup_hits, semi.stats().dedup_hits);
}

TEST(DatalogIrTest, MagicRewriteDerivesStrictlyFewerTuples) {
  uint32_t edge = 0, path = 0;
  const rdl::Program program = ClosureProgram(&edge, &path);
  // Two disjoint chains: the closure from node 0 never enters the second
  // component, so a magic-bound evaluation must skip it entirely.
  std::vector<GraphWorkload::Edge> edges = GraphWorkload::Chain(8);
  for (const auto& e : GraphWorkload::Chain(8)) {
    edges.emplace_back(e.first + 100, e.second + 100);
  }

  const rdl::CompiledProgram compiled = Compiled(program);
  rdl::Evaluator full(&compiled, {});
  ASSERT_TRUE(full.Run(EdgeLoader(edge, edges)).ok());

  auto rewritten = rdl::MagicRewrite(program, path, {true, false});
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  ASSERT_NE(rewritten->seed_pred, rdl::kNoPred);
  auto loader = [&](uint32_t pred)
      -> base::Result<std::shared_ptr<const rdl::Relation>> {
    if (pred == rewritten->seed_pred) return MakeRelation(1, {{0}});
    return EdgeRelation(edges);  // every other EDB is edge
  };
  const rdl::CompiledProgram compiled_magic = Compiled(rewritten->program);
  rdl::Evaluator magic(&compiled_magic, {});
  ASSERT_TRUE(magic.Run(loader).ok());

  // The bound query answers: exactly the 7 tuples path(0, 1..7).
  std::vector<std::vector<int64_t>> expected;
  for (int64_t j = 1; j <= 7; ++j) expected.push_back({0, j});
  EXPECT_EQ(SortedTuples(magic, rewritten->query_pred), expected);
  // And it derives strictly fewer tuples than the full closure (which
  // also computes every suffix path and the second component).
  EXPECT_LT(magic.stats().tuples_derived, full.stats().tuples_derived);
  EXPECT_EQ(full.TupleCount(path), 2u * 28u);
}

TEST(DatalogIrTest, MagicRewriteAllFreeIsIdentity) {
  uint32_t edge = 0, path = 0;
  const rdl::Program program = ClosureProgram(&edge, &path);
  auto rewritten = rdl::MagicRewrite(program, path, {false, false});
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->seed_pred, rdl::kNoPred);
  EXPECT_EQ(rewritten->program.rules.size(), program.rules.size());
}

// ---------------------------------------------------------------------------
// Engine bridge
// ---------------------------------------------------------------------------

// Every solution of `goal` from an Engine or a Session, in the order the
// engine gives them, each rendered "X=v,Y=w".
template <typename Querier>
std::vector<std::string> SolutionRows(Querier* querier, std::string_view goal,
                                      int max = 200000) {
  std::vector<std::string> out;
  auto solutions = querier->Query(goal);
  EXPECT_TRUE(solutions.ok()) << goal << ": " << solutions.status();
  if (!solutions.ok()) return out;
  for (int i = 0; i < max; ++i) {
    auto more = (*solutions)->Next();
    EXPECT_TRUE(more.ok()) << goal << ": " << more.status();
    if (!more.ok() || !*more) break;
    std::string row;
    for (const auto& [name, value] : (*solutions)->All()) {
      if (!row.empty()) row += ",";
      row += name + "=" + value;
    }
    out.push_back(std::move(row));
  }
  return out;
}

// All solutions of `goal`, deduplicated (the bottom-up path has set
// semantics; the WAM side may repeat solutions).
std::set<std::string> SolutionSet(Engine* engine, std::string_view goal,
                                  int max = 200000) {
  const std::vector<std::string> rows = SolutionRows(engine, goal, max);
  return std::set<std::string>(rows.begin(), rows.end());
}

struct EnginePair {
  Engine wam;       // datalog off: plain top-down oracle
  Engine bottom_up;  // datalog on

  EnginePair()
      : wam(EngineOptions{}), bottom_up([] {
          EngineOptions options;
          options.datalog = true;
          return options;
        }()) {}

  // Same facts and rules on both sides.
  void LoadEdges(const std::vector<GraphWorkload::Edge>& edges) {
    ASSERT_TRUE(GraphWorkload::StoreEdges(&wam, "edge", edges).ok());
    ASSERT_TRUE(GraphWorkload::StoreEdges(&bottom_up, "edge", edges).ok());
  }
  void ConsultBoth(const std::string& rules) {
    ASSERT_TRUE(wam.Consult(rules).ok());
    ASSERT_TRUE(bottom_up.Consult(rules).ok());
  }
  void ExpectSameSolutions(std::string_view goal) {
    EXPECT_EQ(SolutionSet(&bottom_up, goal), SolutionSet(&wam, goal)) << goal;
  }
};

// Right-recursive closure: terminates top-down on DAGs, so the WAM side
// can serve as the oracle. (The bottom-up side is insensitive to rule
// form.)
const char kClosureRules[] =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- edge(X, Z), path(Z, Y).\n";

TEST(DatalogEngineTest, ClosureMatchesWamOnAllCallPatterns) {
  EnginePair pair;
  pair.LoadEdges(GraphWorkload::RandomDag(14, 30, 42));
  pair.ConsultBoth(kClosureRules);
  pair.ExpectSameSolutions("path(X, Y)");
  pair.ExpectSameSolutions("path(0, Y)");
  pair.ExpectSameSolutions("path(X, 13)");
  pair.ExpectSameSolutions("path(X, X)");   // repeated-variable call
  pair.ExpectSameSolutions("path(0, 13)");  // ground call (set semantics)
  pair.ExpectSameSolutions("path(97, X)");  // empty answer

  const DatalogStats stats = pair.bottom_up.Stats().datalog;
  EXPECT_GE(stats.queries_bottom_up, 6u);
  EXPECT_GT(stats.tuples_derived, 0u);
  // Each evaluation feeds the EDB through the bulk fact scan.
  EXPECT_GT(pair.bottom_up.Stats().clause_store.bulk_fact_scans, 0u);
  EXPECT_GT(pair.bottom_up.Stats().clause_store.bulk_fact_rows, 0u);
}

TEST(DatalogEngineTest, SeededDifferentialsMatchWam) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EnginePair pair;
    const uint64_t nodes = 10 + seed % 6;
    pair.LoadEdges(GraphWorkload::RandomDag(nodes, 2 * nodes + seed, seed));
    pair.ConsultBoth(kClosureRules);
    pair.ExpectSameSolutions("path(X, Y)");
    pair.ExpectSameSolutions("path(1, Y)");
    pair.ExpectSameSolutions("path(X, 5)");
    EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 3u)
        << "seed " << seed;
  }
}

TEST(DatalogEngineTest, ProjectionsAnswerEachBindingOnce) {
  // An `_` drops a column of the query relation, so distinct tuples can
  // project to one binding; a goal with no named variable is a bare yes.
  EnginePair pair;
  pair.LoadEdges(GraphWorkload::RandomDag(14, 30, 42));
  pair.ConsultBoth(kClosureRules);
  for (const char* goal : {"path(X, _)", "path(_, Y)", "path(0, _)",
                           "path(_, _)", "path(0, 13)", "path(13, 0)"}) {
    pair.ExpectSameSolutions(goal);
    const std::vector<std::string> rows = SolutionRows(&pair.bottom_up, goal);
    EXPECT_EQ(std::set<std::string>(rows.begin(), rows.end()).size(),
              rows.size())
        << goal << " repeated a binding";
  }
  EXPECT_EQ(SolutionRows(&pair.bottom_up, "path(_, _)").size(), 1u);
  EXPECT_LE(SolutionRows(&pair.bottom_up, "path(0, 13)").size(), 1u);
  EXPECT_TRUE(SolutionRows(&pair.bottom_up, "path(13, 0)").empty());
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 6u);
}

TEST(DatalogEngineTest, CyclicGraphAnswersMatchBoundedWam) {
  // On a cycle the closure rules never terminate top-down, so the WAM
  // side runs a depth-bounded copy: with 6 nodes every reachable pair is
  // reachable in at most 6 hops, which gives the same set.
  EnginePair pair;
  pair.LoadEdges({{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {5, 5}});
  ASSERT_TRUE(pair.bottom_up.Consult(kClosureRules).ok());
  ASSERT_TRUE(pair.wam
                  .Consult("hops(X, Y, s(_)) :- edge(X, Y).\n"
                           "hops(X, Y, s(N)) :- edge(X, Z), hops(Z, Y, N).\n"
                           "path(X, Y) :- hops(X, Y, s(s(s(s(s(s(0))))))).\n")
                  .ok());
  for (const char* goal : {"path(X, X)", "path(X, Y)", "path(0, Y)",
                           "path(X, 3)", "path(4, 4)", "path(3, 0)"}) {
    pair.ExpectSameSolutions(goal);
  }
  EXPECT_EQ(SolutionSet(&pair.bottom_up, "path(X, X)"),
            (std::set<std::string>{"X=0", "X=1", "X=2", "X=3", "X=4", "X=5"}));
  // A ground goal the WAM proves many times over answers true once.
  EXPECT_EQ(SolutionRows(&pair.bottom_up, "path(4, 4)").size(), 1u);
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 6u);
}

TEST(DatalogEngineTest, AnswerOrderRepeatsAcrossRunsAndSessions) {
  // Answers come in derivation order, not sorted: the same query gives
  // the same sequence every time, from an Engine or a Session.
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(GraphWorkload::StoreEdges(&engine, "edge",
                                        GraphWorkload::RandomDag(20, 45, 7))
                  .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  const std::string goals[] = {"path(X, Y)", "path(0, Y)", "path(X, 19)",
                               "path(X, _)"};
  std::vector<std::vector<std::string>> first;
  for (const std::string& goal : goals) {
    first.push_back(SolutionRows(&engine, goal));
    EXPECT_FALSE(first.back().empty()) << goal;
    EXPECT_EQ(SolutionRows(&engine, goal), first.back()) << goal;
  }
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  for (size_t i = 0; i < std::size(goals); ++i) {
    EXPECT_EQ(SolutionRows(session->get(), goals[i]), first[i]) << goals[i];
  }
}

TEST(DatalogEngineTest, AutoDeclinesNonRecursiveUntilForced) {
  EnginePair pair;
  pair.LoadEdges(GraphWorkload::Chain(6));
  pair.ConsultBoth("hop2(X, Y) :- edge(X, Z), edge(Z, Y).\n");
  // kAuto: eligible but not recursive — stays on the WAM.
  pair.ExpectSameSolutions("hop2(X, Y)");
  EXPECT_EQ(pair.bottom_up.Stats().datalog.queries_bottom_up, 0u);
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_fallback, 1u);
  // Forcing bottom-up flips it, with the same answers.
  pair.bottom_up.datalog_manager()->SetStrategy("hop2", 2,
                                                DatalogStrategy::kBottomUp);
  pair.ExpectSameSolutions("hop2(X, Y)");
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 1u);
  // And kWam forces it back.
  pair.bottom_up.datalog_manager()->SetStrategy("hop2", 2,
                                                DatalogStrategy::kWam);
  const uint64_t before = pair.bottom_up.Stats().datalog.queries_bottom_up;
  pair.ExpectSameSolutions("hop2(X, Y)");
  EXPECT_EQ(pair.bottom_up.Stats().datalog.queries_bottom_up, before);
}

TEST(DatalogEngineTest, OutOfRangeProceduresFallBack) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(engine
                  .Consult("p(1). p(2). p(3).\n"
                           "big(X) :- p(X), X > 1.\n"            // comparison
                           "double(X, Y) :- p(X), Y is X * 2.\n"  // arithmetic
                           "first(X) :- p(X), !.\n")              // cut
                  .ok());
  engine.datalog_manager()->SetStrategy("big", 1, DatalogStrategy::kBottomUp);
  engine.datalog_manager()->SetStrategy("double", 2,
                                        DatalogStrategy::kBottomUp);
  engine.datalog_manager()->SetStrategy("first", 1,
                                        DatalogStrategy::kBottomUp);
  // All three are out of Datalog range: answers still come from the WAM.
  EXPECT_EQ(SolutionSet(&engine, "big(X)"),
            (std::set<std::string>{"X=2", "X=3"}));
  EXPECT_EQ(SolutionSet(&engine, "double(2, Y)"),
            (std::set<std::string>{"Y=4"}));
  EXPECT_EQ(SolutionSet(&engine, "first(X)"), (std::set<std::string>{"X=1"}));
  // Float goal arguments are out of range too (no float encoding).
  EXPECT_EQ(SolutionSet(&engine, "p(1.5)"), (std::set<std::string>{}));
  const DatalogStats stats = engine.Stats().datalog;
  EXPECT_EQ(stats.queries_bottom_up, 0u);
  EXPECT_GE(stats.queries_fallback, 4u);
}

TEST(DatalogEngineTest, AssertInvalidatesCompiledPlans) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(4))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());

  EXPECT_EQ(SolutionSet(&engine, "path(0, Y)"),
            (std::set<std::string>{"Y=1", "Y=2", "Y=3"}));
  const DatalogStats before = engine.Stats().datalog;
  EXPECT_GE(before.plans_compiled, 1u);

  // A cached plan must not survive an EDB mutation: extend the chain via
  // edb_assert (served by the WAM builtin, routed around the bottom-up
  // path) and the next query must see the new edge.
  auto assert_ok = engine.Succeeds("edb_assert(edge(3, 4))");
  ASSERT_TRUE(assert_ok.ok()) << assert_ok.status();
  ASSERT_TRUE(*assert_ok);
  EXPECT_EQ(SolutionSet(&engine, "path(0, Y)"),
            (std::set<std::string>{"Y=1", "Y=2", "Y=3", "Y=4"}));
  const DatalogStats after = engine.Stats().datalog;
  EXPECT_GE(after.plans_invalidated, 1u);
  EXPECT_GT(after.plans_compiled, before.plans_compiled);
}

TEST(DatalogEngineTest, RetractAndConsultInvalidateCompiledPlans) {
  // Beyond edb_assert: an edb_retract of an EDB row and a consulted
  // clause for the IDB predicate itself must each drop the cached magic
  // (bound) and full plans. After each, both call patterns answer as the
  // same engine does with the WAM strategy.
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(6))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  DatalogManager* manager = engine.datalog_manager();
  auto answers = [&](const std::string& goal) {
    const uint64_t bottom_up = engine.Stats().datalog.queries_bottom_up;
    const std::set<std::string> got = SolutionSet(&engine, goal);
    EXPECT_EQ(engine.Stats().datalog.queries_bottom_up, bottom_up + 1)
        << goal << " was not answered bottom-up";
    manager->SetStrategy("path", 2, DatalogStrategy::kWam);
    EXPECT_EQ(got, SolutionSet(&engine, goal)) << goal;
    manager->SetStrategy("path", 2, DatalogStrategy::kAuto);
    return got;
  };
  EXPECT_EQ(answers("path(0, Y)").size(), 5u);
  EXPECT_EQ(answers("path(X, Y)").size(), 15u);
  EXPECT_EQ(engine.Stats().datalog.plans_compiled, 2u);

  uint64_t invalidated = engine.Stats().datalog.plans_invalidated;
  auto retracted = engine.Succeeds("edb_retract(edge(2, 3))");
  ASSERT_TRUE(retracted.ok()) << retracted.status();
  ASSERT_TRUE(*retracted);
  EXPECT_GT(engine.Stats().datalog.plans_invalidated, invalidated);
  EXPECT_EQ(answers("path(0, Y)"), (std::set<std::string>{"Y=1", "Y=2"}));
  EXPECT_EQ(answers("path(X, Y)").size(), 6u);

  invalidated = engine.Stats().datalog.plans_invalidated;
  ASSERT_TRUE(engine.Consult("path(2, 5).\n").ok());
  EXPECT_GT(engine.Stats().datalog.plans_invalidated, invalidated);
  EXPECT_EQ(answers("path(0, Y)"),
            (std::set<std::string>{"Y=1", "Y=2", "Y=5"}));
  EXPECT_EQ(answers("path(X, Y)").size(), 9u);
}

TEST(DatalogEngineTest, PlanCacheHitsOnRepeatedCallPattern) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(6))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(SolutionSet(&engine, "path(0, Y)").empty());
  }
  const DatalogStats stats = engine.Stats().datalog;
  EXPECT_EQ(stats.plans_compiled, 1u);
  EXPECT_GE(stats.plan_cache_hits, 2u);
}

// A bottom-up query does its work inside Query() (TryQuery evaluates the
// whole answer up front), so its latency sample must cover Query() too,
// not only the Next() walk over the rows.
TEST(DatalogEngineTest, LatencyCoversTheBottomUpEvaluation) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(200))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  engine.ResetStats();

  const base::Stopwatch watch;
  auto count = engine.CountSolutions("path(X, Y)");
  const uint64_t wall_ns = watch.ElapsedNanos();
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 200u * 199u / 2);
  EXPECT_EQ(engine.Stats().datalog.queries_bottom_up, 1u);
  const obs::Histogram latency = engine.QueryLatencyHistogram();
  ASSERT_EQ(latency.count(), 1u);
  // Only the call overhead around Query() and Next() lies outside the
  // sample; the evaluation alone is most of the wall time.
  EXPECT_GE(2 * latency.max(), wall_ns);
}

TEST(DatalogEngineTest, MagicBoundQueryDerivesFewerTuples) {
  // Two disjoint chains; a bound query from the first component must not
  // derive tuples in the second.
  std::vector<GraphWorkload::Edge> edges = GraphWorkload::Chain(12);
  for (const auto& e : GraphWorkload::Chain(12)) {
    edges.emplace_back(e.first + 1000, e.second + 1000);
  }

  EngineOptions options;
  options.datalog = true;
  Engine unbound_engine(options);
  Engine bound_engine(options);
  for (Engine* engine : {&unbound_engine, &bound_engine}) {
    ASSERT_TRUE(GraphWorkload::StoreEdges(engine, "edge", edges).ok());
    ASSERT_TRUE(engine->Consult(kClosureRules).ok());
  }
  EXPECT_EQ(SolutionSet(&unbound_engine, "path(X, Y)").size(), 2u * 66u);
  EXPECT_EQ(SolutionSet(&bound_engine, "path(0, Y)").size(), 11u);

  const DatalogStats unbound = unbound_engine.Stats().datalog;
  const DatalogStats bound = bound_engine.Stats().datalog;
  EXPECT_EQ(bound.magic_rewrites, 1u);
  EXPECT_EQ(unbound.magic_rewrites, 0u);
  EXPECT_LT(bound.tuples_derived, unbound.tuples_derived);
}

TEST(DatalogEngineTest, MaterializedSolutionsApi) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(3))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());

  auto solutions = engine.Query("path(0, Y)");
  ASSERT_TRUE(solutions.ok()) << solutions.status();
  EXPECT_GE(engine.Stats().datalog.queries_bottom_up, 1u);
  // Before the first Next there is no current row.
  EXPECT_EQ((*solutions)->Binding("Y"), "");
  EXPECT_TRUE((*solutions)->All().empty());

  std::vector<std::string> ys;
  while (true) {
    auto more = (*solutions)->Next();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ((*solutions)->BindingAst("missing"), nullptr);
    EXPECT_EQ((*solutions)->Binding("missing"), "");
    ys.push_back((*solutions)->Binding("Y"));
  }
  EXPECT_EQ(ys, (std::vector<std::string>{"1", "2"}));  // derivation order
  // Exhausted: further Next stays false, and the engine accepts the next
  // query (the active-query flag was released).
  auto again = (*solutions)->Next();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  auto succeeds = engine.Succeeds("path(0, 2)");
  ASSERT_TRUE(succeeds.ok());
  EXPECT_TRUE(*succeeds);
}

TEST(DatalogEngineTest, AtomConstantsRoundTrip) {
  // Symbolic graphs exercise the atom <-> int64 encoding.
  EnginePair pair;
  pair.ConsultBoth(kClosureRules);
  for (Engine* engine : {&pair.wam, &pair.bottom_up}) {
    ASSERT_TRUE(engine
                    ->StoreFactsExternal(
                        "edge(a, b). edge(b, c). edge(c, d). edge(b, e).")
                    .ok());
  }
  pair.ExpectSameSolutions("path(X, Y)");
  pair.ExpectSameSolutions("path(a, Y)");
  pair.ExpectSameSolutions("path(X, e)");
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 3u);
}

TEST(DatalogEngineTest, AnswerConstantsDecodeOncePerAnswer) {
  // An answer's cells index its table of distinct constants: rows that
  // repeat a constant share one AST, decoded on the first read, and an
  // answer whose bindings are never read decodes nothing.
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      engine.StoreFactsExternal("e(a, 1). e(a, 2). e(b, 1). e(c, 1).").ok());
  ASSERT_TRUE(engine.Consult("r(X, Y) :- e(X, Y).\n").ok());
  engine.datalog_manager()->SetStrategy("r", 2, DatalogStrategy::kBottomUp);

  auto solutions = engine.Query("r(X, Y)");
  ASSERT_TRUE(solutions.ok()) << solutions.status();
  EXPECT_EQ(engine.Stats().datalog.constants_decoded, 0u);
  std::map<std::string, std::set<const term::Ast*>> nodes;  // text -> ASTs
  std::set<std::string> rows;
  while (true) {
    auto more = (*solutions)->Next();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    for (const char* var : {"X", "Y", "X"}) {
      const term::AstPtr ast = (*solutions)->BindingAst(var);
      ASSERT_NE(ast, nullptr);
      nodes[(*solutions)->Binding(var)].insert(ast.get());
    }
    const std::map<std::string, std::string> all = (*solutions)->All();
    rows.insert("X=" + all.at("X") + ",Y=" + all.at("Y"));
  }
  EXPECT_EQ(rows, (std::set<std::string>{"X=a,Y=1", "X=a,Y=2", "X=b,Y=1",
                                         "X=c,Y=1"}));
  // One AST per distinct constant, however many rows repeat it.
  ASSERT_EQ(nodes.size(), 5u);
  for (const auto& [text, asts] : nodes) {
    EXPECT_EQ(asts.size(), 1u) << text << " decoded more than once";
  }
  EXPECT_EQ(engine.Stats().datalog.constants_decoded, 5u);
  // The WAM gives the same text.
  engine.datalog_manager()->SetStrategy("r", 2, DatalogStrategy::kWam);
  EXPECT_EQ(SolutionSet(&engine, "r(X, Y)"), rows);

  // Counting the kbbench closure's 7,849 rows reads no binding, so
  // nothing decodes.
  ASSERT_TRUE(GraphWorkload::StoreEdges(&engine, "edge",
                                        GraphWorkload::RandomDag(1500, 2250, 7))
                  .ok());
  ASSERT_TRUE(
      engine.Consult(GraphWorkload::ClosureRules("path", "edge")).ok());
  const DatalogStats before = engine.Stats().datalog;
  auto count = engine.CountSolutions("path(X, Y)");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 7849u);
  const DatalogStats after = engine.Stats().datalog;
  EXPECT_EQ(after.queries_bottom_up, before.queries_bottom_up + 1);
  EXPECT_EQ(after.constants_decoded, before.constants_decoded);
}

TEST(DatalogEngineTest, DescribeAndMetricsExport) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(4))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  EXPECT_FALSE(SolutionSet(&engine, "path(X, Y)").empty());

  const std::string report = engine.datalog_manager()->Describe("path", 2);
  EXPECT_NE(report.find("path/2"), std::string::npos) << report;
  EXPECT_NE(report.find("recursive"), std::string::npos) << report;

  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"datalog\""), std::string::npos);
  EXPECT_NE(json.find("\"queries_bottom_up\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tuples_derived\""), std::string::npos);
}

TEST(DatalogEngineTest, ParallelBottomUpQueriesAgree) {
  // SolveParallel fans goals over worker sessions; with datalog on, each
  // session runs its own Evaluator (private arenas) over one shared warm
  // EDB cache entry — the path TSan sweeps via this test.
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(40))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  EXPECT_EQ(SolutionSet(&engine, "path(39, Y)").size(), 0u);  // warms edge/2
  const uint64_t warm_scans = engine.Stats().clause_store.bulk_fact_scans;
  std::vector<std::string> goals;
  for (int i = 0; i < 16; ++i) {
    goals.push_back("path(" + std::to_string(i) + ", Y)");
  }
  auto outcomes = engine.SolveParallel(goals, 4, /*collect_bindings=*/false);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  ASSERT_EQ(outcomes->size(), goals.size());
  for (int i = 0; i < 16; ++i) {
    // Chain of 40 nodes: node i reaches nodes i+1..39.
    EXPECT_EQ((*outcomes)[i].count, static_cast<uint64_t>(39 - i)) << i;
  }
  EXPECT_GE(engine.Stats().datalog.queries_bottom_up, 16u);
  EXPECT_EQ(engine.Stats().clause_store.bulk_fact_scans, warm_scans)
      << "a worker re-read edge/2 instead of sharing the warm entry";
}

TEST(DatalogEngineTest, ConcurrentFirstProbesOfASharedRelationAgree) {
  // A full query warms edge/2 but probes only its second column. Four
  // sessions then open their first bound queries at once: each magic
  // program probes edge/2 on its first column, so they race to build
  // that shared index (TSan sweeps this test). The nonedge/2 goals run
  // a negated EDB literal, which probes the shared row hash table.
  const char kRules[] =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
      "nonedge(X, Y) :- path(X, Y), \\+ edge(X, Y).\n";
  EnginePair pair;
  pair.LoadEdges(GraphWorkload::RandomDag(30, 70, 11));
  pair.ConsultBoth(kRules);
  EXPECT_FALSE(SolutionSet(&pair.bottom_up, "path(X, Y)").empty());
  const uint64_t scans = pair.bottom_up.Stats().clause_store.bulk_fact_scans;
  const uint64_t warm_bytes =
      pair.bottom_up.Stats().memory.datalog_edb_cache_bytes;

  std::vector<std::string> goals;
  for (int i = 0; i < 4; ++i) goals.push_back("path(" + std::to_string(i) + ", Y)");
  for (int i = 0; i < 8; ++i) {
    goals.push_back("nonedge(" + std::to_string(i) + ", Y)");
    goals.push_back("path(X, " + std::to_string(20 + i) + ")");
  }
  auto bottom_up = pair.bottom_up.SolveParallel(goals, 4, true);
  ASSERT_TRUE(bottom_up.ok()) << bottom_up.status();
  auto wam = pair.wam.SolveParallel(goals, 1, true);
  ASSERT_TRUE(wam.ok()) << wam.status();
  for (size_t i = 0; i < goals.size(); ++i) {
    const std::vector<std::string>& got = (*bottom_up)[i].rows;
    const std::vector<std::string>& want = (*wam)[i].rows;
    EXPECT_EQ(std::set<std::string>(got.begin(), got.end()),
              std::set<std::string>(want.begin(), want.end()))
        << goals[i];
  }
  EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up,
            goals.size() + 1);
  EXPECT_EQ(pair.bottom_up.Stats().clause_store.bulk_fact_scans, scans)
      << "a session re-read edge/2 instead of borrowing the shared relation";
  EXPECT_GT(pair.bottom_up.Stats().memory.datalog_edb_cache_bytes, warm_bytes)
      << "no session built the first-column index of the shared relation";
}

TEST(DatalogEngineTest, EdbCacheFollowsInterleavedMutations) {
  // Bottom-up queries interleaved with every kind of edge/2 mutation; the
  // WAM engine (which never caches EDB rows) is the oracle after each
  // step. Edges only run forward, so the graph stays a DAG and the
  // right-recursive rules terminate top-down.
  constexpr int64_t kNodes = 12;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EnginePair pair;
    std::vector<GraphWorkload::Edge> current =
        GraphWorkload::RandomDag(kNodes, 20, seed);
    pair.LoadEdges(current);
    pair.ConsultBoth(kClosureRules);
    base::Rng rng(seed);
    for (int step = 0; step < 24; ++step) {
      const int64_t a = static_cast<int64_t>(rng.Below(kNodes - 1));
      const int64_t b =
          a + 1 + static_cast<int64_t>(rng.Below(kNodes - 1 - a));
      const uint64_t action = rng.Below(3);
      std::string fact = "edge(" + std::to_string(a) + ", " +
                         std::to_string(b) + ")";
      std::string what;
      if (action == 0 || current.empty()) {
        what = "edb_assert(" + fact + ")";
        current.emplace_back(a, b);
      } else if (action == 1) {
        const size_t victim = rng.Below(current.size());
        fact = "edge(" + std::to_string(current[victim].first) + ", " +
               std::to_string(current[victim].second) + ")";
        current.erase(current.begin() + static_cast<ptrdiff_t>(victim));
        what = "edb_retract(" + fact + ")";
      } else {
        what = "";
        current.emplace_back(a, b);
        ASSERT_TRUE(pair.wam.StoreFactsExternal(fact + ".").ok());
        ASSERT_TRUE(pair.bottom_up.StoreFactsExternal(fact + ".").ok());
      }
      if (!what.empty()) {
        for (Engine* engine : {&pair.wam, &pair.bottom_up}) {
          auto done = engine->Succeeds(what);
          ASSERT_TRUE(done.ok()) << what << ": " << done.status();
          ASSERT_TRUE(*done) << what;
        }
      }
      const std::string goals[] = {"path(X, Y)",
                                   "path(" + std::to_string(a) + ", Y)",
                                   "path(X, " + std::to_string(b) + ")"};
      pair.ExpectSameSolutions(goals[step % 3]);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step << " after "
               << (what.empty() ? "storing " + fact : what);
      }
    }
    EXPECT_GE(pair.bottom_up.Stats().datalog.queries_bottom_up, 24u);
  }
}

TEST(DatalogEngineTest, WarmQueriesReadNoStoreRows) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(10))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  auto scans = [&] { return engine.Stats().clause_store.bulk_fact_scans.load(); };
  auto store_rows = [&] { return engine.Stats().datalog.edb_rows; };

  const uint64_t scans0 = scans();
  EXPECT_EQ(SolutionSet(&engine, "path(0, Y)").size(), 9u);
  EXPECT_EQ(scans(), scans0 + 1);
  EXPECT_EQ(store_rows(), 9u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(SolutionSet(&engine, "path(0, Y)").size(), 9u);
    EXPECT_EQ(SolutionSet(&engine, "path(X, Y)").size(), 45u);
    EXPECT_EQ(SolutionSet(&engine, "path(X, 5)").size(), 5u);
  }
  EXPECT_EQ(scans(), scans0 + 1) << "a warm query re-scanned edge/2";
  EXPECT_EQ(store_rows(), 9u) << "a warm query read rows from the store";

  // Each mutation costs the next query exactly one scan of the relation.
  const std::string mutations[] = {"edb_assert(edge(9, 10))", "",
                                   "edb_retract(edge(0, 1))"};
  const uint64_t edges_after[] = {10, 11, 10};
  uint64_t rows = store_rows();
  for (int m = 0; m < 3; ++m) {
    if (mutations[m].empty()) {
      ASSERT_TRUE(engine.StoreFactsExternal("edge(10, 11).").ok());
    } else {
      auto done = engine.Succeeds(mutations[m]);
      ASSERT_TRUE(done.ok() && *done) << mutations[m];
    }
    const uint64_t before = scans();
    EXPECT_FALSE(SolutionSet(&engine, "path(X, Y)").empty());
    EXPECT_EQ(scans(), before + 1) << "mutation " << m;
    EXPECT_EQ(store_rows(), rows + edges_after[m]) << "mutation " << m;
    rows = store_rows();
    EXPECT_FALSE(SolutionSet(&engine, "path(1, Y)").empty());
    EXPECT_EQ(scans(), before + 1) << "mutation " << m;
  }
}

TEST(DatalogEngineTest, EdbCacheBytesAreReported) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(10))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  const EngineMemoryReport cold = engine.Stats().memory;
  EXPECT_EQ(cold.datalog_edb_cache_bytes, 0u);

  EXPECT_EQ(SolutionSet(&engine, "path(0, Y)").size(), 9u);
  const EngineMemoryReport warm = engine.Stats().memory;
  // Nine edge/2 rows of two int64 columns, at least.
  EXPECT_GE(warm.datalog_edb_cache_bytes, 9u * 2u * sizeof(int64_t));
  // Heap, not file: neither on-disk gauge moves.
  EXPECT_EQ(warm.paged_file_bytes, cold.paged_file_bytes);
  EXPECT_EQ(warm.wal_file_bytes, cold.wal_file_bytes);
  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"datalog_edb_cache_bytes\":" +
                      std::to_string(warm.datalog_edb_cache_bytes)),
            std::string::npos)
      << json;

  auto done = engine.Succeeds("edb_assert(edge(9, 10))");
  ASSERT_TRUE(done.ok() && *done);
  EXPECT_EQ(engine.Stats().memory.datalog_edb_cache_bytes, 0u);
}

TEST(DatalogEngineTest, EdbCacheBytesCountEachColumnIndex) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(10))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  auto cache_bytes = [&] {
    return engine.Stats().memory.datalog_edb_cache_bytes;
  };
  // The full query probes edge/2 on its second column only.
  EXPECT_EQ(SolutionSet(&engine, "path(X, Y)").size(), 45u);
  const uint64_t one_index = cache_bytes();
  EXPECT_GT(one_index, 0u);
  EXPECT_EQ(SolutionSet(&engine, "path(X, Y)").size(), 45u);
  EXPECT_EQ(cache_bytes(), one_index) << "a warm query rebuilt an index";
  // The bound query's magic program probes the first column too.
  EXPECT_EQ(SolutionSet(&engine, "path(0, Y)").size(), 9u);
  EXPECT_GT(cache_bytes(), one_index);

  auto done = engine.Succeeds("edb_assert(edge(9, 10))");
  ASSERT_TRUE(done.ok() && *done);
  EXPECT_EQ(cache_bytes(), 0u);
}

TEST(DatalogEngineTest, DictionarySweepDropsCachedEdbRows) {
  // Cached EDB rows hold atom ids. A sweep frees the atoms no program
  // code references (here every node name) and later symbols may take
  // their slots, so rows cached before it would decode as other atoms.
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      engine.StoreFactsExternal("edge(a, b). edge(b, c). edge(c, d).").ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  const std::set<std::string> expected = {"Y=b", "Y=c", "Y=d"};
  EXPECT_EQ(SolutionSet(&engine, "path(a, Y)"), expected);

  auto swept = engine.CollectDictionary();
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_GT(*swept, 0u);
  EXPECT_EQ(engine.Stats().memory.datalog_edb_cache_bytes, 0u);
  std::string filler;
  for (int i = 0; i < 300; ++i) {
    filler += "f" + std::to_string(i) + "(x" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(engine.Consult(filler).ok());
  EXPECT_EQ(SolutionSet(&engine, "path(a, Y)"), expected);
}

TEST(DatalogEngineTest, EvaluatorStatsSurfaceIterationCounters) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(12))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  EXPECT_FALSE(SolutionSet(&engine, "path(X, Y)").empty());

  const DatalogStats stats = engine.Stats().datalog;
  // The recursive rule joins path against the edge index: the evaluator
  // builds at least one index and streams probe rows through it.
  EXPECT_GE(stats.index_builds, 1u) << "no join index was built";
  EXPECT_GT(stats.join_probes, 0u) << "no probe rows were counted";
  // One stratum (path is self-recursive only), and its delta total is
  // the derived closure: 12-chain -> 66 path tuples.
  ASSERT_FALSE(stats.last_per_stratum_tuples.empty());
  uint64_t per_stratum_total = 0;
  for (uint64_t n : stats.last_per_stratum_tuples) per_stratum_total += n;
  EXPECT_EQ(per_stratum_total, 66u);

  const std::string json = engine.ExportMetricsJson();
  EXPECT_NE(json.find("\"join_probes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"index_builds\""), std::string::npos);
  EXPECT_NE(json.find("\"last_per_stratum_tuples\""), std::string::npos);
}

TEST(DatalogEngineTest, SessionsUseBottomUpPath) {
  EngineOptions options;
  options.datalog = true;
  Engine engine(options);
  ASSERT_TRUE(
      GraphWorkload::StoreEdges(&engine, "edge", GraphWorkload::Chain(5))
          .ok());
  ASSERT_TRUE(engine.Consult(kClosureRules).ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto solutions = (*session)->Query("path(0, Y)");
  ASSERT_TRUE(solutions.ok()) << solutions.status();
  std::set<std::string> ys;
  while (true) {
    auto more = (*solutions)->Next();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ys.insert((*solutions)->Binding("Y"));
  }
  EXPECT_EQ(ys, (std::set<std::string>{"1", "2", "3", "4"}));
  EXPECT_GE(engine.Stats().datalog.queries_bottom_up, 1u);
}

}  // namespace
}  // namespace educe
