// Recursive closure at scale (DESIGN.md §15): one million edge/2 facts
// in the EDB, transitive closure computed bottom-up (the semi-naive
// Datalog evaluator over the rel executor) and top-down (the WAM), on
// the same engine, same rules, same facts.
//
// The graph is 99,960 ten-edge chains plus one 2x134 ladder (1,000,000
// edges exactly; 5,524,667 closure tuples). Chains make the closure
// size linear in the edge count; the ladder adds a component with real
// fan-out so the join planner sees shared variables on both sides —
// and, having multiple derivations per pair, it forces the set-vs-bag
// comparison discipline below (WAM answers are deduplicated; all bars
// compare *sets*, matching the bottom-up engine's set semantics).
//
// Top-down is measured per-source over a 2,000-node sample and
// extrapolated. Full-graph top-down enumeration is intrinsically tens
// of minutes (measured 55.3 s bottom-up vs >2,600 s for one unbound
// WAM query — that gap is this subsystem's reason to exist), so the
// full leg only runs with EDUCE_CLOSURE_FULL=1 in the environment; CI
// runs the sampled mode. The extrapolation is a *lower bound* on the
// true top-down time: the sample covers 181 whole chains (per-chain
// cost is uniform across chains) and excludes the ladder sources,
// whose reach sets are the largest in the graph.
//
// Correctness does not ride on the sample: the full 5.5M-tuple
// bottom-up answer is checked for set equality against an independent
// plain-C++ BFS closure of the edge list, and the sampled WAM answers
// must equal their slice of it exactly.
//
// Bars (abort on miss):
//   - the bottom-up solution set equals the BFS reference closure
//     (all 5,524,667 tuples, compared as packed u64 pairs);
//   - the sampled top-down answers equal their slice of the closure;
//   - bottom-up answers the full closure >= 10x faster than the
//     (lower-bound extrapolated, or measured under
//     EDUCE_CLOSURE_FULL=1) top-down time;
//   - the magic-set bound query derives strictly fewer tuples than the
//     unbound evaluation (demand transformation actually pruned);
//   - the bound answers equal the bound slice of the full closure.
//
// The plain BFS that builds the reference is timed too, and the run
// reports bottom-up's time over it (bottom_up_vs_bfs): the floor a
// general-purpose evaluator is measured against. That ratio carries no
// bar, and neither does the split of each bottom-up query into its
// fixpoint rounds (evaluate_ms) and its projection into answers
// (answer_ms), read from the DatalogStats phase timers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/stopwatch.h"
#include "bench/bench_util.h"
#include "educe/engine.h"
#include "workloads/graph.h"

namespace educe {
namespace {

using bench::BenchJson;
using bench::Check;
using bench::CheckResult;
using bench::Ms;
using bench::Num;
using bench::Ratio;
using bench::Table;
using workloads::GraphWorkload;

constexpr uint64_t kChainLen = 10;     // edges per chain component
constexpr uint64_t kChains = 99960;    // chain components
constexpr uint64_t kLadderCols = 134;  // 2xN ladder: 3N-2 = 400 edges
constexpr uint64_t kTotalEdges = kChains * kChainLen + 3 * kLadderCols - 2;
static_assert(kTotalEdges == 1000000, "graph must sum to one million edges");

constexpr int64_t kNumNodes =
    static_cast<int64_t>(kChains * (kChainLen + 1) + 2 * kLadderCols);

// Per-source sample: 181 whole chains. Large enough to average out
// per-query setup noise, small enough to keep the leg in seconds.
constexpr int64_t kSampleSources = 2000;

uint64_t Pack(int64_t x, int64_t y) {
  return (static_cast<uint64_t>(x) << 32) | static_cast<uint64_t>(y);
}

std::vector<GraphWorkload::Edge> BuildGraph() {
  std::vector<GraphWorkload::Edge> edges;
  edges.reserve(kTotalEdges);
  for (uint64_t k = 0; k < kChains; ++k) {
    const int64_t base = static_cast<int64_t>(k * (kChainLen + 1));
    for (uint64_t i = 0; i < kChainLen; ++i) {
      edges.emplace_back(base + static_cast<int64_t>(i),
                         base + static_cast<int64_t>(i) + 1);
    }
  }
  const int64_t offset = static_cast<int64_t>(kChains * (kChainLen + 1));
  for (const auto& e : GraphWorkload::Grid(2, kLadderCols)) {
    edges.emplace_back(e.first + offset, e.second + offset);
  }
  return edges;
}

// Independent reference: plain BFS/DFS transitive closure over the edge
// list, no engine code involved. ~5.5M pairs in well under a second.
std::vector<uint64_t> ReferenceClosure(
    const std::vector<GraphWorkload::Edge>& edges) {
  std::vector<std::vector<int32_t>> adj(static_cast<size_t>(kNumNodes));
  for (const auto& e : edges) {
    adj[static_cast<size_t>(e.first)].push_back(
        static_cast<int32_t>(e.second));
  }
  std::vector<uint64_t> closure;
  std::vector<int32_t> stamp(static_cast<size_t>(kNumNodes), -1);
  std::vector<int32_t> stack;
  for (int64_t src = 0; src < kNumNodes; ++src) {
    stack.clear();
    for (int32_t next : adj[static_cast<size_t>(src)]) {
      if (stamp[static_cast<size_t>(next)] != src) {
        stamp[static_cast<size_t>(next)] = static_cast<int32_t>(src);
        stack.push_back(next);
      }
    }
    while (!stack.empty()) {
      const int32_t node = stack.back();
      stack.pop_back();
      closure.push_back(Pack(src, node));
      for (int32_t next : adj[static_cast<size_t>(node)]) {
        if (stamp[static_cast<size_t>(next)] != src) {
          stamp[static_cast<size_t>(next)] = static_cast<int32_t>(src);
          stack.push_back(next);
        }
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

int64_t AstInt(const term::AstPtr& ast) {
  if (ast == nullptr || ast->kind != term::Ast::Kind::kInt) {
    std::fprintf(stderr, "FATAL non-integer binding in closure answer\n");
    std::abort();
  }
  return ast->int_value;
}

// Where a bottom-up query's time went, from the DatalogStats deltas
// around it: the fixpoint rounds (joins plus delta flushes) and the
// projection into answers. The rest of the query's wall time is the EDB
// load, index builds and the walk over the answer rows.
struct Phases {
  double evaluate_s = 0;
  double answer_s = 0;
};

Phases PhasesBetween(const DatalogStats& before, const DatalogStats& after) {
  Phases phases;
  phases.evaluate_s = static_cast<double>((after.join_ns - before.join_ns) +
                                          (after.flush_ns - before.flush_ns)) *
                      1e-9;
  phases.answer_s =
      static_cast<double>(after.answer_ns - before.answer_ns) * 1e-9;
  return phases;
}

void SortUnique(std::vector<uint64_t>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

int Main() {
  const bool full_top_down = std::getenv("EDUCE_CLOSURE_FULL") != nullptr;
  std::printf("Building graph: %llu chains x %llu edges + 2x%llu ladder "
              "= %llu edges\n",
              static_cast<unsigned long long>(kChains),
              static_cast<unsigned long long>(kChainLen),
              static_cast<unsigned long long>(kLadderCols),
              static_cast<unsigned long long>(kTotalEdges));
  const std::vector<GraphWorkload::Edge> edges = BuildGraph();
  base::Stopwatch reference_watch;
  const std::vector<uint64_t> reference = ReferenceClosure(edges);
  const double reference_s = reference_watch.ElapsedSeconds();
  std::printf("Reference closure: %zu tuples (plain BFS) in %s ms\n",
              reference.size(), Ms(reference_s).c_str());

  EngineOptions options;
  options.datalog = true;
  Engine engine(options);

  base::Stopwatch setup;
  Check(GraphWorkload::StoreEdges(&engine, "edge", edges), "store edges");
  Check(engine.Consult("path(X, Y) :- edge(X, Y).\n"
                       "path(X, Y) :- edge(X, Z), path(Z, Y).\n"),
        "consult closure rules");
  const double setup_s = setup.ElapsedSeconds();
  std::printf("Setup (StoreEdges + consult): %s ms\n", Ms(setup_s).c_str());
  std::fflush(stdout);

  DatalogManager* manager = engine.datalog_manager();

  // --- bottom-up: one unbound query answers the whole closure ---------------
  manager->SetStrategy("path", 2, DatalogStrategy::kBottomUp);
  const DatalogStats dl0 = engine.Stats().datalog;
  std::vector<uint64_t> bottom_up_pairs;
  bottom_up_pairs.reserve(reference.size());
  base::Stopwatch bu;
  {
    auto solutions = CheckResult(engine.Query("path(X, Y)"), "bottom-up query");
    while (CheckResult(solutions->Next(), "bottom-up next")) {
      bottom_up_pairs.push_back(Pack(AstInt(solutions->BindingAst("X")),
                                     AstInt(solutions->BindingAst("Y"))));
    }
  }
  const double bottom_up_s = bu.ElapsedSeconds();
  const DatalogStats dl1 = engine.Stats().datalog;
  const uint64_t tuples_unbound = dl1.tuples_derived - dl0.tuples_derived;
  const uint64_t iterations_unbound = dl1.iterations - dl0.iterations;
  const Phases full_phases = PhasesBetween(dl0, dl1);
  std::printf("Bottom-up: %zu tuples in %s ms (%llu derived, %llu rounds; "
              "evaluate %s ms, answer %s ms)\n",
              bottom_up_pairs.size(), Ms(bottom_up_s).c_str(),
              static_cast<unsigned long long>(tuples_unbound),
              static_cast<unsigned long long>(iterations_unbound),
              Ms(full_phases.evaluate_s).c_str(),
              Ms(full_phases.answer_s).c_str());
  std::fflush(stdout);

  // --- bottom-up, bound: the magic-set rewrite prunes to the demand set -----
  std::vector<uint64_t> bound_pairs;
  base::Stopwatch magic;
  {
    auto solutions = CheckResult(engine.Query("path(0, Y)"), "bound query");
    while (CheckResult(solutions->Next(), "bound next")) {
      bound_pairs.push_back(Pack(0, AstInt(solutions->BindingAst("Y"))));
    }
  }
  const double magic_s = magic.ElapsedSeconds();
  const DatalogStats dl2 = engine.Stats().datalog;
  const uint64_t tuples_bound = dl2.tuples_derived - dl1.tuples_derived;
  const Phases bound_phases = PhasesBetween(dl1, dl2);
  std::printf("Magic bound: %zu answers in %s ms (%llu derived; evaluate %s "
              "ms, answer %s ms)\n",
              bound_pairs.size(), Ms(magic_s).c_str(),
              static_cast<unsigned long long>(tuples_bound),
              Ms(bound_phases.evaluate_s).c_str(),
              Ms(bound_phases.answer_s).c_str());
  std::fflush(stdout);

  // --- top-down, per-source over the sample: the WAM pays query setup,
  // clause-store selections and solution surfacing per call ------------------
  manager->SetStrategy("path", 2, DatalogStrategy::kWam);
  const uint64_t decodes0 = engine.Stats().loader.clauses_decoded;
  std::vector<uint64_t> sample_pairs;
  base::Stopwatch per_call;
  std::string goal;
  for (int64_t src = 0; src < kSampleSources; ++src) {
    goal = "path(" + std::to_string(src) + ", Y)";
    auto solutions = CheckResult(engine.Query(goal), "per-source query");
    while (CheckResult(solutions->Next(), "per-source next")) {
      sample_pairs.push_back(Pack(src, AstInt(solutions->BindingAst("Y"))));
    }
  }
  const double per_call_s = per_call.ElapsedSeconds();
  const uint64_t sample_decodes =
      engine.Stats().loader.clauses_decoded - decodes0;
  const double top_down_est_s =
      per_call_s * static_cast<double>(kNumNodes) /
      static_cast<double>(kSampleSources);
  std::printf("Top-down per-source: %zu answers over %lld queries in %s ms "
              "(>= %s ms extrapolated to all %lld sources)\n",
              sample_pairs.size(), static_cast<long long>(kSampleSources),
              Ms(per_call_s).c_str(), Ms(top_down_est_s).c_str(),
              static_cast<long long>(kNumNodes));
  std::fflush(stdout);

  // --- top-down, full unbound enumeration (EDUCE_CLOSURE_FULL=1 only) -------
  double top_down_s = 0.0;
  if (full_top_down) {
    std::vector<uint64_t> top_down_pairs;
    top_down_pairs.reserve(reference.size() + reference.size() / 8);
    base::Stopwatch td;
    auto solutions = CheckResult(engine.Query("path(X, Y)"), "top-down query");
    while (CheckResult(solutions->Next(), "top-down next")) {
      top_down_pairs.push_back(Pack(AstInt(solutions->BindingAst("X")),
                                    AstInt(solutions->BindingAst("Y"))));
    }
    top_down_s = td.ElapsedSeconds();
    const uint64_t derivations = top_down_pairs.size();
    SortUnique(&top_down_pairs);
    std::printf("Top-down: %zu tuples in %s ms (one unbound query, %llu "
                "derivations)\n",
                top_down_pairs.size(), Ms(top_down_s).c_str(),
                static_cast<unsigned long long>(derivations));
    std::fflush(stdout);
    if (top_down_pairs != reference) {
      std::fprintf(stderr, "FATAL top-down closure differs from reference\n");
      return 1;
    }
  }

  // --- bars ------------------------------------------------------------------
  std::sort(bottom_up_pairs.begin(), bottom_up_pairs.end());
  if (bottom_up_pairs != reference) {
    std::fprintf(stderr,
                 "FATAL bottom-up closure differs from reference: "
                 "%zu vs %zu tuples\n",
                 bottom_up_pairs.size(), reference.size());
    return 1;
  }
  std::vector<uint64_t> expected_bound;
  std::vector<uint64_t> expected_sample;
  for (uint64_t pair : reference) {
    if ((pair >> 32) == 0) expected_bound.push_back(pair);
    if ((pair >> 32) < static_cast<uint64_t>(kSampleSources)) {
      expected_sample.push_back(pair);
    }
  }
  std::sort(bound_pairs.begin(), bound_pairs.end());
  if (bound_pairs != expected_bound) {
    std::fprintf(stderr, "FATAL bound answers differ from closure slice\n");
    return 1;
  }
  SortUnique(&sample_pairs);
  if (sample_pairs != expected_sample) {
    std::fprintf(stderr, "FATAL sampled answers differ from closure slice\n");
    return 1;
  }
  if (tuples_bound >= tuples_unbound) {
    std::fprintf(stderr,
                 "FATAL magic rewrite did not prune: bound %llu >= full %llu\n",
                 static_cast<unsigned long long>(tuples_bound),
                 static_cast<unsigned long long>(tuples_unbound));
    return 1;
  }
  if (dl2.magic_rewrites < 1) {
    std::fprintf(stderr, "FATAL bound query compiled without magic rewrite\n");
    return 1;
  }
  const edb::ClauseStoreStats store_stats = engine.Stats().clause_store;
  if (store_stats.bulk_fact_scans < 1 ||
      store_stats.bulk_fact_rows < kTotalEdges) {
    std::fprintf(stderr, "FATAL bulk fact scan did not feed the EDB\n");
    return 1;
  }
  const double top_down_bar_s = full_top_down ? top_down_s : top_down_est_s;
  const double speedup = top_down_bar_s / bottom_up_s;
  if (speedup < 10.0) {
    std::fprintf(stderr, "FATAL bottom-up speedup %.1fx below the 10x bar\n",
                 speedup);
    return 1;
  }

  Table table("Transitive closure, 1,000,000 edges (paper-style)");
  table.Header({"strategy", "time (ms)", "tuples", "notes"});
  table.Row({"top-down (WAM, per-source)", Ms(per_call_s),
             Num(sample_pairs.size()),
             Num(static_cast<uint64_t>(kSampleSources)) + " of " +
                 Num(static_cast<uint64_t>(kNumNodes)) + " sources"});
  if (full_top_down) {
    table.Row({"top-down (WAM, unbound)", Ms(top_down_s),
               Num(reference.size()), "one query, full enumeration"});
  } else {
    table.Row({"top-down (extrapolated)", Ms(top_down_est_s),
               Num(reference.size()), "lower bound, all sources"});
  }
  table.Row({"bottom-up (semi-naive)", Ms(bottom_up_s),
             Num(bottom_up_pairs.size()),
             Ratio(top_down_bar_s, bottom_up_s) + " vs top-down"});
  table.Row({"bottom-up + magic (path(0,Y))", Ms(magic_s),
             Num(bound_pairs.size()),
             Num(tuples_bound) + " derived vs " + Num(tuples_unbound)});
  table.Row({"plain C++ BFS (reference)", Ms(reference_s),
             Num(reference.size()),
             "bottom-up / BFS = " + Ratio(bottom_up_s, reference_s)});
  table.Print();

  BenchJson json;
  json.Add("bench", std::string("closure"));
  json.AddHostCores();
  json.AddToolchain();
  json.Add("edges", kTotalEdges);
  json.Add("solutions", static_cast<uint64_t>(bottom_up_pairs.size()));
  json.Add("bound_solution_rows", static_cast<uint64_t>(bound_pairs.size()));
  json.Add("sample_solution_rows", static_cast<uint64_t>(sample_pairs.size()));
  json.Add("tuples_unbound_count", tuples_unbound);
  json.Add("tuples_bound_count", tuples_bound);
  json.Add("delta_iterations_count", iterations_unbound);
  json.Add("bulk_fact_rows", store_stats.bulk_fact_rows.load());
  json.Add("sample_decodes", sample_decodes);
  json.Add("setup_ms", setup_s * 1e3);
  json.Add("bottom_up_ms", bottom_up_s * 1e3);
  json.Add("magic_bound_ms", magic_s * 1e3);
  json.Add("bottom_up_evaluate_ms", full_phases.evaluate_s * 1e3);
  json.Add("bottom_up_answer_ms", full_phases.answer_s * 1e3);
  json.Add("magic_bound_evaluate_ms", bound_phases.evaluate_s * 1e3);
  json.Add("magic_bound_answer_ms", bound_phases.answer_s * 1e3);
  json.Add("reference_ms", reference_s * 1e3);
  json.Add("bottom_up_vs_bfs", bottom_up_s / reference_s);
  json.Add("top_down_sample_ms", per_call_s * 1e3);
  json.Add("top_down_est_ms", top_down_est_s * 1e3);
  if (full_top_down) json.Add("top_down_full_ms", top_down_s * 1e3);
  json.Add("speedup", speedup);
  json.Print();
  return 0;
}

}  // namespace
}  // namespace educe

int main() { return educe::Main(); }
