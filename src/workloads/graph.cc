#include "workloads/graph.h"

#include <random>
#include <unordered_set>

#include "base/result.h"
#include "dict/dictionary.h"
#include "edb/clause_store.h"
#include "term/ast.h"

namespace educe::workloads {

std::vector<GraphWorkload::Edge> GraphWorkload::Chain(uint64_t nodes) {
  std::vector<Edge> edges;
  if (nodes < 2) return edges;
  edges.reserve(nodes - 1);
  for (uint64_t i = 0; i + 1 < nodes; ++i) {
    edges.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(i + 1));
  }
  return edges;
}

std::vector<GraphWorkload::Edge> GraphWorkload::Grid(uint64_t rows,
                                                     uint64_t cols) {
  std::vector<Edge> edges;
  if (rows == 0 || cols == 0) return edges;
  edges.reserve(2 * rows * cols);
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      const int64_t id = static_cast<int64_t>(r * cols + c);
      if (c + 1 < cols) edges.emplace_back(id, id + 1);
      if (r + 1 < rows) edges.emplace_back(id, id + static_cast<int64_t>(cols));
    }
  }
  return edges;
}

std::vector<GraphWorkload::Edge> GraphWorkload::RandomDag(uint64_t nodes,
                                                          uint64_t edges,
                                                          uint64_t seed) {
  std::vector<Edge> out;
  if (nodes < 2) return out;
  const uint64_t max_edges = nodes * (nodes - 1) / 2;
  if (edges > max_edges) edges = max_edges;
  out.reserve(edges);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint64_t> pick(0, nodes - 1);
  std::unordered_set<uint64_t> seen;
  seen.reserve(edges * 2);
  while (out.size() < edges) {
    uint64_t u = pick(rng);
    uint64_t v = pick(rng);
    if (u == v) continue;
    if (u > v) std::swap(u, v);  // forward-only: keeps the graph acyclic
    const uint64_t key = u * nodes + v;
    if (!seen.insert(key).second) continue;
    out.emplace_back(static_cast<int64_t>(u), static_cast<int64_t>(v));
  }
  return out;
}

base::Status GraphWorkload::StoreEdges(Engine* engine, std::string_view pred,
                                       const std::vector<Edge>& edges) {
  EDUCE_ASSIGN_OR_RETURN(const dict::SymbolId functor,
                         engine->dictionary()->Intern(pred, 2));
  edb::ClauseStore* store = engine->clause_store();
  // One commit for the declare and every edge (DESIGN.md §17.1).
  return store->CommitAfter([&]() -> base::Status {
    edb::ProcedureInfo* proc = store->Find(pred, 2);
    if (proc == nullptr) {
      EDUCE_ASSIGN_OR_RETURN(
          proc, store->Declare(pred, 2, edb::ProcedureMode::kFacts));
    }
    for (const Edge& edge : edges) {
      std::vector<term::AstPtr> args;
      args.reserve(2);
      args.push_back(term::MakeInt(edge.first));
      args.push_back(term::MakeInt(edge.second));
      const term::AstPtr fact = term::MakeStruct(functor, std::move(args));
      EDUCE_RETURN_IF_ERROR(store->StoreFact(proc, *fact));
    }
    return base::Status::OK();
  });
}

std::string GraphWorkload::EdgeFactsText(std::string_view pred,
                                         const std::vector<Edge>& edges) {
  std::string out;
  out.reserve(edges.size() * (pred.size() + 16));
  for (const Edge& edge : edges) {
    out += pred;
    out += "(";
    out += std::to_string(edge.first);
    out += ",";
    out += std::to_string(edge.second);
    out += ").\n";
  }
  return out;
}

std::string GraphWorkload::ClosureRules(std::string_view path_pred,
                                        std::string_view edge_pred) {
  const std::string path(path_pred);
  const std::string edge(edge_pred);
  return path + "(X, Y) :- " + edge + "(X, Y).\n" +  //
         path + "(X, Y) :- " + path + "(X, Z), " + edge + "(Z, Y).\n";
}

}  // namespace educe::workloads
