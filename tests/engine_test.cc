#include "educe/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace educe {
namespace {

std::vector<std::string> Bindings(Engine* engine, std::string_view goal,
                                  std::string_view var, int max = 1000) {
  auto solutions = engine->Query(goal);
  EXPECT_TRUE(solutions.ok()) << solutions.status();
  std::vector<std::string> out;
  if (!solutions.ok()) return out;
  while (static_cast<int>(out.size()) < max) {
    auto more = (*solutions)->Next();
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    out.push_back((*solutions)->Binding(var));
  }
  return out;
}

TEST(EngineTest, InMemoryQueries) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). q(X) :- p(X), X > 1.").ok());
  EXPECT_EQ(Bindings(&engine, "q(X)", "X"), (std::vector<std::string>{"2"}));
  auto succeeds = engine.Succeeds("p(1)");
  ASSERT_TRUE(succeeds.ok());
  EXPECT_TRUE(*succeeds);
}

TEST(EngineTest, ExternalFactsBehaveLikeInternalOnes) {
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("edge", 2).ok());
  ASSERT_TRUE(engine
                  .StoreFactsExternal(
                      "edge(a, b). edge(b, c). edge(c, d). edge(b, e).")
                  .ok());
  ASSERT_TRUE(engine.Consult(R"(
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
  )").ok());
  EXPECT_EQ(Bindings(&engine, "edge(b, X)", "X"),
            (std::vector<std::string>{"c", "e"}));
  const std::vector<std::string> reached = Bindings(&engine, "reach(a, X)", "X");
  EXPECT_EQ(std::set<std::string>(reached.begin(), reached.end()),
            (std::set<std::string>{"b", "c", "d", "e"}));
  auto none = engine.Succeeds("edge(d, X)");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(*none);
}

TEST(EngineTest, ExternalFactsWithStructuredValues) {
  Engine engine;
  ASSERT_TRUE(engine
                  .StoreFactsExternal(
                      "item(1, box(3, 4), [a, b]). item(2, box(5, 6), []).")
                  .ok());
  EXPECT_EQ(Bindings(&engine, "item(1, B, L)", "B"),
            (std::vector<std::string>{"box(3,4)"}));
  EXPECT_EQ(Bindings(&engine, "item(N, box(5, _), _)", "N"),
            (std::vector<std::string>{"2"}));
}

TEST(EngineTest, CompiledExternalRules) {
  EngineOptions options;
  options.rule_storage = RuleStorage::kCompiled;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreFactsExternal("leg(a, b). leg(b, c).").ok());
  ASSERT_TRUE(engine.StoreRulesExternal(R"(
    trip(X, Y) :- leg(X, Y).
    trip(X, Y) :- leg(X, Z), trip(Z, Y).
  )").ok());
  EXPECT_EQ(Bindings(&engine, "trip(a, X)", "X"),
            (std::vector<std::string>{"b", "c"}));
  // The rules were loaded from the EDB, not from main memory.
  EXPECT_GT(engine.Stats().resolver.rule_loads, 0u);
  EXPECT_GT(engine.Stats().loader.clauses_decoded, 0u);
}

TEST(EngineTest, SourceExternalRulesGiveSameAnswers) {
  EngineOptions options;
  options.rule_storage = RuleStorage::kSource;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreFactsExternal("leg(a, b). leg(b, c).").ok());
  ASSERT_TRUE(engine.StoreRulesExternal(R"(
    trip(X, Y) :- leg(X, Y).
    trip(X, Y) :- leg(X, Z), trip(Z, Y).
  )").ok());
  EXPECT_EQ(Bindings(&engine, "trip(a, X)", "X"),
            (std::vector<std::string>{"b", "c"}));
  // The baseline pathology: parses and asserts happened per use.
  const EngineStats stats = engine.Stats();
  EXPECT_GT(stats.resolver.source_parses, 0u);
  EXPECT_GT(stats.resolver.source_asserts, 0u);
  EXPECT_GT(stats.resolver.source_erases, 0u);
  EXPECT_GE(stats.resolver.source_asserts, stats.resolver.source_erases);
}

TEST(EngineTest, SourceModeReparsesPerUse) {
  EngineOptions options;
  options.rule_storage = RuleStorage::kSource;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreRulesExternal("r(1). r(2). r(3).").ok());

  auto c1 = engine.CountSolutions("r(X)");
  ASSERT_TRUE(c1.ok());
  const uint64_t parses_after_one = engine.Stats().resolver.source_parses;
  auto c2 = engine.CountSolutions("r(X)");
  ASSERT_TRUE(c2.ok());
  const uint64_t parses_after_two = engine.Stats().resolver.source_parses;
  EXPECT_EQ(*c1, 3u);
  EXPECT_EQ(parses_after_two, 2 * parses_after_one)
      << "every use must re-parse all clauses";
}

TEST(EngineTest, SourceModeLoadsDoNotGrowTheDictionary) {
  // Every source-mode load installs the stored clauses under a transient
  // `$src_<name>` functor; that functor is reused, not minted per load.
  const char* facts = "leg(a, b). leg(b, c). leg(c, d). leg(a, e).";
  const char* rules =
      "reach(X, Y) :- leg(X, Y).\n"
      "reach(X, Y) :- leg(X, Z), reach(Z, Y).\n";
  EngineOptions source_options;
  source_options.rule_storage = RuleStorage::kSource;
  Engine source(source_options);
  EngineOptions compiled_options;
  compiled_options.rule_storage = RuleStorage::kCompiled;
  Engine compiled(compiled_options);
  for (Engine* engine : {&source, &compiled}) {
    ASSERT_TRUE(engine->StoreFactsExternal(facts).ok());
    ASSERT_TRUE(engine->StoreRulesExternal(rules).ok());
  }

  const char* goals[] = {"reach(a, X)", "reach(b, X)", "reach(X, d)",
                         "reach(d, X)"};
  size_t dictionary_after_first = 0;
  for (int i = 0; i < 1000; ++i) {
    const char* goal = goals[i % 4];
    auto got = source.CountSolutions(goal);
    auto want = compiled.CountSolutions(goal);
    ASSERT_TRUE(got.ok()) << goal << ": " << got.status();
    ASSERT_TRUE(want.ok()) << goal << ": " << want.status();
    ASSERT_EQ(*got, *want) << goal << " at query " << i;
    if (i == 0) dictionary_after_first = source.dictionary()->size();
  }
  EXPECT_EQ(source.dictionary()->size(), dictionary_after_first);
  EXPECT_GE(source.Stats().resolver.source_parses, 1000u);
}

TEST(EngineTest, CompiledModeCachesAcrossUses) {
  EngineOptions options;
  options.rule_storage = RuleStorage::kCompiled;
  Engine engine(options);
  ASSERT_TRUE(engine.StoreRulesExternal("r(1). r(2). r(3).").ok());

  ASSERT_TRUE(engine.CountSolutions("r(X)").ok());
  const uint64_t decoded_one = engine.Stats().loader.clauses_decoded;
  ASSERT_TRUE(engine.CountSolutions("r(X)").ok());
  const uint64_t decoded_two = engine.Stats().loader.clauses_decoded;
  EXPECT_EQ(decoded_one, decoded_two) << "second use must hit the code cache";
  EXPECT_GT(engine.Stats().loader.cache_hits, 0u);
}

TEST(EngineTest, ThreeStorageModesAgree) {
  const char* facts = R"(
    parent(tom, bob). parent(tom, liz). parent(bob, ann).
    parent(bob, pat). parent(pat, jim).
  )";
  const char* rules = R"(
    anc(X, Y) :- parent(X, Y).
    anc(X, Y) :- parent(X, Z), anc(Z, Y).
  )";

  auto run = [&](RuleStorage mode, bool rules_external) {
    EngineOptions options;
    options.rule_storage = mode;
    Engine engine(options);
    EXPECT_TRUE(engine.StoreFactsExternal(facts).ok());
    if (rules_external) {
      EXPECT_TRUE(engine.StoreRulesExternal(rules).ok());
    } else {
      EXPECT_TRUE(engine.Consult(rules).ok());
    }
    return Bindings(&engine, "anc(tom, X)", "X");
  };

  const auto in_memory = run(RuleStorage::kCompiled, false);
  const auto compiled = run(RuleStorage::kCompiled, true);
  const auto source = run(RuleStorage::kSource, true);
  EXPECT_EQ(in_memory.size(), 5u);
  EXPECT_EQ(compiled, in_memory);
  EXPECT_EQ(source, in_memory);
}

TEST(EngineTest, ChoicePointEliminationOnBoundKeys) {
  EngineOptions options;
  Engine engine(options);
  std::string facts;
  for (int i = 0; i < 100; ++i) {
    facts += "kv(k" + std::to_string(i) + ", " + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());

  // Bound key: deterministic retrieval, no choice point.
  engine.ResetStats();
  EXPECT_EQ(Bindings(&engine, "kv(k42, V)", "V"),
            (std::vector<std::string>{"42"}));
  EXPECT_EQ(engine.Stats().machine.choice_points, 0u);
  EXPECT_GT(engine.Stats().resolver.fact_calls_deterministic, 0u);

  // Ablation B: with elimination off, the same call pays a choice point.
  engine.options().choice_point_elimination = false;
  engine.SyncOptions();
  engine.ResetStats();
  EXPECT_EQ(Bindings(&engine, "kv(k42, V)", "V"),
            (std::vector<std::string>{"42"}));
  EXPECT_GT(engine.Stats().machine.choice_points, 0u);
}

TEST(EngineTest, FactScanNarrowsIo) {
  Engine engine;
  std::string facts;
  for (int i = 0; i < 2000; ++i) {
    facts += "big(" + std::to_string(i) + ", v" + std::to_string(i % 7) +
             ").\n";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());

  engine.ResetStats();
  ASSERT_TRUE(engine.CountSolutions("big(1234, V)").ok());
  const uint64_t bound_rows = engine.Stats().clause_store.fact_rows_fetched;

  engine.ResetStats();
  auto all = engine.CountSolutions("big(N, V)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 2000u);
  const uint64_t open_rows = engine.Stats().clause_store.fact_rows_fetched;
  EXPECT_EQ(bound_rows, 1u);
  EXPECT_EQ(open_rows, 2000u);
}

TEST(EngineTest, ColdVsWarmBufferReads) {
  EngineOptions options;
  options.buffer_frames = 64;
  Engine engine(options);
  std::string facts;
  for (int i = 0; i < 3000; ++i) {
    facts += "t(" + std::to_string(i) + ").\n";
  }
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());

  ASSERT_TRUE(engine.InvalidateBuffers().ok());
  engine.ResetStats();
  ASSERT_TRUE(engine.CountSolutions("t(X)").ok());
  const uint64_t cold_reads = engine.Stats().paged_file.pages_read;

  engine.ResetStats();
  ASSERT_TRUE(engine.CountSolutions("t(X)").ok());
  const uint64_t warm_reads = engine.Stats().paged_file.pages_read;
  EXPECT_GT(cold_reads, 0u);
  EXPECT_LT(warm_reads, cold_reads)
      << "second run must benefit from the buffer pool";
}

TEST(EngineTest, ExternalRulesWithControlConstructs) {
  Engine engine;
  ASSERT_TRUE(engine.StoreFactsExternal("score(ann, 7). score(bob, 3).").ok());
  ASSERT_TRUE(engine.StoreRulesExternal(R"(
    grade(P, pass) :- score(P, S), ( S >= 5 -> true ; fail ).
    grade(P, fail_grade) :- score(P, S), S < 5.
  )").ok());
  EXPECT_EQ(Bindings(&engine, "grade(ann, G)", "G"),
            (std::vector<std::string>{"pass"}));
  EXPECT_EQ(Bindings(&engine, "grade(bob, G)", "G"),
            (std::vector<std::string>{"fail_grade"}));
}

TEST(EngineTest, MixedInternalExternalRecursion) {
  // Internal rules over external facts and external rules over internal
  // helpers, in one derivation.
  Engine engine;
  ASSERT_TRUE(engine.StoreFactsExternal("hop(1, 2). hop(2, 3). hop(3, 4).").ok());
  ASSERT_TRUE(engine.Consult("double_hop(X, Y) :- hop(X, Z), hop(Z, Y).").ok());
  ASSERT_TRUE(engine.StoreRulesExternal(
      "far(X, Y) :- double_hop(X, M), hop(M, Y).").ok());
  EXPECT_EQ(Bindings(&engine, "far(1, Y)", "Y"),
            (std::vector<std::string>{"4"}));
}

TEST(EngineTest, FindallOverExternalFacts) {
  Engine engine;
  ASSERT_TRUE(engine.StoreFactsExternal("c(1). c(2). c(3).").ok());
  EXPECT_EQ(Bindings(&engine, "findall(X, c(X), L)", "L"),
            (std::vector<std::string>{"[1,2,3]"}));
}

TEST(EngineTest, NegationOverExternalFacts) {
  Engine engine;
  ASSERT_TRUE(engine.StoreFactsExternal("seen(a). seen(b).").ok());
  auto yes = engine.Succeeds("\\+ seen(z)");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = engine.Succeeds("\\+ seen(a)");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(EngineTest, UpdatesInvalidateLoaderCache) {
  Engine engine;
  ASSERT_TRUE(engine.StoreRulesExternal("val(1).").ok());
  EXPECT_EQ(Bindings(&engine, "val(X)", "X"), (std::vector<std::string>{"1"}));
  ASSERT_TRUE(engine.StoreRulesExternal("val(2).").ok());
  EXPECT_EQ(Bindings(&engine, "val(X)", "X"),
            (std::vector<std::string>{"1", "2"}));
}

TEST(EngineTest, SimulatedIoLatencyIsCharged) {
  constexpr uint64_t kLatencyNs = 200000;  // 0.2 ms per page
  EngineOptions options;
  options.buffer_frames = 8;
  options.io_latency_ns = kLatencyNs;
  Engine engine(options);
  std::string facts;
  for (int i = 0; i < 800; ++i) facts += "d(" + std::to_string(i) + ").\n";
  ASSERT_TRUE(engine.StoreFactsExternal(facts).ok());
  ASSERT_TRUE(engine.InvalidateBuffers().ok());
  engine.paged_file()->ResetStats();
  ASSERT_TRUE(engine.CountSolutions("d(X)").ok());
  // PagedFile::Read busy-waits the latency inside the span it times, so
  // the bound holds on any host load; it fails only if the latency is not
  // charged.
  const storage::PagedFileStats& stats = engine.paged_file()->stats();
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_GE(stats.read_ns, stats.pages_read * kLatencyNs);
}

TEST(EngineTest, QueryErrorsSurface) {
  Engine engine;
  auto result = engine.Query("undefined_pred(1)");
  ASSERT_TRUE(result.ok());
  auto next = (*result)->Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), base::StatusCode::kNotFound);
}

TEST(EngineTest, SyntaxErrorsSurface) {
  Engine engine;
  EXPECT_FALSE(engine.Consult("p(").ok());
  EXPECT_FALSE(engine.Query("p((").ok());
}


TEST(EngineTest, EdbAssertRetractScan) {
  Engine engine;
  // edb_assert declares the relation on first use and stores facts.
  EXPECT_TRUE(*engine.Succeeds("edb_assert(stock(widget, 5))"));
  EXPECT_TRUE(*engine.Succeeds("edb_assert(stock(gadget, 3))"));
  EXPECT_TRUE(*engine.Succeeds("edb_assert(stock(gizmo, 9))"));
  auto n = engine.CountSolutions("stock(P, Q)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);

  // Non-ground asserts are rejected.
  auto bad = engine.Query("edb_assert(stock(open, Q))");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE((*bad)->Next().ok());

  // edb_retract removes the first match and keeps bindings.
  auto first = engine.First("edb_retract(stock(gadget, Q))");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)["Q"], "3");
  n = engine.CountSolutions("stock(P, Q)");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  auto gone = engine.Succeeds("edb_retract(stock(gadget, _))");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(*gone);

  // edb_scan ships the remaining relation set-at-a-time.
  auto scan = engine.First("edb_scan(stock/2, L), length(L, N)");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ((*scan)["N"], "2");
}

TEST(EngineTest, EdbUpdatesVisibleToLaterQueries) {
  Engine engine;
  ASSERT_TRUE(engine.Consult(
      "restock(P) :- edb_retract(inv(P, Q)), Q2 is Q + 10, "
      "edb_assert(inv(P, Q2)).").ok());
  EXPECT_TRUE(*engine.Succeeds("edb_assert(inv(bolt, 1))"));
  EXPECT_TRUE(*engine.Succeeds("restock(bolt)"));
  auto q = engine.First("inv(bolt, Q)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)["Q"], "11");
}


TEST(EngineTest, DictionaryGarbageCollection) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("keep(me). keep(too).").ok());
  const size_t baseline = engine.dictionary()->size();

  // Interning transient symbols through queries grows the dictionary.
  for (int i = 0; i < 50; ++i) {
    auto ok = engine.Succeeds("X = transient_atom_" + std::to_string(i));
    ASSERT_TRUE(ok.ok());
  }
  EXPECT_GT(engine.dictionary()->size(), baseline + 40);
  // The machine keeps the last query's clause until the next query, and
  // that clause names transient_atom_49: retire it so all 50 are dead.
  ASSERT_TRUE(engine.Succeeds("true").ok());

  auto removed = engine.CollectDictionary();
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_GE(*removed, 50u);

  // Everything still works after the sweep: compiled code was protected.
  auto n = engine.CountSolutions("keep(X)");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  auto again = engine.Succeeds("append([1], [2], [1, 2])");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again);
}

TEST(EngineTest, QueriesDoNotGrowTheDictionary) {
  // Each query installs a `$query` procedure; its functor must be reused,
  // not minted per query, or a long-running server's dictionary grows by
  // one entry per request with nothing to collect it.
  constexpr int kQueries = 20000;
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). q(a, b).").ok());
  // Two goal shapes (one and two variables), so queries alternate between
  // `$query` arities; the size is taken once each shape has run. Counting
  // solutions also checks that a reused functor never carries an earlier
  // query's clause along (a session's overlay over the engine's own).
  auto goal = [](int i) { return i % 2 == 0 ? "p(X)" : "q(X, Y)"; };
  auto answers = [](int i) { return i % 2 == 0 ? 2u : 1u; };
  auto count = [](auto* on, const char* goal) -> uint64_t {
    auto n = on->CountSolutions(goal);
    return n.ok() ? *n : 0;
  };
  ASSERT_EQ(count(&engine, goal(0)), answers(0));
  ASSERT_EQ(count(&engine, goal(1)), answers(1));
  const size_t after_first = engine.dictionary()->size();
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(count(&engine, goal(i)), answers(i)) << i;
  }
  EXPECT_EQ(engine.dictionary()->size(), after_first)
      << "Engine::Query leaks dictionary entries";

  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  Session* s = session->get();
  ASSERT_EQ(count(s, goal(1)), answers(1));
  ASSERT_EQ(count(s, goal(0)), answers(0));
  const size_t after_session_first = engine.dictionary()->size();
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(count(s, goal(i)), answers(i)) << i;
  }
  EXPECT_EQ(engine.dictionary()->size(), after_session_first)
      << "Session::Query leaks dictionary entries";
}

TEST(EngineTest, StoredRelativeCodeSurvivesDictionaryGc) {
  // The paper's core resilience claim (§3.1): stored code uses
  // associative addresses, so internal-dictionary GC cannot break it.
  Engine engine;
  ASSERT_TRUE(engine.StoreRulesExternal("stored(X) :- X = marker_atom.").ok());
  auto first = engine.First("stored(V)");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)["V"], "marker_atom");

  auto removed = engine.CollectDictionary();
  ASSERT_TRUE(removed.ok()) << removed.status();

  // Invalidate the loader cache by updating the stored procedure, forcing
  // a fresh decode through the external dictionary after the sweep.
  ASSERT_TRUE(engine.StoreRulesExternal("stored(second).").ok());
  auto values = engine.CountSolutions("stored(V)");
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, 2u);
  auto marker = engine.First("stored(V), V = marker_atom");
  ASSERT_TRUE(marker.ok()) << marker.status();
}

TEST(EngineTest, ExternalFactsSurviveDictionaryGc) {
  Engine engine;
  ASSERT_TRUE(engine.StoreFactsExternal("kv(alpha, 1). kv(beta, 2).").ok());
  ASSERT_TRUE(engine.CollectDictionary().ok());
  // The relation's functor id may have been swept; calling re-interns it
  // and the catalog resolves by name/arity.
  auto v = engine.First("kv(beta, V)");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ((*v)["V"], "2");
}

TEST(EngineTest, FactDecodeAfterDictionaryGcTakesTheMissPath) {
  // Decoding marks each atom it resolves, so later rows skip the name
  // round trip. The sweep removes those symbols and their marks; the next
  // decode must resolve every address afresh, even where other symbols
  // now occupy the swept slots.
  Engine engine;
  ASSERT_TRUE(engine.DeclareRelation("color", 2).ok());
  ASSERT_TRUE(engine
                  .StoreFactsExternal("color(sky, blue). color(grass, green). "
                                      "color(rose, pair(red, [pink])).")
                  .ok());
  const std::vector<std::string> expected = {"blue", "green",
                                             "pair(red,[pink])"};
  auto sorted = [](std::vector<std::string> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  ASSERT_EQ(sorted(Bindings(&engine, "color(T, C)", "C")), expected);

  ASSERT_TRUE(engine.Succeeds("true").ok());
  auto removed = engine.CollectDictionary();
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_FALSE(engine.dictionary()->Lookup("blue", 0).has_value());
  EXPECT_FALSE(engine.dictionary()->Lookup("pair", 2).has_value());
  // Refill tombstones with unrelated symbols.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        engine.dictionary()->Intern("filler" + std::to_string(i), 0).ok());
  }

  EXPECT_EQ(sorted(Bindings(&engine, "color(T, C)", "C")), expected);
  EXPECT_EQ(Bindings(&engine, "color(sky, C)", "C"),
            (std::vector<std::string>{"blue"}));
  EXPECT_EQ(Bindings(&engine, "color(rose, pair(R, [P]))", "P"),
            (std::vector<std::string>{"pink"}));
}

// At most one Solutions may be active per machine: a second Query while
// one is live must be refused, not corrupt the machine under the live
// iterator (the query server's connection handler depends on this being
// an error).
TEST(EngineTest, SecondQueryWhileSolutionsActiveIsRefused) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). p(3).").ok());

  auto first = engine.Query("p(X)");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(engine.query_active());
  ASSERT_TRUE(*(*first)->Next());
  EXPECT_EQ((*first)->Binding("X"), "1");

  auto second = engine.Query("p(Y)");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition()) << second.status();

  // The refused call must not have disturbed the live iterator.
  ASSERT_TRUE(*(*first)->Next());
  EXPECT_EQ((*first)->Binding("X"), "2");

  // Destroying the Solutions (even mid-enumeration) frees the machine.
  first->reset();
  EXPECT_FALSE(engine.query_active());
  auto count = engine.CountSolutions("p(X)");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 3u);

  // A *finished* Solutions — Next returned false — releases the machine
  // while still alive: holding it for its bindings must not block the
  // next query.
  auto done = engine.Query("p(X)");
  ASSERT_TRUE(done.ok()) << done.status();
  while (*(*done)->Next()) {
  }
  EXPECT_FALSE(engine.query_active());
  auto after = engine.Query("p(Z)");
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(*(*after)->Next());
  EXPECT_EQ((*after)->Binding("Z"), "1");
  // Destroying the stale finished Solutions now must not clobber the
  // live query's flag.
  done->reset();
  EXPECT_TRUE(engine.query_active());
}

// A directive is a query on the engine's own session, so while an
// Engine::Query Solutions is live it is refused like any second query,
// and the live iterator keeps every answer.
TEST(EngineTest, DirectiveWhileQueryLiveIsRefused) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). p(3).").ok());
  auto live = engine.Query("p(X)");
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE(*(*live)->Next());
  EXPECT_EQ((*live)->Binding("X"), "1");

  EXPECT_TRUE(engine.Consult(":- true.").IsFailedPrecondition());

  ASSERT_TRUE(*(*live)->Next());
  EXPECT_EQ((*live)->Binding("X"), "2");
  ASSERT_TRUE(*(*live)->Next());
  EXPECT_EQ((*live)->Binding("X"), "3");
  EXPECT_FALSE(*(*live)->Next());
  EXPECT_TRUE(engine.Consult(":- true.").ok());
}

// A live Engine::Query may bind atoms that only its machine's heap
// references; a sweep then would free a slot the answer still names.
TEST(EngineTest, CollectDictionaryRefusedWhileQueryLive) {
  Engine engine;
  auto live = engine.Query("atom_codes(A, \"zq_fresh_atom\"), B = A");
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE(*(*live)->Next());

  EXPECT_TRUE(engine.CollectDictionary().status().IsFailedPrecondition());
  EXPECT_EQ((*live)->Binding("A"), "zq_fresh_atom");
  EXPECT_EQ((*live)->Binding("B"), "zq_fresh_atom");

  live->reset();
  auto removed = engine.CollectDictionary();
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_GE(*removed, 1u);
}

// What the engine's own session writes (assert, retract, abolish) lands
// in its overlay and reaches the base program through a fold right
// before the base changes or freezes (DESIGN.md §10).
TEST(EngineTest, EngineAssertsSurviveALaterConsult) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ASSERT_TRUE(*engine.Succeeds("assertz(p(2))"));
  ASSERT_TRUE(engine.Consult("p(3).").ok());
  EXPECT_EQ(Bindings(&engine, "p(X)", "X"),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(EngineTest, EngineAssertIsVisibleToTheFirstSession) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1).").ok());
  ASSERT_TRUE(*engine.Succeeds("assertz(p(2)), retract(p(1))"));
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  auto first = (*session)->Query("p(X)");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(*(*first)->Next());
  EXPECT_EQ((*first)->Binding("X"), "2");
  EXPECT_FALSE(*(*first)->Next());
}

TEST(EngineTest, EngineAbolishThenConsultLeavesOnlyTheNewClauses) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("q(1). q(2).").ok());
  ASSERT_TRUE(*engine.Succeeds("abolish(q/1)"));
  // Abolished is undefined, as on the base program itself.
  EXPECT_TRUE(engine.Succeeds("q(_)").status().IsNotFound());
  ASSERT_TRUE(engine.Consult("q(9).").ok());
  EXPECT_EQ(Bindings(&engine, "q(X)", "X"), (std::vector<std::string>{"9"}));
}

TEST(EngineTest, RetractedToEmptyStaysDefinedAfterFold) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("r(1).").ok());
  ASSERT_TRUE(*engine.Succeeds("retract(r(1))"));
  ASSERT_TRUE(engine.Consult("other(1).").ok());
  auto any = engine.Succeeds("r(_)");
  ASSERT_TRUE(any.ok()) << any.status();
  EXPECT_FALSE(*any);
}

// Control constructs compile to `$aux` procedures. The base program, the
// engine's own session and each worker session draw their names from
// disjoint ranges, so a rule asserted on either side of a fold never
// shadows another's auxiliary procedure.
TEST(EngineTest, AuxProceduresFromEngineAndSessionStayDisjoint) {
  Engine engine;
  ASSERT_TRUE(engine
                  .Consult("n(1). n(-2).\n"
                           "kind(X, K) :- (X > 0 -> K = plus ; K = minus).")
                  .ok());
  ASSERT_TRUE(*engine.Succeeds(
      "assertz((sign(X, S) :- (X > 0 -> S = pos ; S = neg)))"));
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(*(*session)->Succeeds(
      "assertz((mag(X, M) :- (X > 0 -> M = X ; M is -X)))"));
  const char* goal = "findall(t(K, S, M), (n(X), kind(X, K), sign(X, S), "
                     "mag(X, M)), L)";
  auto from_session = (*session)->Query(goal);
  ASSERT_TRUE(from_session.ok()) << from_session.status();
  ASSERT_TRUE(*(*from_session)->Next());
  EXPECT_EQ((*from_session)->Binding("L"),
            "[t(plus,pos,1),t(minus,neg,2)]");
  EXPECT_EQ(
      Bindings(&engine, "findall(t(K, S), (n(X), kind(X, K), sign(X, S)), L)",
               "L"),
      (std::vector<std::string>{"[t(plus,pos),t(minus,neg)]"}));
}

TEST(EngineTest, SecondSessionQueryWhileSolutionsActiveIsRefused) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2).").ok());
  auto session = engine.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status();

  auto first = (*session)->Query("p(X)");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(*(*first)->Next());

  auto second = (*session)->Query("p(Y)");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition()) << second.status();

  first->reset();
  EXPECT_FALSE((*session)->query_active());
  auto count = (*session)->CountSolutions("p(X)");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 2u);
}

}  // namespace
}  // namespace educe
