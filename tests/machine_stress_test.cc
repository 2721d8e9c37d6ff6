#include "reader/parser.h"
// Stress and property tests for the emulator under memory pressure: the
// sliding GC (paper §3.3.2) must be semantically invisible — any program
// gives identical answers under a tiny collection threshold (GC invoked
// constantly) and under a threshold so large it never fires.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "educe/engine.h"

namespace educe {
namespace {

std::vector<std::string> RunWithGc(const std::string& program,
                                   const std::string& query,
                                   size_t gc_threshold,
                             uint64_t* gc_runs) {
  EngineOptions options;
  options.machine.gc_threshold_cells = gc_threshold;
  Engine engine(options);
  EXPECT_TRUE(engine.Consult(program).ok());
  std::vector<std::string> out;
  auto q = engine.Query(query);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return out;
  auto parsed = reader::ParseTerm(engine.dictionary(), query);
  while (out.size() < 500) {
    auto more = (*q)->Next();
    EXPECT_TRUE(more.ok()) << more.status();
    if (!more.ok() || !*more) break;
    std::string solution;
    for (const auto& [name, index] : parsed->var_names) {
      solution += name + "=" + (*q)->Binding(name) + " ";
    }
    out.push_back(std::move(solution));
  }
  // Stats() counts retired queries only: retire this one first.
  q->reset();
  *gc_runs = engine.Stats().machine.gc_runs;
  return out;
}

struct Scenario {
  const char* name;
  const char* program;
  const char* query;
};

class GcTransparencyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(GcTransparencyTest, AnswersIdenticalUnderConstantCollection) {
  const Scenario& s = GetParam();
  uint64_t tiny_runs = 0, huge_runs = 0;
  const auto with_gc = RunWithGc(s.program, s.query, 2048, &tiny_runs);
  const auto without_gc = RunWithGc(s.program, s.query, 1u << 26, &huge_runs);
  EXPECT_EQ(with_gc, without_gc) << s.name;
  EXPECT_GT(tiny_runs, 0u) << s.name << ": GC never fired; weak test";
  EXPECT_EQ(huge_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GcTransparencyTest,
    ::testing::Values(
        Scenario{"nrev",
                 R"(make(0, []) :- !.
                    make(N, [N|T]) :- M is N - 1, make(M, T).
                    nrev([], []).
                    nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).)",
                 "make(150, L), nrev(L, R), R = [F|_], F = 1"},
        Scenario{"backtracking-over-structures",
                 R"(make(0, []) :- !.
                    make(N, [s(N)|T]) :- M is N - 1, make(M, T).
                    pick(X, F) :- member(X, [1,2,3,4,5]),
                                  make(800, L), L = [F|_].)",
                 "pick(X, F)"},
        Scenario{"findall-under-pressure",
                 R"(gen(X) :- between(1, 1500, X).
                    blow(L) :- findall(f(X, [X]), gen(X), L).)",
                 "blow(L), length(L, N)"},
        Scenario{"deep-shared-tails",
                 R"(dup(0, _, []) :- !.
                    dup(N, E, [E|T]) :- M is N - 1, dup(M, E, T).
                    share(L) :- dup(900, shared(a, [1,2,3]), L).)",
                 "share(L), member(X, L)"}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MachineStressTest, ManySequentialQueriesDoNotLeakState) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("p(1). p(2). p(3).").ok());
  for (int i = 0; i < 300; ++i) {
    auto n = engine.CountSolutions("p(X), X > 1");
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 2u);
  }
}

TEST(MachineStressTest, WideFactsAndManyArgs) {
  Engine engine;
  // Arity near the supported limit, deterministic retrieval by arg 1.
  std::string program;
  for (int i = 0; i < 30; ++i) {
    program += "wide(k" + std::to_string(i);
    for (int a = 1; a < 20; ++a) {
      program += ", v" + std::to_string(i) + "_" + std::to_string(a);
    }
    program += ").\n";
  }
  ASSERT_TRUE(engine.Consult(program).ok());
  auto first = engine.First("wide(k7, A1, A2, A3, A4, A5, A6, A7, A8, A9, "
                            "A10, A11, A12, A13, A14, A15, A16, A17, A18, "
                            "A19)");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ((*first)["A19"], "v7_19");
}

TEST(MachineStressTest, RetractDuringBacktrackingIsSafe) {
  // The shared_ptr code retention must keep in-flight clauses alive when
  // the procedure is modified mid-derivation.
  Engine engine;
  ASSERT_TRUE(engine.Consult(R"(
    d(1). d(2). d(3). d(4).
    sweep(X) :- d(X), retract(d(X)).
  )").ok());
  auto n = engine.CountSolutions("sweep(X)");
  ASSERT_TRUE(n.ok()) << n.status();
  // Each solution retracts its own clause; the scan was linked before the
  // first retract, so all four original clauses are visited (logical
  // update view of the frozen procedure).
  EXPECT_EQ(*n, 4u);
  auto rest = engine.CountSolutions("d(X)");
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(*rest, 0u);
}

TEST(MachineStressTest, AssertDuringEnumerationSeesFrozenProcedure) {
  Engine engine;
  ASSERT_TRUE(engine.Consult("e(1). e(2).").ok());
  // Asserting while enumerating must not loop forever: the running call
  // uses the linked code from call time (the paper's "freeze the
  // definition of the procedure ... avoiding possible inconsistencies").
  auto n = engine.CountSolutions("e(X), X < 10, assert(e(99))");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  auto after = engine.CountSolutions("e(X)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 4u);  // 1, 2, 99, 99
}

TEST(MachineStressTest, RandomChurnAgreesAcrossGcSettings) {
  base::Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    // Random list-manipulation pipeline.
    const int n = 20 + static_cast<int>(rng.Below(60));
    const std::string program = R"(
      make(0, []) :- !.
      make(N, [N|T]) :- M is N - 1, make(M, T).
      stepper([], A, A).
      stepper([H|T], A, R) :- H2 is H * 3 mod 17, stepper(T, [H2|A], R).
    )";
    const std::string query = "make(" + std::to_string(n) +
                              ", L), stepper(L, [], R), msort(R, S), "
                              "S = [First|_]";
    uint64_t runs_tiny = 0, runs_huge = 0;
    const auto a = RunWithGc(program, query, 1024, &runs_tiny);
    const auto b = RunWithGc(program, query, 1u << 26, &runs_huge);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

}  // namespace
}  // namespace educe
