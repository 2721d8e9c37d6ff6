// Tests for the extended builtin set and bootstrap library (sorting,
// all-solutions, list higher-order predicates, directives).

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "educe/engine.h"

namespace educe {
namespace {

class BuiltinsTest : public ::testing::Test {
 protected:
  std::vector<std::string> Solve(std::string_view goal, std::string_view var,
                                 int max = 100) {
    auto q = engine_.Query(goal);
    EXPECT_TRUE(q.ok()) << q.status();
    std::vector<std::string> out;
    if (!q.ok()) return out;
    while (static_cast<int>(out.size()) < max) {
      auto more = (*q)->Next();
      EXPECT_TRUE(more.ok()) << more.status() << " for " << goal;
      if (!more.ok() || !*more) break;
      out.push_back((*q)->Binding(var));
    }
    return out;
  }

  bool Succeeds(std::string_view goal) {
    auto ok = engine_.Succeeds(goal);
    EXPECT_TRUE(ok.ok()) << ok.status() << " for " << goal;
    return ok.ok() && *ok;
  }

  Engine engine_;
};

TEST_F(BuiltinsTest, SortDedupsAndOrders) {
  EXPECT_EQ(Solve("sort([c, 3, a, 1, b, a, 2.5, f(x), 1], S)", "S"),
            (std::vector<std::string>{"[1,2.5,3,a,b,c,f(x)]"}));
  EXPECT_EQ(Solve("msort([b, a, b], S)", "S"),
            (std::vector<std::string>{"[a,b,b]"}));
  EXPECT_EQ(Solve("sort([], S)", "S"), (std::vector<std::string>{"[]"}));
}

// Terms rebuilt from an AST (copy_term, findall results) keep lists as
// list cells, so they still unify with [H|T].
TEST_F(BuiltinsTest, RebuiltListsStayLists) {
  EXPECT_EQ(Solve("copy_term([a, b], X), X = [H|T]", "T"),
            (std::vector<std::string>{"[b]"}));
  EXPECT_EQ(Solve("findall(L, L = [a, b], R), R = [[H|T]]", "T"),
            (std::vector<std::string>{"[b]"}));
  EXPECT_TRUE(Succeeds("copy_term(f([a]), Y), Y = f([_|[]])"));
}

TEST_F(BuiltinsTest, SortUsesStandardOrder) {
  // Var < Number < Atom < Compound; floats before equal ints.
  EXPECT_EQ(Solve("msort([f(1), foo, 2, 1.5], S)", "S"),
            (std::vector<std::string>{"[1.5,2,foo,f(1)]"}));
}

TEST_F(BuiltinsTest, Keysort) {
  EXPECT_EQ(Solve("keysort([b-2, a-1, b-0, a-9], S)", "S"),
            (std::vector<std::string>{"[a - 1,a - 9,b - 2,b - 0]"}));
  auto q = engine_.Query("keysort([notapair], S)");
  ASSERT_TRUE(q.ok());
  auto more = (*q)->Next();
  EXPECT_FALSE(more.ok());
}

TEST_F(BuiltinsTest, Succ) {
  EXPECT_EQ(Solve("succ(3, X)", "X"), (std::vector<std::string>{"4"}));
  EXPECT_EQ(Solve("succ(X, 4)", "X"), (std::vector<std::string>{"3"}));
  EXPECT_FALSE(Succeeds("succ(X, 0)"));
}

TEST_F(BuiltinsTest, SetofBagof) {
  ASSERT_TRUE(engine_.Consult("p(2). p(1). p(2). p(3).").ok());
  EXPECT_EQ(Solve("setof(X, p(X), L)", "L"),
            (std::vector<std::string>{"[1,2,3]"}));
  EXPECT_EQ(Solve("bagof(X, p(X), L)", "L"),
            (std::vector<std::string>{"[2,1,2,3]"}));
  // bagof fails (rather than giving []) when there are no solutions.
  EXPECT_FALSE(Succeeds("bagof(X, fail, L)"));
  // Caret witnesses are stripped (simplified semantics).
  ASSERT_TRUE(engine_.Consult("q(1, a). q(2, b).").ok());
  EXPECT_EQ(Solve("setof(X, Y^q(X, Y), L)", "L"),
            (std::vector<std::string>{"[1,2]"}));
}

TEST_F(BuiltinsTest, AggregateAll) {
  ASSERT_TRUE(engine_.Consult("v(10). v(20). v(5).").ok());
  EXPECT_EQ(Solve("aggregate_all(count, v(_), N)", "N"),
            (std::vector<std::string>{"3"}));
  EXPECT_EQ(Solve("aggregate_all(sum(X), v(X), S)", "S"),
            (std::vector<std::string>{"35"}));
  EXPECT_EQ(Solve("aggregate_all(max(X), v(X), M)", "M"),
            (std::vector<std::string>{"20"}));
  EXPECT_EQ(Solve("aggregate_all(min(X), v(X), M)", "M"),
            (std::vector<std::string>{"5"}));
  EXPECT_EQ(Solve("aggregate_all(count, fail, N)", "N"),
            (std::vector<std::string>{"0"}));
}

TEST_F(BuiltinsTest, Numlist) {
  EXPECT_EQ(Solve("numlist(3, 7, L)", "L"),
            (std::vector<std::string>{"[3,4,5,6,7]"}));
  EXPECT_EQ(Solve("numlist(5, 4, L)", "L"),
            (std::vector<std::string>{"[]"}));
}

TEST_F(BuiltinsTest, HigherOrderListPredicates) {
  ASSERT_TRUE(engine_.Consult("even(X) :- 0 =:= X mod 2.").ok());
  EXPECT_EQ(Solve("include(even, [1,2,3,4,5,6], L)", "L"),
            (std::vector<std::string>{"[2,4,6]"}));
  EXPECT_EQ(Solve("exclude(even, [1,2,3,4,5,6], L)", "L"),
            (std::vector<std::string>{"[1,3,5]"}));
  ASSERT_TRUE(engine_.Consult("double(X, Y) :- Y is X * 2.").ok());
  EXPECT_EQ(Solve("maplist(double, [1,2,3], L)", "L"),
            (std::vector<std::string>{"[2,4,6]"}));
  EXPECT_TRUE(Succeeds("maplist(even, [2,4])"));
  EXPECT_FALSE(Succeeds("maplist(even, [2,3])"));
}

TEST_F(BuiltinsTest, Once) {
  ASSERT_TRUE(engine_.Consult("c(1). c(2).").ok());
  EXPECT_EQ(Solve("once(c(X))", "X"), (std::vector<std::string>{"1"}));
}

TEST_F(BuiltinsTest, DirectivesRunAtConsult) {
  ASSERT_TRUE(engine_.Consult(R"(
    :- dynamic(counter/1).
    :- assert(counter(0)).
    :- dynamic bump/0.
    bump :- retract(counter(N)), N1 is N + 1, assert(counter(N1)).
  )").ok());
  EXPECT_EQ(Solve("counter(N)", "N"), (std::vector<std::string>{"0"}));
  EXPECT_TRUE(Succeeds("bump, bump, bump"));
  EXPECT_EQ(Solve("counter(N)", "N"), (std::vector<std::string>{"3"}));
}

TEST_F(BuiltinsTest, FailingDirectiveReportsError) {
  auto st = engine_.Consult(":- fail.");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("directive failed"), std::string::npos);
}

TEST_F(BuiltinsTest, SortOverExternalFacts) {
  ASSERT_TRUE(engine_.StoreFactsExternal("m(9). m(4). m(7).").ok());
  EXPECT_EQ(Solve("findall(X, m(X), L0), msort(L0, L)", "L"),
            (std::vector<std::string>{"[4,7,9]"}));
}


TEST_F(BuiltinsTest, ListingPrintsClauses) {
  ASSERT_TRUE(engine_.Consult("lp(1). lp(X) :- X > 0.").ok());
  std::ostringstream out;
  engine_.machine()->set_output(&out);
  EXPECT_TRUE(Succeeds("listing(lp/1)"));
  EXPECT_NE(out.str().find("lp(1)."), std::string::npos);
  EXPECT_NE(out.str().find(":-"), std::string::npos);
  engine_.machine()->set_output(&std::cout);
}

TEST_F(BuiltinsTest, StatisticsExposesCounters) {
  ASSERT_TRUE(engine_.Consult("s(1). s(2).").ok());
  auto n = engine_.First("s(_), s(_), statistics(inferences, N)");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_GT(std::stoll((*n)["N"]), 0);
  auto heap = engine_.First("statistics(heap_cells, H)");
  ASSERT_TRUE(heap.ok());
  EXPECT_GT(std::stoll((*heap)["H"]), 0);
  auto bad = engine_.Query("statistics(nonsense, V)");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE((*bad)->Next().ok());
}

}  // namespace
}  // namespace educe
