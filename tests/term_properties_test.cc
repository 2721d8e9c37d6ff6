// Algebraic property tests on the machine's term operations: unification
// (idempotence, symmetry, import/export inverses) and the standard order
// of terms (total, antisymmetric, transitive), over randomly generated
// terms — plus a parameterized arithmetic evaluation table.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "wam/builtins.h"
#include "wam/machine.h"
#include "wam/program.h"

namespace educe::wam {
namespace {

using term::Cell;

class TermPropertyHarness {
 public:
  TermPropertyHarness() : program_(&dict_), machine_(&program_) {
    (void)InstallStandardLibrary(&program_);
    // A live query context gives us a heap to build terms on.
    auto read = reader::ParseTerm(&dict_, "true");
    (void)machine_.StartQuery(read->term, 0);
    (void)machine_.NextSolution();
  }

  term::AstPtr RandomAst(base::Rng* rng, int depth, int max_vars = 3) {
    const uint64_t pick = rng->Below(depth >= 3 ? 4 : 6);
    switch (pick) {
      case 0:
        return term::MakeInt(static_cast<int64_t>(rng->Below(100)) - 50);
      case 1:
        return term::MakeFloat(static_cast<double>(rng->Below(16)) / 4.0);
      case 2:
        return term::MakeAtom(
            *dict_.Intern("at" + std::to_string(rng->Below(6)), 0));
      case 3:
        return term::MakeVar(static_cast<uint32_t>(rng->Below(max_vars)), "");
      case 4: {
        const uint32_t arity = 1 + static_cast<uint32_t>(rng->Below(3));
        std::vector<term::AstPtr> args;
        for (uint32_t i = 0; i < arity; ++i) {
          args.push_back(RandomAst(rng, depth + 1, max_vars));
        }
        return term::MakeStruct(
            *dict_.Intern("fn" + std::to_string(rng->Below(4)), arity),
            std::move(args));
      }
      default: {
        std::vector<term::AstPtr> elements;
        for (uint64_t i = 0, n = rng->Below(3); i < n; ++i) {
          elements.push_back(RandomAst(rng, depth + 1, max_vars));
        }
        return term::MakeList(*dict_.Intern(".", 2), elements,
                              term::MakeAtom(*dict_.Intern("[]", 0)));
      }
    }
  }

  Cell Import(const term::AstPtr& t, std::vector<Cell>* vars) {
    return std::move(machine_.ImportAst(*t, vars)).value();
  }

  std::string Render(Cell c) {
    std::map<uint64_t, uint32_t> var_map;
    return reader::WriteTerm(dict_, *machine_.ExportCell(c, &var_map));
  }

  dict::Dictionary dict_;
  Program program_;
  Machine machine_;
};

class UnifyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnifyPropertyTest, ReflexiveSymmetricAndStable) {
  TermPropertyHarness h;
  base::Rng rng(GetParam());

  for (int trial = 0; trial < 200; ++trial) {
    term::AstPtr a_ast = h.RandomAst(&rng, 0);
    term::AstPtr b_ast = h.RandomAst(&rng, 0);

    // Reflexivity: every term unifies with a fresh copy of itself, and
    // unification binds nothing new when the copies share no variables...
    {
      std::vector<Cell> vars;
      Cell a = h.Import(a_ast, &vars);
      const size_t mark = h.machine_.TrailMark();
      EXPECT_TRUE(h.machine_.Unify(a, a)) << h.Render(a);
      EXPECT_EQ(h.machine_.TrailMark(), mark) << "self-unify must not bind";
    }

    // Symmetry: unify(a, b) and unify(b, a) agree, and when both succeed
    // they produce the same instantiation of a distinguished variable set.
    auto attempt = [&](bool flip) {
      std::vector<Cell> va, vb;
      Cell a = h.Import(a_ast, &va);
      Cell b = h.Import(b_ast, &vb);
      const size_t mark = h.machine_.TrailMark();
      const bool ok =
          flip ? h.machine_.Unify(b, a) : h.machine_.Unify(a, b);
      std::string witness = ok ? h.Render(a) : "";
      h.machine_.UndoTo(mark);
      return std::make_pair(ok, witness);
    };
    const auto [ok_ab, w_ab] = attempt(false);
    const auto [ok_ba, w_ba] = attempt(true);
    EXPECT_EQ(ok_ab, ok_ba) << "a=" << w_ab << " b=" << w_ba;
    if (ok_ab && ok_ba) {
      EXPECT_EQ(w_ab, w_ba);
    }

    // Undo restores unboundness: after UndoTo, the same pair unifies the
    // same way again (no residue).
    const auto [ok2, w2] = attempt(false);
    EXPECT_EQ(ok2, ok_ab);
    if (ok2) {
      EXPECT_EQ(w2, w_ab);
    }
  }
}

TEST_P(UnifyPropertyTest, ExportImportRoundTrips) {
  TermPropertyHarness h;
  base::Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 200; ++trial) {
    term::AstPtr ast = h.RandomAst(&rng, 0);
    std::vector<Cell> vars;
    Cell a = h.Import(ast, &vars);
    // export(import(t)) renders identically to a re-import of the export.
    std::map<uint64_t, uint32_t> var_map;
    term::AstPtr exported = h.machine_.ExportCell(a, &var_map);
    std::vector<Cell> vars2;
    Cell b = h.Import(exported, &vars2);
    EXPECT_EQ(h.Render(a), h.Render(b));
    // And the copies unify (they are structurally identical).
    EXPECT_TRUE(h.machine_.Unify(a, b));
  }
}

TEST_P(UnifyPropertyTest, StandardOrderIsATotalOrder) {
  TermPropertyHarness h;
  base::Rng rng(GetParam() + 2000);

  std::vector<Cell> terms;
  std::vector<Cell> dummy;
  for (int i = 0; i < 40; ++i) {
    // Ground terms only: variable order is identity-based and valid, but
    // comparisons between runs are cleaner on ground terms.
    term::AstPtr ast = h.RandomAst(&rng, 0, 1);
    std::vector<Cell> vars;
    terms.push_back(h.Import(ast, &vars));
  }

  auto cmp = [&](Cell a, Cell b) { return h.machine_.Compare(a, b); };
  for (const Cell& a : terms) {
    EXPECT_EQ(cmp(a, a), 0);
    for (const Cell& b : terms) {
      // Antisymmetry.
      EXPECT_EQ(cmp(a, b), -cmp(b, a)) << h.Render(a) << " vs " << h.Render(b);
      for (const Cell& c : terms) {
        // Transitivity (on the <= relation).
        if (cmp(a, b) <= 0 && cmp(b, c) <= 0) {
          EXPECT_LE(cmp(a, c), 0)
              << h.Render(a) << " / " << h.Render(b) << " / " << h.Render(c);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifyPropertyTest,
                         ::testing::Values(1, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Arithmetic evaluation table (via the full engine pipeline).
// ---------------------------------------------------------------------------

struct ArithCase {
  const char* expr;
  const char* expected;  // rendered result
};

// Print the case as text: gtest would otherwise print the two pointers'
// bytes, and ctest names each case after that print, so the names would
// change with every process.
void PrintTo(const ArithCase& c, std::ostream* os) {
  *os << c.expr << " => " << c.expected;
}

class ArithmeticTableTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ArithmeticTableTest, Evaluates) {
  dict::Dictionary dict;
  Program program(&dict);
  ASSERT_TRUE(InstallStandardLibrary(&program).ok());
  Machine machine(&program);
  auto read = reader::ParseTerm(
      &dict, std::string("X is ") + GetParam().expr);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_TRUE(machine.StartQuery(read->term, read->num_vars).ok());
  auto more = machine.NextSolution();
  ASSERT_TRUE(more.ok()) << more.status() << " for " << GetParam().expr;
  ASSERT_TRUE(*more) << GetParam().expr;
  std::map<uint64_t, uint32_t> var_map;
  EXPECT_EQ(reader::WriteTerm(dict, *machine.ExportVar(0, &var_map)),
            GetParam().expected)
      << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ArithmeticTableTest,
    ::testing::Values(
        ArithCase{"1 + 2", "3"}, ArithCase{"2 - 5", "-3"},
        ArithCase{"6 * 7", "42"}, ArithCase{"1 + 2 * 3", "7"},
        ArithCase{"(1 + 2) * 3", "9"}, ArithCase{"7 // 2", "3"},
        ArithCase{"-7 // 2", "-4"}, ArithCase{"7 rem 2", "1"},
        ArithCase{"-7 rem 2", "-1"}, ArithCase{"-7 mod 2", "1"},
        ArithCase{"min(2, -3)", "-3"}, ArithCase{"max(2, -3)", "2"},
        ArithCase{"abs(-9)", "9"}, ArithCase{"sign(-9)", "-1"},
        ArithCase{"2 ^ 16", "65536"}, ArithCase{"1 << 10", "1024"},
        ArithCase{"1024 >> 3", "128"}, ArithCase{"12 /\\ 10", "8"},
        ArithCase{"12 \\/ 10", "14"}, ArithCase{"12 xor 10", "6"},
        ArithCase{"\\ 0", "-1"}, ArithCase{"1.5 + 0.25", "1.75"},
        ArithCase{"2 * 1.5", "3.0"}, ArithCase{"float(2)", "2.0"},
        ArithCase{"truncate(3.9)", "3"}, ArithCase{"floor(3.9)", "3"},
        ArithCase{"ceiling(3.1)", "4"}, ArithCase{"round(3.5)", "4"},
        ArithCase{"integer(-3.9)", "-3"}, ArithCase{"sqrt(16.0)", "4.0"},
        ArithCase{"10 / 4", "2.5"}, ArithCase{"10 / 5", "2"},
        ArithCase{"- (3 + 4)", "-7"}, ArithCase{"+(5)", "5"}));

}  // namespace
}  // namespace educe::wam
