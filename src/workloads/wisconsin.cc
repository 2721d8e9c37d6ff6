#include "workloads/wisconsin.h"

#include <numeric>

#include "base/result.h"
#include "base/rng.h"
#include "dict/dictionary.h"
#include "edb/clause_store.h"
#include "term/ast.h"

namespace educe::workloads {

namespace {

/// The benchmark's string derivation: a 52-char string whose first seven
/// characters cycle through A..Z based on the driving integer.
std::string MakeString(int64_t value) {
  std::string s(52, 'x');
  for (int i = 6; i >= 0; --i) {
    s[i] = static_cast<char>('A' + (value % 26));
    value /= 26;
  }
  return s;
}

}  // namespace

std::vector<WisconsinWorkload::Row> WisconsinWorkload::Rows(int64_t rows,
                                                            uint64_t seed) {
  std::vector<int64_t> unique1(rows);
  std::iota(unique1.begin(), unique1.end(), 0);
  base::Rng rng(seed);
  for (int64_t i = rows - 1; i > 0; --i) {
    std::swap(unique1[i], unique1[rng.Below(static_cast<uint64_t>(i + 1))]);
  }

  static const char* kString4[] = {"AAAA", "HHHH", "OOOO", "VVVV"};
  std::vector<Row> out;
  out.reserve(rows);
  for (int64_t unique2 = 0; unique2 < rows; ++unique2) {
    const int64_t u1 = unique1[unique2];
    out.push_back(Row{
        {u1, unique2, u1 % 2, u1 % 4, u1 % 10, u1 % 20, u1 % 100, u1 % 10,
         u1 % 5, u1 % 2, u1, (u1 % 100) * 2, (u1 % 100) * 2 + 1},
        {MakeString(u1), MakeString(unique2),
         std::string(kString4[unique2 % 4]) + std::string(48, 'x')},
    });
  }
  return out;
}

base::Status WisconsinWorkload::Store(Engine* engine, std::string_view name,
                                      int64_t rows, uint64_t seed) {
  dict::Dictionary* dictionary = engine->dictionary();
  EDUCE_ASSIGN_OR_RETURN(const dict::SymbolId functor,
                         dictionary->Intern(name, kArity));
  edb::ClauseStore* store = engine->clause_store();
  // One commit for the declare and every row (DESIGN.md §17.1).
  return store->CommitAfter([&]() -> base::Status {
    edb::ProcedureInfo* proc = store->Find(name, kArity);
    if (proc == nullptr) {
      EDUCE_ASSIGN_OR_RETURN(
          proc, store->Declare(name, kArity, edb::ProcedureMode::kFacts,
                               {kUnique1, kUnique2}));
    }
    for (const Row& row : Rows(rows, seed)) {
      std::vector<term::AstPtr> args;
      args.reserve(kArity);
      for (const int64_t value : row.ints) args.push_back(term::MakeInt(value));
      for (const std::string& text : row.strings) {
        EDUCE_ASSIGN_OR_RETURN(const dict::SymbolId atom,
                               dictionary->Intern(text, 0));
        args.push_back(term::MakeAtom(atom));
      }
      const term::AstPtr fact = term::MakeStruct(functor, std::move(args));
      EDUCE_RETURN_IF_ERROR(store->StoreFact(proc, *fact));
    }
    return base::Status::OK();
  });
}

std::string WisconsinWorkload::Goal(
    std::string_view name,
    const std::vector<std::pair<Column, std::string>>& args) {
  std::array<std::string, kArity> text;
  text.fill("_");
  for (const auto& [column, value] : args) text[column] = value;
  std::string goal(name);
  for (uint32_t i = 0; i < kArity; ++i) {
    goal += i == 0 ? "(" : ", ";
    goal += text[i];
  }
  return goal + ")";
}

}  // namespace educe::workloads
