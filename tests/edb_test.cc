#include <gtest/gtest.h>

#include <string>

#include "edb/clause_store.h"
#include "edb/code_codec.h"
#include "edb/external_dictionary.h"
#include "edb/loader.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "wam/builtins.h"
#include "wam/program.h"

namespace educe::edb {
namespace {

class EdbTest : public ::testing::Test {
 protected:
  EdbTest()
      : pool_(&file_, 128),
        program_(&dict_),
        external_(std::move(ExternalDictionary::Create(&pool_)).value()),
        codec_(&dict_, &external_, program_.builtins()),
        store_(&pool_, &external_, &codec_, &dict_) {
    EXPECT_TRUE(wam::InstallStandardLibrary(&program_).ok());
  }

  term::AstPtr Parse(std::string_view text) {
    auto read = reader::ParseTerm(&dict_, text);
    EXPECT_TRUE(read.ok()) << read.status();
    return read.ok() ? read->term : nullptr;
  }

  wam::ClauseCode CompileOne(std::string_view clause_text) {
    auto clause = Parse(clause_text);
    auto compiled = program_.compiler()->Compile(clause);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    return (*compiled)[0].code;
  }

  storage::PagedFile file_;
  storage::BufferPool pool_;
  dict::Dictionary dict_;
  wam::Program program_;
  ExternalDictionary external_;
  CodeCodec codec_;
  ClauseStore store_;
};

TEST_F(EdbTest, ExternalDictionaryRoundTrip) {
  auto h1 = external_.Ensure("foo", 2);
  ASSERT_TRUE(h1.ok());
  auto h2 = external_.Ensure("foo", 2);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(*h1, *h2);
  EXPECT_EQ(external_.entry_count(), 1u);

  auto resolved = external_.Resolve(*h1);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->first, "foo");
  EXPECT_EQ(resolved->second, 2u);

  EXPECT_FALSE(external_.Resolve(0xDEADBEEFull).ok());
}

TEST_F(EdbTest, ExternalHashIsDeterministic) {
  // The associative address must be stable across sessions: it only
  // depends on name and arity.
  EXPECT_EQ(ExternalDictionary::HashOf("p", 3),
            ExternalDictionary::HashOf("p", 3));
  EXPECT_NE(ExternalDictionary::HashOf("p", 3),
            ExternalDictionary::HashOf("p", 2));
  EXPECT_NE(ExternalDictionary::HashOf("p", 3),
            ExternalDictionary::HashOf("q", 3));
}

TEST_F(EdbTest, ClauseCodeRoundTrip) {
  const wam::ClauseCode code =
      CompileOne("route(X, Y, T) :- conn(X, Y, D), D >= T.");
  auto bytes = codec_.EncodeClause(code);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  auto decoded = codec_.DecodeClause(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->code.size(), code.code.size());
  EXPECT_EQ(decoded->num_permanent, code.num_permanent);
  EXPECT_EQ(decoded->needs_environment, code.needs_environment);
  EXPECT_EQ(static_cast<int>(decoded->key.type),
            static_cast<int>(code.key.type));
  // Same dictionary in this test, so decode resolves to identical ids and
  // the disassembly matches exactly.
  EXPECT_EQ(wam::Disassemble(dict_, decoded->code),
            wam::Disassemble(dict_, code.code));
}

TEST_F(EdbTest, ClauseCodeSurvivesFreshDictionary) {
  // The point of relative code (paper §3.1): load into a *different*
  // internal dictionary (new session) and get equivalent code.
  const wam::ClauseCode code = CompileOne("p(foo, N) :- q(N), N > 3.");
  auto bytes = codec_.EncodeClause(code);
  ASSERT_TRUE(bytes.ok());

  dict::Dictionary fresh_dict;
  wam::Program fresh_program(&fresh_dict);
  ASSERT_TRUE(wam::InstallStandardLibrary(&fresh_program).ok());
  CodeCodec fresh_codec(&fresh_dict, &external_, fresh_program.builtins());
  auto decoded = fresh_codec.DecodeClause(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Disassembly against the fresh dictionary shows the same names.
  const std::string text = wam::Disassemble(fresh_dict, decoded->code);
  EXPECT_NE(text.find("get_constant foo/0"), std::string::npos);
  EXPECT_NE(text.find("call q/1"), std::string::npos);
}

TEST_F(EdbTest, GroundTermRoundTrip) {
  for (const char* text :
       {"point(1, 2)", "nested(f(g(h)), [a, b, [c]])", "atom", "s(3.5, -2)",
        "schedule(u6, 480, stop(marienplatz, 2))"}) {
    auto term = Parse(text);
    auto bytes = codec_.EncodeGroundTerm(*term);
    ASSERT_TRUE(bytes.ok()) << bytes.status() << " for " << text;
    auto decoded = codec_.DecodeTerm(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(term::AstEquals(*term, **decoded)) << text;
  }
}

TEST_F(EdbTest, GroundTermRejectsVariables) {
  auto term = Parse("f(X)");
  EXPECT_FALSE(codec_.EncodeGroundTerm(*term).ok());
}

TEST_F(EdbTest, FactStoreAndScan) {
  auto proc = store_.Declare("edge", 2, ProcedureMode::kFacts);
  ASSERT_TRUE(proc.ok());
  for (const char* f : {"edge(a, b)", "edge(a, c)", "edge(b, c)"}) {
    ASSERT_TRUE(store_.StoreFact(*proc, *Parse(f)).ok());
  }

  // Bound first argument.
  CallPattern pattern(2);
  pattern[0] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("a", 0)};
  auto matches = store_.CollectFacts(*proc, pattern);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->size(), 2u);
  for (const ClauseStore::FactRow& row : *matches) {
    auto fact = codec_.DecodeTerm(row.payload);
    ASSERT_TRUE(fact.ok()) << fact.status();
    EXPECT_EQ(dict_.NameOf((*fact)->args[0]->functor), "a");
  }

  // Fully bound: exactly one.
  pattern[1] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("c", 0)};
  auto exact = store_.CollectFacts(*proc, pattern);
  ASSERT_TRUE(exact.ok()) << exact.status();
  ASSERT_EQ(exact->size(), 1u);
  auto fact = codec_.DecodeTerm((*exact)[0].payload);
  ASSERT_TRUE(fact.ok()) << fact.status();
  EXPECT_EQ(dict_.NameOf((*fact)->args[1]->functor), "c");
}

TEST_F(EdbTest, FactStoreRejectsNonGround) {
  auto proc = store_.Declare("r", 1, ProcedureMode::kFacts);
  ASSERT_TRUE(proc.ok());
  EXPECT_FALSE(store_.StoreFact(*proc, *Parse("r(X)")).ok());
}

TEST_F(EdbTest, CompiledRuleStoreAndFetch) {
  auto proc = store_.Declare("p", 2, ProcedureMode::kCompiledRules);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(
      store_.StoreRuleCompiled(*proc, CompileOne("p(a, 1).")).ok());
  ASSERT_TRUE(
      store_.StoreRuleCompiled(*proc, CompileOne("p(b, 2).")).ok());
  ASSERT_TRUE(
      store_.StoreRuleCompiled(*proc, CompileOne("p(X, 3) :- q(X).")).ok());

  // No pattern: everything, in clause order.
  auto all = store_.FetchRules(*proc, nullptr, false);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);

  // Bound first arg 'a': clause 1 (key match) + clause 3 (var head).
  CallPattern pattern(2);
  pattern[0] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("a", 0)};
  auto filtered = store_.FetchRules(*proc, &pattern, true);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 2u);
}

TEST_F(EdbTest, PreUnificationFiltersDeeperArgs) {
  auto proc = store_.Declare("m", 2, ProcedureMode::kCompiledRules);
  ASSERT_TRUE(proc.ok());
  // All clauses share the same first argument, differing in the second:
  // first-arg keys cannot discriminate, pre-unification must.
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("m(k, red).")).ok());
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("m(k, green).")).ok());
  ASSERT_TRUE(
      store_.StoreRuleCompiled(*proc, CompileOne("m(k, f(1)) :- t.")).ok());

  CallPattern pattern(2);
  pattern[0] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("k", 0)};
  pattern[1] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("green", 0)};
  store_.ResetStats();
  auto filtered = store_.FetchRules(*proc, &pattern, true);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 1u);
  EXPECT_EQ(store_.stats().preunify_filtered, 2u);

  // Without pre-unification, all three candidates ship.
  auto unfiltered = store_.FetchRules(*proc, &pattern, false);
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_EQ(unfiltered->size(), 3u);

  // Struct second arg.
  pattern[1] = ArgSummary{ArgSummary::Kind::kStruct,
                          ExternalDictionary::HashOf("f", 1)};
  auto structs = store_.FetchRules(*proc, &pattern, true);
  ASSERT_TRUE(structs.ok());
  EXPECT_EQ(structs->size(), 1u);
}

TEST_F(EdbTest, PreUnifyIsNecessaryNotSufficient) {
  // Nested argument values are not checked: clauses may survive the
  // filter and still fail full unification (paper §4).
  const wam::ClauseCode code = CompileOne("w(g(1)).");
  auto bytes = codec_.EncodeClause(code);
  ASSERT_TRUE(bytes.ok());

  CallPattern pattern(1);
  pattern[0] = ArgSummary{ArgSummary::Kind::kStruct,
                          ExternalDictionary::HashOf("g", 1)};
  auto match = ClauseStore::PreUnify(*bytes, pattern);
  ASSERT_TRUE(match.ok());
  EXPECT_TRUE(*match);  // g(2) would also pass: only the functor is seen
}

TEST_F(EdbTest, LoaderCachesAndInvalidates) {
  auto proc = store_.Declare("lp", 1, ProcedureMode::kCompiledRules);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("lp(1).")).ok());

  Loader loader(&store_, &codec_);
  auto functor = dict_.Intern("lp", 1);
  ASSERT_TRUE(functor.ok());

  auto first = loader.Load(*proc, *functor);
  ASSERT_TRUE(first.ok());
  auto second = loader.Load(*proc, *functor);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // cache hit
  EXPECT_EQ(loader.stats().cache_hits, 1u);

  // Update invalidates.
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("lp(2).")).ok());
  auto third = loader.Load(*proc, *functor);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());
  EXPECT_EQ(loader.stats().loads, 2u);
}

TEST_F(EdbTest, LoaderAddsControlCode) {
  auto proc = store_.Declare("c3", 1, ProcedureMode::kCompiledRules);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("c3(a).")).ok());
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("c3(b).")).ok());
  ASSERT_TRUE(store_.StoreRuleCompiled(*proc, CompileOne("c3(X) :- v(X).")).ok());

  Loader loader(&store_, &codec_);
  auto functor = dict_.Intern("c3", 1);
  ASSERT_TRUE(functor.ok());
  auto linked = loader.Load(*proc, *functor);
  ASSERT_TRUE(linked.ok());
  const std::string text =
      wam::Disassemble(dict_, (*linked)->code, &(*linked)->tables);
  // The stored clauses had no control opcodes; the loader added them.
  EXPECT_NE(text.find("switch_on_term"), std::string::npos);
  EXPECT_NE(text.find("try"), std::string::npos);
}

TEST_F(EdbTest, SourceRulesStoredAsText) {
  auto proc = store_.Declare("sr", 1, ProcedureMode::kSourceRules);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE(store_.StoreRuleSource(*proc, "sr(X) :- X > 0 .").ok());
  ASSERT_TRUE(store_.StoreRuleSource(*proc, "sr(0) .").ok());
  auto all = store_.FetchRules(*proc, nullptr, false);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  // Payloads are re-parseable text.
  auto parsed = reader::ParseTerm(&dict_, (*all)[0]);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
}

TEST_F(EdbTest, DeclareRejectsDuplicates) {
  ASSERT_TRUE(store_.Declare("dup", 1, ProcedureMode::kFacts).ok());
  EXPECT_FALSE(store_.Declare("dup", 1, ProcedureMode::kFacts).ok());
  // Same name, different arity is a different procedure.
  EXPECT_TRUE(store_.Declare("dup", 2, ProcedureMode::kFacts).ok());
}

TEST_F(EdbTest, FindByFunctor) {
  ASSERT_TRUE(store_.Declare("fx", 3, ProcedureMode::kFacts).ok());
  auto functor = dict_.Intern("fx", 3);
  ASSERT_TRUE(functor.ok());
  ProcedureInfo* info = store_.Find(*functor);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "fx");
  auto other = dict_.Intern("fx", 2);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(store_.Find(*other), nullptr);
}


TEST_F(EdbTest, CorruptStoredCodeRejected) {
  const wam::ClauseCode code = CompileOne("c(a) :- d(a).");
  auto bytes = codec_.EncodeClause(code);
  ASSERT_TRUE(bytes.ok());
  // Truncation at every prefix either fails cleanly or (for whole-
  // instruction prefixes) decodes a shorter clause — never crashes.
  for (size_t cut = 0; cut < bytes->size(); cut += 3) {
    auto decoded = codec_.DecodeClause(bytes->substr(0, cut));
    if (decoded.ok()) continue;
    EXPECT_EQ(decoded.status().code(), base::StatusCode::kCorruption);
  }
  // Garbage symbol hashes are NotFound, not UB.
  std::string garbage = *bytes;
  for (size_t i = 14; i + 8 <= garbage.size(); ++i) garbage[i] ^= 0x5a;
  auto decoded = codec_.DecodeClause(garbage);
  EXPECT_FALSE(decoded.ok());
}

TEST_F(EdbTest, CorruptStoredTermRejected) {
  auto bytes = codec_.EncodeGroundTerm(*Parse("f(g(1), [a])"));
  ASSERT_TRUE(bytes.ok());
  for (size_t cut = 0; cut < bytes->size(); ++cut) {
    auto decoded = codec_.DecodeTerm(bytes->substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST_F(EdbTest, KeyAttributeSelectionControlsClustering) {
  // Declaring key attrs {1} clusters on the second argument only.
  auto proc = store_.Declare("ka", 3, ProcedureMode::kFacts, {1});
  ASSERT_TRUE(proc.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store_
                    .StoreFact(*proc, *Parse("ka(x" + std::to_string(i) +
                                             ", grp" + std::to_string(i % 4) +
                                             ", " + std::to_string(i) + ")"))
                    .ok());
  }
  CallPattern pattern(3);
  pattern[1] = ArgSummary{ArgSummary::Kind::kAtom,
                          ExternalDictionary::HashOf("grp2", 0)};
  auto matches = store_.CollectFacts(*proc, pattern);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->size(), 50u);

  // Out-of-range key attribute is rejected at declaration.
  EXPECT_FALSE(store_.Declare("bad", 2, ProcedureMode::kFacts, {5}).ok());
}

}  // namespace
}  // namespace educe::edb
