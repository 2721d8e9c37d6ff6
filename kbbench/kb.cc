#include "kb.h"

namespace kbbench {

namespace {

constexpr const char* kClassNames[kClassCount] = {
    "lookup", "rule", "route", "scan", "assert", "retract"};

// pair/2 is a two-hop join through wisc's second column; one_pct/2 is a
// 1% selection on a column outside the BANG key, so it scans the
// relation.
constexpr const char* kWiscRules =
    "pair(X, Z) :- wisc(X, Y, _, _, _), wisc(Y, Z, _, _, _).\n"
    "one_pct(P, K) :- wisc(K, _, _, P, _).\n";

// The MVV network is generated from one fixed seed: its route queries'
// answer counts, and so their cost, depend on the network's shape, which
// must not move from seed to seed. The run's seed draws everything else.
constexpr uint64_t kMvvSeed = 42;

}  // namespace

const char* ClassName(int cls) { return kClassNames[cls]; }

Kb::Kb(uint64_t seed) : mvv_(educe::workloads::MvvWorkload::Config{kMvvSeed}) {
  educe::base::Rng rng(seed ^ 0x5eed5eedull);
  perm_.resize(kWiscRows);
  for (uint32_t i = 0; i < kWiscRows; ++i) perm_[i] = i;
  Shuffle(&perm_, &rng);
  wisc_facts_.reserve(kWiscRows * 40);
  for (uint32_t k = 0; k < kWiscRows; ++k) {
    const std::vector<std::string> row = LookupRow(k);
    wisc_facts_ += "wisc(" + std::to_string(k) + ", " + row[0] + ", " +
                   row[1] + ", " + row[2] + ", " + row[3] + ").\n";
  }
  wisc_rules_ = kWiscRules;
  setup_text_ = mvv_.facts() + wisc_facts_ + mvv_.rules() + wisc_rules_;
  routes_ = mvv_.class1_queries();
  routes_.insert(routes_.end(), mvv_.class2_queries().begin(),
                 mvv_.class2_queries().end());
}

void Kb::Store(educe::Engine* engine, Samples* facts_s,
               Samples* rules_s) const {
  // Key attributes as MvvWorkload::Setup declares them; wisc clusters on
  // its key only.
  Check(engine->DeclareRelation("location2", 2, {0}), "declare location2");
  Check(engine->DeclareRelation("schedule3", 11, {2, 3}), "declare schedule3");
  Check(engine->DeclareRelation("schedule2", 5, {0, 1}), "declare schedule2");
  Check(engine->DeclareRelation("wisc", 5, {0}), "declare wisc");
  Check(engine->DeclareRelation("ledger", 3, {0}), "declare ledger");
  uint64_t t0 = NowNs();
  Check(engine->StoreFactsExternal(mvv_.facts()), "store mvv facts");
  Check(engine->StoreFactsExternal(wisc_facts_), "store wisc facts");
  facts_s->Add((NowNs() - t0) * 1e-9);
  t0 = NowNs();
  Check(engine->StoreRulesExternal(mvv_.rules()), "store mvv rules");
  Check(engine->StoreRulesExternal(wisc_rules_), "store wisc rules");
  rules_s->Add((NowNs() - t0) * 1e-9);
}

void Kb::ComputeRouteOracle() {
  educe::Engine oracle;
  Check(mvv_.Setup(&oracle, /*rules_external=*/false), "oracle setup");
  route_counts_.clear();
  for (const std::string& goal : routes_) {
    route_counts_.push_back(CheckResult(oracle.CountSolutions(goal), "oracle"));
  }
}

const std::vector<std::string>& AnswerVars(OpClass cls) {
  static const std::vector<std::string> kLookupVars = {"A", "B", "C", "D"};
  static const std::vector<std::string> kRuleVars = {"Z"};
  static const std::vector<std::string> kNone;
  return cls == kLookup ? kLookupVars : cls == kRule ? kRuleVars : kNone;
}

std::string Kb::ReadGoal(const Op& op) const {
  const std::string arg = std::to_string(op.arg);
  switch (op.cls) {
    case kLookup:
      return "wisc(" + arg + ", A, B, C, D)";
    case kRule:
      return "pair(" + arg + ", Z)";
    case kScan:
      return "one_pct(" + arg + ", K)";
    default:
      Die("%s is not a single-query read", ClassName(op.cls));
  }
}

void Kb::CheckRead(const Op& op, const Answer& answer, Report* report) const {
  const char* name = ClassName(op.cls);
  if (answer.count < 0) {
    return report->Fail("%s %llu errored", name, Ull(op.arg));
  }
  bool right;
  switch (op.cls) {
    case kLookup:
      right = answer.count == 1 && answer.rows.size() == 1 &&
              answer.rows[0] == LookupRow(op.arg);
      break;
    case kRule:
      right = answer.count == 1 && answer.rows.size() == 1 &&
              answer.rows[0] == std::vector<std::string>{RuleAnswer(op.arg)};
      break;
    default:
      right = static_cast<uint64_t>(answer.count) == kScanRows;
      break;
  }
  if (!right) {
    report->Wrong("%s %llu: %lld answers", name, Ull(op.arg),
                  Ll(answer.count));
  }
}

void Kb::CheckRouteRound(const std::vector<int64_t>& counts,
                         Report* report) const {
  const std::string* errored = nullptr;
  const std::string* wrong = nullptr;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 0 && errored == nullptr) errored = &routes_[i];
    if (counts[i] >= 0 &&
        static_cast<uint64_t>(counts[i]) != route_counts_[i] &&
        wrong == nullptr) {
      wrong = &routes_[i];
    }
  }
  if (errored != nullptr) {
    report->Fail("route round: %s errored", errored->c_str());
  } else if (wrong != nullptr) {
    report->Wrong("route round: %s disagrees with the oracle", wrong->c_str());
  }
}

std::vector<std::string> Kb::LookupRow(uint64_t key) const {
  return {std::to_string(perm_[key]), std::to_string(key % 10),
          std::to_string(perm_[key] % 100), "w" + std::to_string(key)};
}

std::string Kb::RuleAnswer(uint64_t key) const {
  return std::to_string(perm_[perm_[key]]);
}

const std::vector<std::pair<std::string, uint32_t>>& Kb::Relations() {
  static const std::vector<std::pair<std::string, uint32_t>> relations = {
      {"location2", 2}, {"schedule3", 11}, {"schedule2", 5},
      {"wisc", 5},      {"ledger", 3}};
  return relations;
}

std::vector<std::string> Kb::RequestLines(uint64_t seed, const Mix& mix,
                                          size_t n) const {
  OpStream stream(seed, mix);
  std::vector<std::string> lines;
  while (lines.size() < n) {
    const Op op = stream.Next();
    if (op.cls == kAssert || op.cls == kRetract) continue;
    if (op.cls == kRoute) {
      for (const std::string& goal : routes_) {
        lines.push_back(RequestLine(goal, lines.size() + 1));
      }
    } else {
      lines.push_back(RequestLine(ReadGoal(op), lines.size() + 1));
    }
  }
  return lines;
}

OpStream::OpStream(uint64_t seed, const Mix& mix) : rng_(seed) {
  for (int cls = 0; cls < kClassCount; ++cls) {
    deck_.insert(deck_.end(), mix[cls], static_cast<OpClass>(cls));
  }
  next_ = deck_.size();
}

Op OpStream::Next() {
  if (next_ == deck_.size()) {
    Shuffle(&deck_, &rng_);
    next_ = 0;
  }
  Op op;
  op.cls = deck_[next_++];
  op.arg = op.cls == kScan ? rng_.Below(100) : rng_.Below(Kb::kWiscRows);
  return op;
}

std::string Ledger::NextGoal(OpClass cls) {
  if (cls == kRetract && !live_.empty()) {
    pending_assert_ = false;
    return "edb_retract(ledger(" + std::to_string(live_.front().id) +
           ", _, _))";
  }
  const uint64_t id = next_id_;
  const std::string value = std::to_string((id * 7919 + seed_) % 100000);
  // Every fourth assert mints an atom the dictionary has never seen.
  const std::string tag = id % 4 == 0
                              ? "f" + std::to_string(seed_) + "_" +
                                    std::to_string(id)
                              : "t" + std::to_string(id % 8);
  const std::string fact =
      "ledger(" + std::to_string(id) + ", " + value + ", " + tag + ")";
  pending_assert_ = true;
  // Bytes as stored text: "fact.\n".
  pending_row_ = {id, value + " " + tag, fact.size() + 2};
  return "edb_assert(" + fact + ")";
}

void Ledger::Acknowledge() {
  ++writes_;
  if (pending_assert_) {
    live_.push_back(pending_row_);
    live_bytes_ += pending_row_.bytes;
    asserted_bytes_ += pending_row_.bytes;
    ++next_id_;
  } else {
    live_bytes_ -= live_.front().bytes;
    live_.pop_front();
  }
}

}  // namespace kbbench
