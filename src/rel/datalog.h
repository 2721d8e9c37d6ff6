#ifndef EDUCE_REL_DATALOG_H_
#define EDUCE_REL_DATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace educe::rel::datalog {

/// Bottom-up Datalog on flat int64 arenas (DESIGN.md §15).
///
/// This layer is deliberately term-free: constants are opaque int64
/// payloads (the engine bridge in src/educe/datalog.h encodes atoms,
/// integers, floats and bignums into them), predicates are small dense
/// ids, and variables are per-rule indices. That keeps the evaluator
/// free of any term or storage dependency and makes programs cheap to
/// hash, rewrite and cache.

/// One argument position: either a rule-scoped variable or a constant.
struct Term {
  bool is_var = false;
  uint32_t var = 0;     // variable index, rule-scoped, dense from 0
  int64_t value = 0;    // encoded constant when !is_var

  static Term Var(uint32_t v) { return Term{true, v, 0}; }
  static Term Const(int64_t c) { return Term{false, 0, c}; }

  friend bool operator==(const Term& a, const Term& b) {
    return a.is_var == b.is_var &&
           (a.is_var ? a.var == b.var : a.value == b.value);
  }
};

/// One literal. `negated` is only legal in rule bodies.
struct Atom {
  uint32_t pred = 0;
  bool negated = false;
  std::vector<Term> args;
};

/// head :- body. An empty body is a fact (the head must be ground).
struct Rule {
  Atom head;
  std::vector<Atom> body;
};

struct Predicate {
  std::string name;   // diagnostic only; uniqueness not required
  uint32_t arity = 0;
  bool edb = false;   // extensional: fed by the loader, never a rule head
};

inline constexpr uint32_t kNoPred = 0xFFFFFFFFu;

struct Program {
  std::vector<Predicate> preds;
  std::vector<Rule> rules;

  uint32_t AddPred(std::string name, uint32_t arity, bool edb) {
    preds.push_back(Predicate{std::move(name), arity, edb});
    return static_cast<uint32_t>(preds.size() - 1);
  }
};

/// Structural checks: pred ids in range, arities consistent, EDB preds
/// never in heads, no negated heads, range restriction (every head
/// variable and every negated-literal variable occurs in a positive body
/// literal; empty-body heads are ground).
base::Status Validate(const Program& program);

/// Assigns each predicate an evaluation stratum: the topological index of
/// its strongly connected component in the dependency graph. Fails with
/// InvalidArgument if a negated edge lands inside an SCC (the program is
/// not stratifiable). Validate() must have passed.
base::Result<std::vector<uint32_t>> Stratify(const Program& program);

/// Result of the magic-set rewrite. `seed_pred` is a fresh EDB predicate
/// of arity = number of bound positions; the caller's loader supplies it
/// as a one-row relation of the bound query constants. When no rewrite
/// applies (adornment all-free) the program is returned unchanged and
/// `seed_pred` is kNoPred.
struct MagicProgram {
  Program program;
  uint32_t query_pred = 0;
  uint32_t seed_pred = kNoPred;
};

/// Magic-set rewrite of `program` for a call to `query_pred` with the
/// given boundness pattern (left-to-right sideways information passing).
/// Only defined for negation-free programs — callers fall back to the
/// unrewritten program when negation is present.
base::Result<MagicProgram> MagicRewrite(const Program& program,
                                        uint32_t query_pred,
                                        const std::vector<bool>& bound);

struct EvalOptions {
  bool semi_naive = true;       // false = naive re-derivation (testing only)
  uint64_t max_iterations = 0;  // 0 = unbounded; safety valve for tests
};

struct EvalStats {
  uint32_t strata = 0;             // evaluation units (SCCs with rules)
  uint64_t iterations = 0;         // delta rounds across all strata
  uint64_t tuples_derived = 0;     // distinct tuples added to IDB totals
  uint64_t join_rows = 0;          // complete rule body matches
  uint64_t join_probes = 0;        // hash-index lookups in join loops
  uint64_t index_builds = 0;       // column hash indexes this run built
  uint64_t dedup_hits = 0;         // derivations rejected as duplicates
  uint64_t edb_rows = 0;           // rows of the EDB relations read
  /// Wall time of the rounds' rule-variant joins (head inserts included)
  /// and of their delta flushes plus index extensions; each is timed
  /// once per round, never per row.
  uint64_t join_ns = 0;
  uint64_t flush_ns = 0;
  std::vector<uint64_t> delta_sizes;  // new tuples per completed round
  std::vector<uint64_t> per_stratum_tuples;  // tuples derived per stratum
};

/// Distinct int64 values, each with a dense id in first-seen order: an
/// open-addressing table (linear probing, power-of-two capacity, load at
/// most 1/2) that keeps each value in its slot beside its id, so a probe
/// compares inside the table and reads no other array.
class ValueIds {
 public:
  static constexpr uint64_t kNotFound = ~uint64_t{0};

  /// Id of `value`, or kNotFound.
  uint64_t Find(int64_t value) const {
    return count_ == 0 ? kNotFound : slots_[SlotOf(value)].id;
  }
  /// Id of `value`, giving it the next id first when it is new.
  uint64_t Intern(int64_t value);

  uint64_t size() const { return count_; }
  uint64_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    int64_t value = 0;
    uint64_t id = kNotFound;  // kNotFound marks a free slot
  };

  /// Slot holding `value`, or the free slot where it would go.
  uint64_t SlotOf(int64_t value) const {
    const uint64_t mask = slots_.size() - 1;
    // Fibonacci hashing: the multiply spreads every bit of the value
    // into the high bits, which the shift keeps.
    uint64_t s = (static_cast<uint64_t>(value) * 0x9e3779b97f4a7c15ull) >>
                 shift_;
    while (slots_[s].id != kNotFound && slots_[s].value != value) {
      s = (s + 1) & mask;
    }
    return s;
  }
  void Grow();

  std::vector<Slot> slots_;  // allocated by the first Intern
  uint32_t shift_ = 64;      // 64 - log2(slots_.size())
  uint64_t count_ = 0;
};

/// Deduplicating tuple set over a flat int64 arena: rows stay in
/// insertion order, and an open-addressing table of row ids (linear
/// probing, power-of-two capacity) finds duplicates without a node
/// allocation per row.
class RowSet {
 public:
  static constexpr uint64_t kNotFound = ~uint64_t{0};

  explicit RowSet(uint32_t width);

  /// True when the row was new (appended); false on duplicate.
  bool Insert(const int64_t* row);
  /// Row id (insertion index) of `row`, or kNotFound.
  uint64_t Find(const int64_t* row) const {
    return count_ == 0 ? kNotFound : slots_[FindSlot(row)];
  }
  bool Contains(const int64_t* row) const { return Find(row) != kNotFound; }

  uint64_t size() const { return count_; }
  uint32_t width() const { return width_; }
  const int64_t* RowAt(uint64_t i) const { return arena_.data() + i * width_; }

  /// Heap bytes of the arena and the hash slots.
  uint64_t MemoryBytes() const;

 private:
  /// Slot holding `row`, or the free slot where it would go.
  uint64_t FindSlot(const int64_t* row) const;
  void Grow();

  uint32_t width_;
  uint64_t count_ = 0;
  std::vector<int64_t> arena_;
  /// Row ids; kNotFound marks a free slot. Allocated by the first
  /// insert, so an empty set costs no allocation.
  std::vector<uint64_t> slots_;
};

/// Hash index on one column of a relation: value -> the ids of the rows
/// holding it, chained in ascending row order. It covers the rows
/// [0, end) of the last Extend, so a probe sees exactly those rows.
class ColumnIndex {
 public:
  static constexpr uint64_t kEnd = ~uint64_t{0};

  explicit ColumnIndex(uint32_t column) : column_(column) {}

  /// Indexes rows [covered, end) of `rows`.
  void Extend(const RowSet& rows, uint64_t end);

  /// First row holding `key`, or kEnd.
  uint64_t First(int64_t key) const {
    const uint64_t k = keys_.Find(key);
    return k == ValueIds::kNotFound ? kEnd : head_[k];
  }
  /// The next row after `row` with the same key, or kEnd.
  uint64_t Next(uint64_t row) const { return next_[row]; }

  uint64_t MemoryBytes() const;

 private:
  uint32_t column_;
  ValueIds keys_;  // distinct values; a value's id indexes head_/tail_
  std::vector<uint64_t> head_, tail_;
  std::vector<uint64_t> next_;  // per indexed row: next row with its key
};

/// One relation: its deduplicated rows in insertion order plus one hash
/// index per column, each built on first use. An evaluation owns its IDB
/// relations and extends their indexes as its rounds add rows. An EDB
/// relation is filled once, then frozen behind a
/// std::shared_ptr<const Relation> and borrowed by every evaluation that
/// reads it, so its rows and indexes are built once, not per query.
///
/// Thread safety: once no more rows are inserted, any number of threads
/// may read the relation and call Index() and MemoryBytes() at once. Each
/// column index is built at most once, under that column's own
/// std::once_flag, by the first caller that needs it.
class Relation {
 public:
  /// `arity` columns. A nullary relation stores one constant-0 column so
  /// that its one possible tuple occupies an arena row.
  explicit Relation(uint32_t arity);
  ~Relation();

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// True when the row (`arity` values; ignored when nullary) was new.
  bool Insert(const int64_t* row);

  uint32_t arity() const { return arity_; }
  uint64_t size() const { return rows_.size(); }
  const RowSet& rows() const { return rows_; }

  /// The index on `column`. The first call for a column builds it over
  /// rows [0, end) and sets `*built`; every later call returns that same
  /// index, which only ExtendIndexes moves past `end`.
  const ColumnIndex* Index(uint32_t column, uint64_t end, bool* built) const;

  /// Extends every index built so far over rows [0, end). Only for a
  /// relation its caller owns alone (an evaluation's IDB relations).
  void ExtendIndexes(uint64_t end);

  /// Heap bytes of the rows, their hash slots and every index built.
  uint64_t MemoryBytes() const;

 private:
  struct Column;

  uint32_t arity_;
  RowSet rows_;
  /// One per stored column. The array is fixed at construction; an
  /// index is written only inside its column's call_once.
  std::unique_ptr<Column[]> columns_;
  /// Bytes of the indexes built so far, read without the once flags.
  mutable std::atomic<uint64_t> index_bytes_{0};
};

/// A program translated once into fixed join loops (DESIGN.md §15.1):
/// Compile validates and stratifies it, then turns every rule variant —
/// a rule with the position of the literal that reads its stratum's
/// delta, or with none — into an immutable join program: the literal
/// order, each literal's probe column and key, its variable bindings
/// and checks, and the head and negated-literal projections. It holds
/// no evaluation state, so any number of evaluations, on any threads,
/// may run one compiled program at once.
class CompiledProgram {
 public:
  /// An empty program: no predicates, no rules.
  CompiledProgram() = default;

  /// Fails with InvalidArgument when Validate or Stratify does.
  static base::Result<CompiledProgram> Compile(Program program);

  const Program& program() const { return program_; }

 private:
  friend class Evaluator;

  static constexpr uint32_t kScan = 0xFFFFFFFFu;

  /// One positive body literal in join order: a scan of the literal's
  /// delta or total row range, or a probe of the index on `probe_column`
  /// with `key`; then the bindings of its new variables and the checks
  /// of its other columns.
  struct Step {
    uint32_t pred = 0;
    bool delta = false;
    uint32_t probe_column = kScan;
    Term key;
    uint32_t slot = 0;  // this step's index pointer in an evaluation
    std::vector<std::pair<uint32_t, uint32_t>> binds;  // var := row[col]
    std::vector<std::pair<uint32_t, Term>> checks;     // row[col] == term
  };

  /// One rule variant. No steps: a fact, or a body of ground negated
  /// literals only, matched once.
  struct Variant {
    uint32_t head_pred = 0;
    std::vector<Term> head_args;
    std::vector<Step> steps;
    std::vector<Atom> negatives;
  };

  /// One evaluation unit: an SCC with rules, in dependency order.
  struct Stratum {
    std::vector<uint32_t> members;  // head predicates, ascending
    /// One variant per rule with no delta literal: every rule fires on
    /// the totals in round 0, and again every round in naive mode.
    std::vector<uint32_t> base;
    /// (rule, delta position) variants for the semi-naive rounds.
    std::vector<uint32_t> deltas;
  };

  /// The join program of `rule` with the literal at `delta_pos` (or,
  /// when negative, none) reading the delta; numbers its steps' slots
  /// from `*next_slot`.
  static Variant CompileVariant(const Rule& rule, int delta_pos,
                                uint32_t* next_slot);

  Program program_;
  std::vector<Variant> variants_;
  std::vector<Stratum> strata_;
  uint32_t num_slots_ = 0;  // steps across all variants
  uint32_t num_vars_ = 0;   // the largest rule's variable count
  uint32_t row_width_ = 1;  // the widest head or negated literal
};

/// Semi-naive fixpoint evaluator: one run of a CompiledProgram. Each
/// predicate's tuples live in one Relation in first-derivation order;
/// "total" and "delta" are row ranges of it, and joins run as nested
/// loops over those ranges and per-column hash indexes. IDB relations
/// and every other piece of mutable state — variable registers, row
/// ranges, index pointers — are private to the evaluation; EDB
/// relations are borrowed, read-only, from the loader, and the compiled
/// program is only read.
class Evaluator {
 public:
  /// Supplies the full extension of one EDB predicate as a relation of
  /// the predicate's arity, which the evaluation borrows and never
  /// changes (beyond building its column indexes).
  using EdbLoader = std::function<base::Result<std::shared_ptr<const Relation>>(
      uint32_t pred)>;

  /// `program` must outlive the evaluator.
  Evaluator(const CompiledProgram* program, EvalOptions options);
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Borrows the EDB relations and runs the fixpoint.
  base::Status Run(const EdbLoader& loader);

  /// Tuple count of `pred` after Run (EDB or IDB).
  uint64_t TupleCount(uint32_t pred) const;

  /// All tuples of `pred` after Run, in first-derivation order.
  std::vector<std::vector<int64_t>> Tuples(uint32_t pred) const;

  /// The tuples of `pred` after Run, in first-derivation order (null
  /// when `pred` is out of range or Run failed).
  const RowSet* Rows(uint32_t pred) const;

  const EvalStats& stats() const { return stats_; }

 private:
  using Step = CompiledProgram::Step;
  using Variant = CompiledProgram::Variant;
  struct Rel;  // per-predicate state

  /// Creates the IDB relations and borrows the EDB ones from `loader`.
  base::Status SetUpRelations(const EdbLoader& loader);
  base::Status EvalStratum(const CompiledProgram::Stratum& stratum);
  /// Runs each variant of `ids` once over the current ranges.
  void RunVariants(const std::vector<uint32_t>& ids);
  void Join(const Variant& variant, size_t k);
  void EmitHead(const Variant& variant);
  uint64_t FlushPending(const std::vector<uint32_t>& members);

  const CompiledProgram* program_;
  EvalOptions options_;
  std::vector<Rel> rels_;
  /// Per compiled step: its column index, resolved on the step's first
  /// probe in this evaluation.
  std::vector<const ColumnIndex*> indexes_;
  std::vector<int64_t> vars_;  // current value of each rule variable
  std::vector<int64_t> row_;   // head / negated-literal probe buffer
  EvalStats stats_;
  bool ran_ = false;
};

}  // namespace educe::rel::datalog

#endif  // EDUCE_REL_DATALOG_H_
