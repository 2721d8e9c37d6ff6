#include "rel/exec.h"

#include <unordered_map>
#include <utility>

namespace educe::rel {

base::Result<std::vector<Tuple>> RowSource::Collect() {
  std::vector<Tuple> rows;
  Tuple row;
  while (true) {
    EDUCE_ASSIGN_OR_RETURN(bool more, Next(&row));
    if (!more) break;
    rows.push_back(std::move(row));
    row.clear();
  }
  return rows;
}

namespace {

class SeqScanSource : public RowSource {
 public:
  explicit SeqScanSource(const Table* table)
      : table_(table), cursor_(table->Scan()) {}

  base::Result<bool> Next(Tuple* out) override {
    if (cursor_.Next(out)) return true;
    EDUCE_RETURN_IF_ERROR(cursor_.status());
    return false;
  }

  base::Status Reset() override {
    cursor_ = table_->Scan();
    return base::Status::OK();
  }

 private:
  const Table* table_;
  Table::Cursor cursor_;
};

class IndexScanSource : public RowSource {
 public:
  IndexScanSource(const Table* table, int column, Value value)
      : table_(table), column_(column), value_(std::move(value)) {}

  base::Result<bool> Next(Tuple* out) override {
    if (!loaded_) {
      EDUCE_ASSIGN_OR_RETURN(rows_, table_->IndexLookup(column_, value_));
      loaded_ = true;
      pos_ = 0;
    }
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

  base::Status Reset() override {
    pos_ = 0;
    return base::Status::OK();
  }

 private:
  const Table* table_;
  int column_;
  Value value_;
  bool loaded_ = false;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

class FilterSource : public RowSource {
 public:
  FilterSource(std::unique_ptr<RowSource> input, Predicate predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  base::Result<bool> Next(Tuple* out) override {
    while (true) {
      EDUCE_ASSIGN_OR_RETURN(bool more, input_->Next(out));
      if (!more) return false;
      if (predicate_(*out)) return true;
    }
  }

  base::Status Reset() override { return input_->Reset(); }

 private:
  std::unique_ptr<RowSource> input_;
  Predicate predicate_;
};

class ProjectSource : public RowSource {
 public:
  ProjectSource(std::unique_ptr<RowSource> input, std::vector<int> columns)
      : input_(std::move(input)), columns_(std::move(columns)) {}

  base::Result<bool> Next(Tuple* out) override {
    Tuple row;
    EDUCE_ASSIGN_OR_RETURN(bool more, input_->Next(&row));
    if (!more) return false;
    out->clear();
    out->reserve(columns_.size());
    for (int c : columns_) out->push_back(std::move(row[c]));
    return true;
  }

  base::Status Reset() override { return input_->Reset(); }

 private:
  std::unique_ptr<RowSource> input_;
  std::vector<int> columns_;
};

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

class NestedLoopJoinSource : public RowSource {
 public:
  NestedLoopJoinSource(std::unique_ptr<RowSource> left,
                       std::unique_ptr<RowSource> right, int left_column,
                       int right_column)
      : left_(std::move(left)), right_(std::move(right)),
        left_column_(left_column), right_column_(right_column) {}

  base::Result<bool> Next(Tuple* out) override {
    while (true) {
      if (!have_left_) {
        EDUCE_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
        if (!more) return false;
        have_left_ = true;
        EDUCE_RETURN_IF_ERROR(right_->Reset());
      }
      Tuple right_row;
      EDUCE_ASSIGN_OR_RETURN(bool more, right_->Next(&right_row));
      if (!more) {
        have_left_ = false;
        continue;
      }
      if (left_row_[left_column_] == right_row[right_column_]) {
        *out = Concat(left_row_, right_row);
        return true;
      }
    }
  }

  base::Status Reset() override {
    have_left_ = false;
    return left_->Reset();
  }

 private:
  std::unique_ptr<RowSource> left_;
  std::unique_ptr<RowSource> right_;
  int left_column_;
  int right_column_;
  Tuple left_row_;
  bool have_left_ = false;
};

class HashJoinSource : public RowSource {
 public:
  HashJoinSource(std::unique_ptr<RowSource> left,
                 std::unique_ptr<RowSource> right, int left_column,
                 int right_column)
      : left_(std::move(left)), right_(std::move(right)),
        left_column_(left_column), right_column_(right_column) {}

  base::Result<bool> Next(Tuple* out) override {
    if (!built_) {
      EDUCE_RETURN_IF_ERROR(Build());
    }
    while (true) {
      if (match_pos_ < matches_.size()) {
        *out = Concat(*matches_[match_pos_++], right_row_);
        return true;
      }
      EDUCE_ASSIGN_OR_RETURN(bool more, right_->Next(&right_row_));
      if (!more) return false;
      matches_.clear();
      match_pos_ = 0;
      auto [begin, end] =
          hash_.equal_range(ValueKey(right_row_[right_column_]));
      for (auto it = begin; it != end; ++it) {
        const Tuple& candidate = build_rows_[it->second];
        if (candidate[left_column_] == right_row_[right_column_]) {
          matches_.push_back(&candidate);
        }
      }
    }
  }

  base::Status Reset() override {
    matches_.clear();
    match_pos_ = 0;
    return right_->Reset();
  }

 private:
  base::Status Build() {
    EDUCE_ASSIGN_OR_RETURN(build_rows_, left_->Collect());
    for (size_t i = 0; i < build_rows_.size(); ++i) {
      hash_.emplace(ValueKey(build_rows_[i][left_column_]), i);
    }
    built_ = true;
    return base::Status::OK();
  }

  std::unique_ptr<RowSource> left_;
  std::unique_ptr<RowSource> right_;
  int left_column_;
  int right_column_;
  bool built_ = false;
  std::vector<Tuple> build_rows_;
  std::unordered_multimap<uint64_t, size_t> hash_;
  Tuple right_row_;
  std::vector<const Tuple*> matches_;
  size_t match_pos_ = 0;
};

class IndexNestedLoopJoinSource : public RowSource {
 public:
  IndexNestedLoopJoinSource(std::unique_ptr<RowSource> left,
                            const Table* right_table, int left_column,
                            int right_column)
      : left_(std::move(left)), right_table_(right_table),
        left_column_(left_column), right_column_(right_column) {}

  base::Result<bool> Next(Tuple* out) override {
    while (true) {
      if (match_pos_ < matches_.size()) {
        *out = Concat(left_row_, matches_[match_pos_++]);
        return true;
      }
      EDUCE_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      EDUCE_ASSIGN_OR_RETURN(
          matches_,
          right_table_->IndexLookup(right_column_, left_row_[left_column_]));
      match_pos_ = 0;
    }
  }

  base::Status Reset() override {
    matches_.clear();
    match_pos_ = 0;
    return left_->Reset();
  }

 private:
  std::unique_ptr<RowSource> left_;
  const Table* right_table_;
  int left_column_;
  int right_column_;
  Tuple left_row_;
  std::vector<Tuple> matches_;
  size_t match_pos_ = 0;
};

}  // namespace

std::unique_ptr<RowSource> MakeIndexNestedLoopJoin(
    std::unique_ptr<RowSource> left, const Table* right_table,
    int left_column, int right_column) {
  return std::make_unique<IndexNestedLoopJoinSource>(
      std::move(left), right_table, left_column, right_column);
}

std::unique_ptr<RowSource> MakeSeqScan(const Table* table) {
  return std::make_unique<SeqScanSource>(table);
}

std::unique_ptr<RowSource> MakeIndexScan(const Table* table, int column,
                                         Value value) {
  return std::make_unique<IndexScanSource>(table, column, std::move(value));
}

std::unique_ptr<RowSource> MakeFilter(std::unique_ptr<RowSource> input,
                                      Predicate predicate) {
  return std::make_unique<FilterSource>(std::move(input), std::move(predicate));
}

std::unique_ptr<RowSource> MakeProject(std::unique_ptr<RowSource> input,
                                       std::vector<int> columns) {
  return std::make_unique<ProjectSource>(std::move(input), std::move(columns));
}

std::unique_ptr<RowSource> MakeNestedLoopJoin(std::unique_ptr<RowSource> left,
                                              std::unique_ptr<RowSource> right,
                                              int left_column,
                                              int right_column) {
  return std::make_unique<NestedLoopJoinSource>(
      std::move(left), std::move(right), left_column, right_column);
}

std::unique_ptr<RowSource> MakeHashJoin(std::unique_ptr<RowSource> left,
                                        std::unique_ptr<RowSource> right,
                                        int left_column, int right_column) {
  return std::make_unique<HashJoinSource>(std::move(left), std::move(right),
                                          left_column, right_column);
}

}  // namespace educe::rel
