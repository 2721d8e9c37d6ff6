#ifndef EDUCE_REL_EXEC_H_
#define EDUCE_REL_EXEC_H_

#include <functional>
#include <memory>
#include <vector>

#include "base/result.h"
#include "rel/table.h"

namespace educe::rel {

/// Pull-based row iterator (Volcano model). The paper's §2.2 point — that
/// relational engines evaluate goal-oriented, set-at-a-time, trading cpu
/// for reduced block traffic — is embodied here: operators pull whole
/// tuples through buffered page scans.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// Produces the next row into `out`; Result is false at end of stream.
  virtual base::Result<bool> Next(Tuple* out) = 0;

  /// Restarts the stream from the beginning (required of inner sources of
  /// nested-loop joins).
  virtual base::Status Reset() = 0;

  /// Runs the stream to exhaustion, collecting all rows.
  base::Result<std::vector<Tuple>> Collect();
};

/// Row predicate used by filters.
using Predicate = std::function<bool(const Tuple&)>;

/// Sequential scan of a table.
std::unique_ptr<RowSource> MakeSeqScan(const Table* table);

/// Index equality scan: rows of `table` with `column` == `value`.
/// Requires table->HasIndex(column).
std::unique_ptr<RowSource> MakeIndexScan(const Table* table, int column,
                                         Value value);

/// Filters rows by `predicate`.
std::unique_ptr<RowSource> MakeFilter(std::unique_ptr<RowSource> input,
                                      Predicate predicate);

/// Projects to the given column positions.
std::unique_ptr<RowSource> MakeProject(std::unique_ptr<RowSource> input,
                                       std::vector<int> columns);

/// Nested-loop equi-join: concatenates left row ++ right row when
/// left[left_column] == right[right_column]. Rescans `right` per left row.
std::unique_ptr<RowSource> MakeNestedLoopJoin(std::unique_ptr<RowSource> left,
                                              std::unique_ptr<RowSource> right,
                                              int left_column,
                                              int right_column);

/// Hash equi-join: builds a hash table on `left` (fully materialized),
/// probes with `right`. Output is left row ++ right row.
std::unique_ptr<RowSource> MakeHashJoin(std::unique_ptr<RowSource> left,
                                        std::unique_ptr<RowSource> right,
                                        int left_column, int right_column);

/// Index nested-loop equi-join: for each left row, probes `right_table`'s
/// index on `right_column` (requires right_table->HasIndex(right_column)).
/// Output is left row ++ right row.
std::unique_ptr<RowSource> MakeIndexNestedLoopJoin(
    std::unique_ptr<RowSource> left, const Table* right_table,
    int left_column, int right_column);

}  // namespace educe::rel

#endif  // EDUCE_REL_EXEC_H_
