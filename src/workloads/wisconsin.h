#ifndef EDUCE_WORKLOADS_WISCONSIN_H_
#define EDUCE_WORKLOADS_WISCONSIN_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "educe/engine.h"

namespace educe::workloads {

/// Wisconsin-benchmark relations (Bitton, DeWitt & Turbyfill 1983), the
/// paper's §5.2 / Table 2 workload. The paper ran them as the `code =
/// false` case of its scheme: plain fact relations in the same BANG-filed
/// EDB that holds compiled clauses, which is how Store() loads them.
///
/// The classic schema: 13 integer attributes derived from unique1 and
/// unique2, then three 52-char strings (stored as atoms).
class WisconsinWorkload {
 public:
  /// Column (argument) positions of a name/16 relation.
  enum Column : int {
    kUnique1,         // random permutation of 0..n-1
    kUnique2,         // sequential 0..n-1
    kTwo,             // unique1 mod 2
    kFour,            // unique1 mod 4
    kTen,             // unique1 mod 10
    kTwenty,          // unique1 mod 20
    kOnePercent,      // unique1 mod 100
    kTenPercent,      // unique1 mod 10
    kTwentyPercent,   // unique1 mod 5
    kFiftyPercent,    // unique1 mod 2
    kUnique3,         // unique1
    kEvenOnePercent,  // one_percent * 2
    kOddOnePercent,   // one_percent * 2 + 1
    kStringU1,        // from unique1
    kStringU2,        // from unique2
    kString4,         // cyclic AAAA/HHHH/OOOO/VVVV
  };
  static constexpr uint32_t kArity = 16;
  static constexpr int kIntColumns = kStringU1;

  struct Row {
    std::array<int64_t, kIntColumns> ints;  // kUnique1 .. kOddOnePercent
    std::array<std::string, kArity - kIntColumns> strings;  // kStringU1 ..
    bool operator==(const Row&) const = default;
  };

  /// The `rows` tuples of one relation in unique2 order; `seed` drives
  /// the unique1 permutation (the benchmark's tenk1/tenk2/onek use seeds
  /// 1/2/3).
  static std::vector<Row> Rows(int64_t rows, uint64_t seed);

  /// Declares `name`/16 clustered on unique1 and unique2 (the benchmark's
  /// two indexed attributes) and stores Rows(rows, seed) as external
  /// facts AST-direct, all in one commit.
  static base::Status Store(Engine* engine, std::string_view name,
                            int64_t rows, uint64_t seed);

  /// Goal text on `name`/16 with each listed column bound to its source
  /// text and `_` elsewhere: Goal("tenk1", {{kUnique2, "2001"}}) is
  /// "tenk1(_, 2001, _, ..., _)".
  static std::string Goal(
      std::string_view name,
      const std::vector<std::pair<Column, std::string>>& args);
};

}  // namespace educe::workloads

#endif  // EDUCE_WORKLOADS_WISCONSIN_H_
