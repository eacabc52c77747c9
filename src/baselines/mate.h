#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.h"
#include "storage/data_lake.h"

namespace blend::baselines {

/// Reimplementation of MATE (Esmailoghli et al., VLDB'22): multi-column join
/// discovery with the XASH super-key filter. MATE probes its inverted index
/// with values of ONE query key column only, then filters the (much larger)
/// candidate row set with the super key and validates row-by-row at the
/// application level — the validation loop the paper identifies as the
/// baseline's bottleneck in Table III, and the source of its lower precision
/// in Table V (BLEND's SQL join already demands every column in the row).
class Mate {
 public:
  explicit Mate(const DataLake* lake);

  struct Stats {
    size_t candidate_rows = 0;
    size_t bloom_pass_rows = 0;
    size_t true_positives = 0;
    size_t false_positives = 0;
  };

  /// Top-k joinable tables on the composite key; `tuples` row-major. Tuples
  /// with an empty cell are dropped; so is every tuple whose arity differs
  /// from the first kept tuple's.
  core::TableList TopK(const std::vector<std::vector<std::string>>& tuples, int k,
                       Stats* stats = nullptr) const;

  size_t IndexBytes() const;

 private:
  using RowKey = uint64_t;  // (table << 32) | row

  const DataLake* lake_;
  std::unordered_map<std::string, std::vector<RowKey>> postings_;
  std::vector<std::vector<uint64_t>> super_keys_;  // per table, per row
};

}  // namespace blend::baselines
