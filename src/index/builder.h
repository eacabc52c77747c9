#pragma once

#include <memory>
#include <variant>

#include "index/all_tables.h"
#include "storage/data_lake.h"
#include "storage/dictionary.h"

namespace blend {

class SnapshotStorage;

/// Physical layout of the AllTables relation.
enum class StoreLayout { kRow, kColumn };

/// Offline indexing options (paper Fig. 2e).
struct IndexBuildOptions {
  StoreLayout layout = StoreLayout::kColumn;
  /// When true, each table's rows are permuted before RowId assignment. The
  /// paper's BLEND(rand) correlation variant indexes "apriori shuffled" rows
  /// so that the correlation seeker's `RowId < h` convenience sample becomes a
  /// random sample (§VIII-G).
  bool shuffle_rows = false;
  uint64_t shuffle_seed = 17;
  /// Worker threads for the offline build. 0 means "one per hardware thread";
  /// 1 (and any negative value) forces the serial path. The built index is
  /// byte-identical for every thread count: workers index disjoint contiguous
  /// table ranges and a deterministic merge reproduces the serial
  /// DictId/RowId assignment.
  int num_threads = 0;
};

/// The built unified index: dictionary + one physical store + the per-table
/// map from indexed RowId back to the lake table's original row (identity
/// unless shuffle_rows).
class IndexBundle {
 public:
  const Dictionary& dictionary() const { return dict_; }
  Dictionary& dictionary() { return dict_; }

  StoreLayout layout() const { return layout_; }
  const RowStore& row_store() const { return row_store_; }
  const ColumnStore& column_store() const { return column_store_; }

  /// Original lake row for (table, indexed row id). Identity when the index
  /// was built without shuffle_rows. Contract: an out-of-range table id or a
  /// negative row id returns kInvalidRow instead of reading out of bounds
  /// (callers combine ids from postings and user input; a bad id must surface
  /// as "no such row", not undefined behavior). The row upper bound is only
  /// checkable against the shuffle maps; identity bundles do not record
  /// per-table row counts, so there a too-large row id maps to itself.
  int32_t OriginalRow(TableId t, int32_t indexed_row) const {
    if (t < 0 || static_cast<size_t>(t) >= NumTables() || indexed_row < 0) {
      return kInvalidRow;
    }
    if (row_maps_.empty()) return indexed_row;
    const std::vector<int32_t>& m = row_maps_[static_cast<size_t>(t)];
    if (static_cast<size_t>(indexed_row) >= m.size()) return kInvalidRow;
    return m[static_cast<size_t>(indexed_row)];
  }

  /// Sentinel returned by OriginalRow for ids outside the indexed lake.
  static constexpr int32_t kInvalidRow = -1;

  size_t NumRecords() const {
    return layout_ == StoreLayout::kRow ? row_store_.NumRecords()
                                        : column_store_.NumRecords();
  }
  size_t NumTables() const {
    return layout_ == StoreLayout::kRow ? row_store_.NumTables()
                                        : column_store_.NumTables();
  }

  /// Index storage footprint (records + secondary indexes + dictionary).
  size_t ApproxBytes() const;

  /// True when the store arrays are zero-copy views into a snapshot mapping
  /// (a bundle loaded with OpenSnapshot) instead of heap allocations.
  bool IsSnapshotBacked() const { return storage_ != nullptr; }

  friend class IndexBuilder;
  friend class SnapshotCodec;

 private:
  Dictionary dict_;
  StoreLayout layout_ = StoreLayout::kColumn;
  RowStore row_store_;
  ColumnStore column_store_;
  std::vector<std::vector<int32_t>> row_maps_;  // empty => identity
  /// Keeps the mapped snapshot file alive for view-mode bundles; null for
  /// built or heap-loaded bundles.
  std::shared_ptr<const SnapshotStorage> storage_;
};

/// Builds the AllTables index from a data lake: inverted-index rows, XASH
/// super keys per row and QCR quadrant bits per numeric cell, in one pass.
/// The pass is shard-parallel over tables (see IndexBuildOptions::num_threads)
/// and its output does not depend on the thread count.
class IndexBuilder {
 public:
  explicit IndexBuilder(IndexBuildOptions options = {}) : options_(options) {}

  /// Indexes every table of the lake. Empty cells are not indexed.
  IndexBundle Build(const DataLake& lake) const;

 private:
  IndexBuildOptions options_;
};

}  // namespace blend
