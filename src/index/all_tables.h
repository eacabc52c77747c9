#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/array_ref.h"
#include "storage/data_lake.h"
#include "storage/dictionary.h"

namespace blend {

class SnapshotCodec;

/// Quadrant value for non-numeric cells (SQL NULL in the paper's Fig. 3).
constexpr int8_t kQuadrantNull = -1;

/// One row of the unified AllTables relation (paper Fig. 3):
///   CellValue (interned), TableId, ColumnId, RowId, SuperKey, Quadrant.
/// CellValue carries the DataXFormer inverted index, SuperKey the XASH/MATE
/// multi-column signature, Quadrant the QCR correlation bit.
struct IndexRecord {
  CellId cell;
  TableId table;
  int32_t column;
  int32_t row;
  uint64_t super_key;
  int8_t quadrant;
};

/// Physical position of a record within a store.
using RecordPos = uint32_t;

/// An array that is always empty and cannot be written (see
/// SecondaryIndexes::posting_partitions).
struct EmptyArray {
  static constexpr size_t size() { return 0; }
};

/// Secondary structures both physical layouts share: the in-database hash
/// index on CellValue (postings of physical positions, stored as one
/// flattened CSR so a snapshot can serve the whole index from two fixed-width
/// arrays) and the clustered index on TableId (contiguous [begin, end) pairs
/// flattened the same way, since records are emitted table-ordered).
struct SecondaryIndexes {
  /// CSR offsets: cell id's postings are positions
  /// [posting_offsets[id], posting_offsets[id + 1]). Size num_cells + 1.
  PodArray<uint64_t> posting_offsets;
  /// All posting lists back to back, each ascending.
  PodArray<RecordPos> posting_positions;
  /// Always empty: the names stay only because the perfbench harness
  /// reports them, and they read 0.
  static constexpr EmptyArray posting_partitions{};
  static constexpr EmptyArray posting_blob{};
  /// table_ranges[2 * t] / [2 * t + 1] = the [begin, end) physical range of
  /// table t.
  PodArray<RecordPos> table_ranges;
  /// Positions of records with a non-NULL Quadrant, ascending: the partial
  /// index on the Quadrant column that serves the correlation seeker's
  /// `Quadrant IS NOT NULL` scan.
  PodArray<RecordPos> quadrant_positions;

  void Build(std::span<const IndexRecord> records, size_t num_cells,
             size_t num_tables);

  /// List length alone, straight from the CSR offsets.
  size_t PostingCount(CellId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i + 1 >= posting_offsets.size()) return 0;
    return static_cast<size_t>(posting_offsets[i + 1] - posting_offsets[i]);
  }

  /// Ascending record positions of cell `id`; empty for an id outside the
  /// dictionary.
  std::span<const RecordPos> PostingList(CellId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i + 1 >= posting_offsets.size()) return {};
    return {posting_positions.data() + posting_offsets[i],
            static_cast<size_t>(posting_offsets[i + 1] - posting_offsets[i])};
  }
  /// Empty range for any id outside the indexed lake: callers combine ids
  /// from user input, and a bad table id must read as "no records", not out
  /// of bounds.
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    const auto i = static_cast<size_t>(id);
    if (id < 0 || 2 * i + 1 >= table_ranges.size()) return {0, 0};
    return {table_ranges[2 * i], table_ranges[2 * i + 1]};
  }
  size_t NumTables() const { return table_ranges.size() / 2; }
  size_t ApproxBytes() const;
};

/// AoS physical layout: PostgreSQL-style row store. Every field access pulls
/// the whole record through the cache.
class RowStore {
 public:
  static constexpr bool kIsColumnStore = false;

  void Build(std::vector<IndexRecord> records, size_t num_cells, size_t num_tables);

  size_t NumRecords() const { return records_.size(); }
  CellId cell(RecordPos i) const { return records_[i].cell; }
  TableId table(RecordPos i) const { return records_[i].table; }
  int32_t column(RecordPos i) const { return records_[i].column; }
  int32_t row(RecordPos i) const { return records_[i].row; }
  uint64_t super_key(RecordPos i) const { return records_[i].super_key; }
  int8_t quadrant(RecordPos i) const { return records_[i].quadrant; }

  std::span<const RecordPos> PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
  size_t PostingCount(CellId id) const { return secondary_.PostingCount(id); }
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    return secondary_.TableRange(id);
  }
  std::span<const RecordPos> QuadrantPositions() const {
    return secondary_.quadrant_positions.span();
  }
  size_t NumTables() const { return secondary_.NumTables(); }
  /// Mean records per (TableId, RowId) group, rounded up (see
  /// MeanRecordsPerRow); computed once when the store is built or loaded.
  uint32_t RecordsPerRow() const { return records_per_row_; }
  const SecondaryIndexes& secondary() const { return secondary_; }

  size_t ApproxBytes() const {
    return records_.size() * sizeof(IndexRecord) + secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<IndexRecord> records_;
  SecondaryIndexes secondary_;
  uint32_t records_per_row_ = 1;
};

/// SoA physical layout: column store. A scan that needs only TableId and
/// RowId touches two tightly packed arrays.
class ColumnStore {
 public:
  static constexpr bool kIsColumnStore = true;

  void Build(std::vector<IndexRecord> records, size_t num_cells, size_t num_tables);

  size_t NumRecords() const { return cells_.size(); }
  CellId cell(RecordPos i) const { return cells_[i]; }
  TableId table(RecordPos i) const { return tables_[i]; }
  int32_t column(RecordPos i) const { return columns_[i]; }
  int32_t row(RecordPos i) const { return rows_[i]; }
  uint64_t super_key(RecordPos i) const { return super_keys_[i]; }
  int8_t quadrant(RecordPos i) const { return quadrants_[i]; }

  std::span<const RecordPos> PostingList(CellId id) const {
    return secondary_.PostingList(id);
  }
  size_t PostingCount(CellId id) const { return secondary_.PostingCount(id); }
  std::pair<RecordPos, RecordPos> TableRange(TableId id) const {
    return secondary_.TableRange(id);
  }
  std::span<const RecordPos> QuadrantPositions() const {
    return secondary_.quadrant_positions.span();
  }
  size_t NumTables() const { return secondary_.NumTables(); }
  /// Mean records per (TableId, RowId) group, rounded up (see
  /// MeanRecordsPerRow); computed once when the store is built or loaded.
  uint32_t RecordsPerRow() const { return records_per_row_; }
  const SecondaryIndexes& secondary() const { return secondary_; }

  size_t ApproxBytes() const {
    return cells_.size() * (sizeof(CellId) + sizeof(TableId) + 2 * sizeof(int32_t) +
                            sizeof(uint64_t) + sizeof(int8_t)) +
           secondary_.ApproxBytes();
  }

 private:
  friend class SnapshotCodec;

  PodArray<CellId> cells_;
  PodArray<TableId> tables_;
  PodArray<int32_t> columns_;
  PodArray<int32_t> rows_;
  PodArray<uint64_t> super_keys_;
  PodArray<int8_t> quadrants_;
  SecondaryIndexes secondary_;
  uint32_t records_per_row_ = 1;
};

/// Mean records per (TableId, RowId) group, rounded up: the records a key
/// seek reads per distinct key. A table's groups are counted as the span of
/// its RowIds (records ascend by row within the table's range), so this is
/// one pass over the table ranges, never over the records.
template <typename Store>
uint32_t MeanRecordsPerRow(const Store& store) {
  uint64_t rows = 0;
  for (size_t t = 0; t < store.NumTables(); ++t) {
    const auto [b, e] = store.TableRange(static_cast<TableId>(t));
    if (b >= e) continue;
    const int64_t span = int64_t{store.row(e - 1)} - store.row(b) + 1;
    rows += static_cast<uint64_t>(std::max<int64_t>(1, span));
  }
  if (rows == 0) return 1;
  return static_cast<uint32_t>((store.NumRecords() + rows - 1) / rows);
}

}  // namespace blend
