#include "index/all_tables.h"

namespace blend {

void ColumnStore::Build(std::vector<IndexRecord> records, size_t num_cells,
                        size_t num_tables) {
  const size_t n = records.size();
  std::vector<CellId> cells(n);
  std::vector<TableId> tables(n);
  std::vector<int32_t> columns(n);
  std::vector<int32_t> rows(n);
  std::vector<uint64_t> super_keys(n);
  std::vector<int8_t> quadrants(n);
  for (size_t i = 0; i < n; ++i) {
    const IndexRecord& r = records[i];
    cells[i] = r.cell;
    tables[i] = r.table;
    columns[i] = r.column;
    rows[i] = r.row;
    super_keys[i] = r.super_key;
    quadrants[i] = r.quadrant;
  }
  cells_.Own(std::move(cells));
  tables_.Own(std::move(tables));
  columns_.Own(std::move(columns));
  rows_.Own(std::move(rows));
  super_keys_.Own(std::move(super_keys));
  quadrants_.Own(std::move(quadrants));
  secondary_.Build(records, num_cells, num_tables);
  records_per_row_ = MeanRecordsPerRow(*this);
}

}  // namespace blend
