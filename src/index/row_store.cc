#include "index/all_tables.h"

namespace blend {

void RowStore::Build(std::vector<IndexRecord> records, size_t num_cells,
                     size_t num_tables) {
  records_.Own(std::move(records));
  secondary_.Build(records_.span(), num_cells, num_tables);
  records_per_row_ = MeanRecordsPerRow(*this);
}

}  // namespace blend
