#include "index/all_tables.h"

namespace blend {

void SecondaryIndexes::Build(std::span<const IndexRecord> records,
                             size_t num_cells, size_t num_tables) {
  // CSR postings in two passes: count, prefix-sum, fill with a running
  // cursor. Scanning records in physical order keeps every list ascending.
  std::vector<uint64_t> offsets(num_cells + 1, 0);
  for (const auto& r : records) ++offsets[static_cast<size_t>(r.cell) + 1];
  for (size_t c = 0; c < num_cells; ++c) offsets[c + 1] += offsets[c];
  std::vector<RecordPos> positions(records.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (RecordPos i = 0; i < records.size(); ++i) {
    positions[cursor[records[i].cell]++] = i;
  }
  posting_offsets.Own(std::move(offsets));
  posting_positions.Own(std::move(positions));

  std::vector<RecordPos> quadrants;
  for (RecordPos i = 0; i < records.size(); ++i) {
    if (records[i].quadrant != kQuadrantNull) quadrants.push_back(i);
  }
  quadrant_positions.Own(std::move(quadrants));

  std::vector<RecordPos> ranges(2 * num_tables, 0);
  size_t i = 0;
  while (i < records.size()) {
    TableId t = records[i].table;
    size_t j = i;
    while (j < records.size() && records[j].table == t) ++j;
    ranges[2 * static_cast<size_t>(t)] = static_cast<RecordPos>(i);
    ranges[2 * static_cast<size_t>(t) + 1] = static_cast<RecordPos>(j);
    i = j;
  }
  table_ranges.Own(std::move(ranges));
}

size_t SecondaryIndexes::ApproxBytes() const {
  return posting_offsets.size() * sizeof(uint64_t) +
         (posting_positions.size() + table_ranges.size() +
          quadrant_positions.size()) *
             sizeof(RecordPos);
}

}  // namespace blend
