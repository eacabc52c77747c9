#include "index/builder.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/hashing.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "common/xash.h"

namespace blend {

size_t IndexBundle::ApproxBytes() const {
  size_t store = layout_ == StoreLayout::kRow ? row_store_.ApproxBytes()
                                              : column_store_.ApproxBytes();
  size_t maps = 0;
  for (const auto& m : row_maps_) maps += m.size() * sizeof(int32_t);
  return store + dict_.ApproxBytes() + maps;
}

namespace {

/// Independent per-table shuffle seed. Seeding per table — instead of
/// threading one generator through the whole lake — is what makes the
/// shuffled build shard-independent: a worker can permute table 17 without
/// knowing how many random draws tables 0..16 consumed.
uint64_t TableShuffleSeed(uint64_t seed, TableId tid) {
  return Mix64(seed + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(tid) + 1));
}

/// Indexes the contiguous table range [begin, end): interns normalized cells
/// into `dict`, emits one IndexRecord per non-empty cell into `records`
/// (table-major, row-major — the serial emission order), and fills
/// `row_maps[t]` for shuffled builds. `dict` may be shard-local; the caller
/// remaps cell ids afterwards. `row_maps` is shared across shards but each
/// shard writes only its own disjoint table slots.
void IndexTableRange(const DataLake& lake, TableId begin, TableId end,
                     const IndexBuildOptions& options, Dictionary* dict,
                     std::vector<IndexRecord>* records,
                     std::vector<std::vector<int32_t>>* row_maps) {
  size_t range_cells = 0;
  for (TableId tid = begin; tid < end; ++tid) {
    range_cells += lake.table(tid).NumCells();
  }
  records->reserve(records->size() + range_cells);

  for (TableId tid = begin; tid < end; ++tid) {
    const Table& t = lake.table(tid);
    const size_t rows = t.NumRows();
    const size_t cols = t.NumColumns();

    // Per-column numeric means for the quadrant bit.
    std::vector<std::optional<double>> means(cols);
    std::vector<bool> numeric(cols, false);
    for (size_t c = 0; c < cols; ++c) {
      if (t.column(c).IsNumeric()) {
        numeric[c] = true;
        means[c] = t.column(c).NumericMean();
      }
    }

    // RowId assignment order: identity or shuffled (BLEND(rand)).
    std::vector<int32_t> order(rows);
    for (size_t r = 0; r < rows; ++r) order[r] = static_cast<int32_t>(r);
    if (options.shuffle_rows) {
      Rng rng(TableShuffleSeed(options.shuffle_seed, tid));
      rng.Shuffle(&order);
      (*row_maps)[static_cast<size_t>(tid)] = order;
    }

    std::vector<std::string> normalized(cols);
    std::vector<std::string_view> row_views;
    for (size_t out_row = 0; out_row < rows; ++out_row) {
      const size_t src_row = static_cast<size_t>(order[out_row]);
      row_views.clear();
      for (size_t c = 0; c < cols; ++c) {
        normalized[c] = NormalizeCell(t.At(src_row, c));
        if (!normalized[c].empty()) row_views.push_back(normalized[c]);
      }
      const uint64_t super_key = Xash::SuperKey(row_views);

      for (size_t c = 0; c < cols; ++c) {
        if (normalized[c].empty()) continue;
        IndexRecord rec;
        rec.cell = dict->Intern(normalized[c]);
        rec.table = tid;
        rec.column = static_cast<int32_t>(c);
        rec.row = static_cast<int32_t>(out_row);
        rec.super_key = super_key;
        rec.quadrant = kQuadrantNull;
        if (numeric[c] && means[c].has_value()) {
          auto v = ParseNumeric(t.At(src_row, c));
          if (v.has_value()) rec.quadrant = (*v >= *means[c]) ? 1 : 0;
        }
        records->push_back(rec);
      }
    }
  }
}

/// Contiguous [begin, end) table ranges, one per shard, balanced by cell
/// count (tables vary widely in size; splitting by table count alone leaves
/// the shard with the big tables as the critical path).
std::vector<std::pair<TableId, TableId>> ShardRanges(const DataLake& lake,
                                                     size_t num_shards) {
  const auto num_tables = static_cast<TableId>(lake.NumTables());
  const double total = static_cast<double>(lake.TotalCells());
  std::vector<std::pair<TableId, TableId>> ranges;
  ranges.reserve(num_shards);
  TableId start = 0;
  size_t cells_before = 0;
  for (TableId tid = 0; tid < num_tables; ++tid) {
    cells_before += lake.table(tid).NumCells();
    const size_t shards_closed = ranges.size();
    const TableId tables_left = num_tables - (tid + 1);
    const auto shards_left =
        static_cast<TableId>(num_shards - shards_closed - 1);
    const double target =
        total * static_cast<double>(shards_closed + 1) /
        static_cast<double>(num_shards);
    if (shards_left > 0 && tables_left >= shards_left &&
        static_cast<double>(cells_before) >= target) {
      ranges.emplace_back(start, tid + 1);
      start = tid + 1;
    }
  }
  ranges.emplace_back(start, num_tables);
  return ranges;
}

}  // namespace

IndexBundle IndexBuilder::Build(const DataLake& lake) const {
  IndexBundle bundle;
  bundle.layout_ = options_.layout;
  const auto num_tables = static_cast<TableId>(lake.NumTables());
  if (options_.shuffle_rows) bundle.row_maps_.resize(lake.NumTables());

  // 0 = one per hardware thread; negative values clamp to serial rather than
  // silently selecting maximum parallelism. The shard geometry is fixed by
  // this knob alone, never by pool occupancy, so the build stays
  // byte-identical no matter which workers run which shard.
  const size_t want = ResolveThreads(options_.num_threads);
  const size_t num_shards =
      std::max<size_t>(1, std::min(want, lake.NumTables()));

  std::vector<IndexRecord> records;
  if (num_shards <= 1) {
    IndexTableRange(lake, 0, num_tables, options_, &bundle.dict_, &records,
                    &bundle.row_maps_);
  } else {
    // Shards run as one task group on the process-wide pool (the offline
    // counterpart of the query engine's morsel tasks); each worker interns
    // into its own dictionary so the hot intern path stays lock-free.
    const auto ranges = ShardRanges(lake, num_shards);
    std::vector<Dictionary> dicts(ranges.size());
    std::vector<std::vector<IndexRecord>> shard_records(ranges.size());
    Scheduler::Default()->ParallelFor(ranges.size(), [&](size_t s) {
      IndexTableRange(lake, ranges[s].first, ranges[s].second, options_,
                      &dicts[s], &shard_records[s], &bundle.row_maps_);
    });

    // Deterministic merge. Shards cover ascending table ranges and each local
    // dictionary lists values in first-appearance order, so interning shard by
    // shard reproduces exactly the CellId assignment of a serial scan.
    records.reserve(lake.TotalCells());
    std::vector<CellId> remap;
    for (size_t s = 0; s < ranges.size(); ++s) {
      remap.resize(dicts[s].Size());
      for (CellId local = 0; local < static_cast<CellId>(dicts[s].Size());
           ++local) {
        remap[local] = bundle.dict_.Intern(dicts[s].Value(local));
      }
      for (IndexRecord rec : shard_records[s]) {
        rec.cell = remap[rec.cell];
        records.push_back(rec);
      }
      // Release each shard once merged: record storage dominates the build's
      // footprint, and holding every shard until the end would double it.
      std::vector<IndexRecord>().swap(shard_records[s]);
    }
  }

  const size_t num_cells = bundle.dict_.Size();
  if (options_.layout == StoreLayout::kRow) {
    bundle.row_store_.Build(std::move(records), num_cells, lake.NumTables());
  } else {
    bundle.column_store_.Build(std::move(records), num_cells, lake.NumTables());
  }
  return bundle;
}

}  // namespace blend
