#include "index/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"

namespace blend {
namespace {

template <typename Store>
void ExpectStoresEqual(const Store& a, const Store& b, size_t num_cells) {
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  ASSERT_EQ(a.NumTables(), b.NumTables());
  for (RecordPos i = 0; i < a.NumRecords(); ++i) {
    ASSERT_EQ(a.cell(i), b.cell(i)) << "record " << i;
    ASSERT_EQ(a.table(i), b.table(i)) << "record " << i;
    ASSERT_EQ(a.column(i), b.column(i)) << "record " << i;
    ASSERT_EQ(a.row(i), b.row(i)) << "record " << i;
    ASSERT_EQ(a.super_key(i), b.super_key(i)) << "record " << i;
    ASSERT_EQ(a.quadrant(i), b.quadrant(i)) << "record " << i;
  }
  auto spans_equal = [](std::span<const RecordPos> x, std::span<const RecordPos> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (CellId id = 0; id < static_cast<CellId>(num_cells); ++id) {
    ASSERT_TRUE(spans_equal(a.PostingList(id), b.PostingList(id)))
        << "cell " << id;
  }
  for (TableId t = 0; t < static_cast<TableId>(a.NumTables()); ++t) {
    ASSERT_EQ(a.TableRange(t), b.TableRange(t)) << "table " << t;
  }
  ASSERT_TRUE(spans_equal(a.QuadrantPositions(), b.QuadrantPositions()));
  ASSERT_EQ(a.ApproxBytes(), b.ApproxBytes());
}

/// Full bit-identity: same dictionary ids, records, secondary indexes, row
/// maps and footprint.
void ExpectBundlesIdentical(const IndexBundle& a, const IndexBundle& b) {
  ASSERT_EQ(a.layout(), b.layout());
  ASSERT_EQ(a.dictionary().Size(), b.dictionary().Size());
  for (CellId id = 0; id < static_cast<CellId>(a.dictionary().Size()); ++id) {
    ASSERT_EQ(a.dictionary().Value(id), b.dictionary().Value(id)) << "id " << id;
  }
  if (a.layout() == StoreLayout::kRow) {
    ExpectStoresEqual(a.row_store(), b.row_store(), a.dictionary().Size());
  } else {
    ExpectStoresEqual(a.column_store(), b.column_store(), a.dictionary().Size());
  }
  for (RecordPos i = 0; i < a.NumRecords(); ++i) {
    TableId t = a.layout() == StoreLayout::kRow ? a.row_store().table(i)
                                                : a.column_store().table(i);
    int32_t r = a.layout() == StoreLayout::kRow ? a.row_store().row(i)
                                                : a.column_store().row(i);
    ASSERT_EQ(a.OriginalRow(t, r), b.OriginalRow(t, r))
        << "table " << t << " row " << r;
  }
  ASSERT_EQ(a.ApproxBytes(), b.ApproxBytes());
}

DataLake SmallLake() {
  DataLake lake("small");
  Table t("t0");
  t.AddColumn("name");
  t.AddColumn("score");
  (void)t.AppendRow({"Alpha", "1"});
  (void)t.AppendRow({"Beta", "3"});
  (void)t.AppendRow({"alpha ", "5"});  // normalizes to same token as row 0
  (void)t.AppendRow({"", "7"});        // empty cell not indexed
  lake.AddTable(std::move(t));
  return lake;
}

TEST(IndexBuilderTest, IndexesNormalizedCellsOnly) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  // 7 non-empty cells (4 score values + 3 names).
  EXPECT_EQ(bundle.NumRecords(), 7u);
  // alpha appears twice but is one dictionary entry.
  EXPECT_NE(bundle.dictionary().Find("alpha"), kInvalidCellId);
  EXPECT_EQ(bundle.dictionary().Find("Alpha"), kInvalidCellId);  // not normalized
}

TEST(IndexBuilderTest, QuadrantBitsMatchColumnMean) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  // Mean of {1,3,5,7} = 4; quadrant = value >= 4.
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    if (store.column(i) != 1) {
      EXPECT_EQ(store.quadrant(i), kQuadrantNull);
      continue;
    }
    std::string_view v = bundle.dictionary().Value(store.cell(i));
    double num = *ParseNumeric(v);
    EXPECT_EQ(store.quadrant(i), num >= 4.0 ? 1 : 0) << "value " << v;
  }
}

TEST(IndexBuilderTest, PostingsAreComplete) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  CellId alpha = bundle.dictionary().Find("alpha");
  ASSERT_NE(alpha, kInvalidCellId);
  EXPECT_EQ(store.PostingList(alpha).size(), 2u);
  for (RecordPos p : store.PostingList(alpha)) {
    EXPECT_EQ(store.cell(p), alpha);
  }
}

TEST(IndexBuilderTest, TableRangesCoverAllRecords) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  size_t covered = 0;
  for (TableId t = 0; t < static_cast<TableId>(store.NumTables()); ++t) {
    auto [b, e] = store.TableRange(t);
    for (RecordPos p = b; p < e; ++p) {
      EXPECT_EQ(store.table(p), t);
      ++covered;
    }
  }
  EXPECT_EQ(covered, store.NumRecords());
}

TEST(IndexBuilderTest, TableRangeRejectsOutOfRangeIds) {
  // Mirrors the Postings guard: ids outside the indexed lake (negative or too
  // large — both arise when callers feed user input straight into the
  // clustered index) must read as an empty range, never out of bounds.
  DataLake lake = SmallLake();
  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);
  const auto num_tables = static_cast<TableId>(col.NumTables());
  const std::pair<RecordPos, RecordPos> empty{0, 0};
  for (TableId bad : {TableId{-1}, TableId{-1000}, num_tables,
                      static_cast<TableId>(num_tables + 7)}) {
    EXPECT_EQ(row.row_store().TableRange(bad), empty) << "table " << bad;
    EXPECT_EQ(col.column_store().TableRange(bad), empty) << "table " << bad;
  }
  // In-range ids are unaffected by the guard.
  EXPECT_EQ(col.column_store().TableRange(0).second, col.NumRecords());
}

TEST(IndexBuilderTest, RowAndColumnStoresHoldIdenticalRecords) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 15;
  DataLake lake = lakegen::MakeJoinLake(spec);

  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);

  ASSERT_EQ(row.row_store().NumRecords(), col.column_store().NumRecords());
  for (size_t i = 0; i < row.row_store().NumRecords(); ++i) {
    EXPECT_EQ(row.row_store().cell(i), col.column_store().cell(i));
    EXPECT_EQ(row.row_store().table(i), col.column_store().table(i));
    EXPECT_EQ(row.row_store().column(i), col.column_store().column(i));
    EXPECT_EQ(row.row_store().row(i), col.column_store().row(i));
    EXPECT_EQ(row.row_store().super_key(i), col.column_store().super_key(i));
    EXPECT_EQ(row.row_store().quadrant(i), col.column_store().quadrant(i));
  }
}

TEST(IndexBuilderTest, SuperKeyConsistentWithinRow) {
  DataLake lake = SmallLake();
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();
  // All records of the same (table, row) share one super key.
  std::unordered_map<int64_t, uint64_t> seen;
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    int64_t key = (static_cast<int64_t>(store.table(i)) << 32) | store.row(i);
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(key, store.super_key(i));
    } else {
      EXPECT_EQ(it->second, store.super_key(i));
    }
  }
}

TEST(IndexBuilderTest, ShuffledRowsMapBackToOriginals) {
  auto fig1 = lakegen::MakeFig1Lake();
  IndexBuildOptions opts;
  opts.shuffle_rows = true;
  opts.shuffle_seed = 5;
  IndexBundle bundle = IndexBuilder(opts).Build(fig1.lake);
  const auto& store = bundle.column_store();
  for (size_t i = 0; i < store.NumRecords(); ++i) {
    TableId t = store.table(i);
    int32_t orig = bundle.OriginalRow(t, store.row(i));
    const Table& table = fig1.lake.table(t);
    std::string_view indexed = bundle.dictionary().Value(store.cell(i));
    // The indexed cell must equal the normalized original cell.
    EXPECT_EQ(indexed, NormalizeCell(table.At(static_cast<size_t>(orig),
                                              static_cast<size_t>(store.column(i)))));
  }
}

TEST(IndexBuilderTest, IdentityRowMapWithoutShuffle) {
  auto fig1 = lakegen::MakeFig1Lake();
  IndexBundle bundle = IndexBuilder().Build(fig1.lake);
  EXPECT_EQ(bundle.OriginalRow(0, 3), 3);
}

TEST(IndexBuilderTest, QuadrantPositionsIndexIsComplete) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 25;
  spec.numeric_col_prob = 0.5;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBundle bundle = IndexBuilder().Build(lake);
  const auto& store = bundle.column_store();

  std::unordered_set<RecordPos> indexed(store.QuadrantPositions().begin(),
                                        store.QuadrantPositions().end());
  size_t expected = 0;
  for (RecordPos p = 0; p < store.NumRecords(); ++p) {
    if (store.quadrant(p) != kQuadrantNull) {
      ++expected;
      EXPECT_TRUE(indexed.count(p) > 0) << "missing position " << p;
    } else {
      EXPECT_FALSE(indexed.count(p) > 0) << "spurious position " << p;
    }
  }
  EXPECT_EQ(indexed.size(), expected);
  // Ascending order (the builder emits in physical order).
  for (size_t i = 1; i < store.QuadrantPositions().size(); ++i) {
    EXPECT_LT(store.QuadrantPositions()[i - 1], store.QuadrantPositions()[i]);
  }
}

TEST(IndexBuilderTest, ParallelBuildIsBitIdentical) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 40;
  spec.numeric_col_prob = 0.5;
  DataLake lake = lakegen::MakeJoinLake(spec);

  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      IndexBuildOptions opts;
      opts.layout = layout;
      opts.shuffle_rows = shuffle;
      opts.num_threads = 1;
      IndexBundle serial = IndexBuilder(opts).Build(lake);
      for (int threads : {2, 3, 4}) {
        opts.num_threads = threads;
        IndexBundle parallel = IndexBuilder(opts).Build(lake);
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) +
                     " threads=" + std::to_string(threads));
        ExpectBundlesIdentical(serial, parallel);
      }
    }
  }
}

TEST(IndexBuilderTest, ParallelBuildWithMoreThreadsThanTables) {
  DataLake lake = SmallLake();  // one table
  IndexBuildOptions opts;
  opts.num_threads = 8;
  IndexBundle parallel = IndexBuilder(opts).Build(lake);
  opts.num_threads = 1;
  IndexBundle serial = IndexBuilder(opts).Build(lake);
  ExpectBundlesIdentical(serial, parallel);
}

TEST(IndexBuilderTest, OriginalRowRejectsOutOfRangeIds) {
  auto fig1 = lakegen::MakeFig1Lake();
  IndexBuildOptions opts;
  opts.shuffle_rows = true;
  IndexBundle bundle = IndexBuilder(opts).Build(fig1.lake);
  const auto num_tables = static_cast<TableId>(bundle.NumTables());
  const auto rows0 = static_cast<int32_t>(fig1.lake.table(0).NumRows());

  // Out-of-range table ids.
  EXPECT_EQ(bundle.OriginalRow(-1, 0), IndexBundle::kInvalidRow);
  EXPECT_EQ(bundle.OriginalRow(num_tables, 0), IndexBundle::kInvalidRow);
  // Out-of-range row ids.
  EXPECT_EQ(bundle.OriginalRow(0, -1), IndexBundle::kInvalidRow);
  EXPECT_EQ(bundle.OriginalRow(0, rows0), IndexBundle::kInvalidRow);
  // In-range ids still resolve to a valid original row.
  int32_t orig = bundle.OriginalRow(0, 0);
  EXPECT_GE(orig, 0);
  EXPECT_LT(orig, rows0);

  // Identity (unshuffled) bundles validate the table id and row sign too.
  IndexBundle identity = IndexBuilder().Build(fig1.lake);
  EXPECT_EQ(identity.OriginalRow(-1, 0), IndexBundle::kInvalidRow);
  EXPECT_EQ(identity.OriginalRow(num_tables, 0), IndexBundle::kInvalidRow);
  EXPECT_EQ(identity.OriginalRow(0, -1), IndexBundle::kInvalidRow);
  EXPECT_EQ(identity.OriginalRow(0, 2), 2);
}

TEST(IndexBuilderTest, ApproxBytesPositiveAndLayoutDependent) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = lakegen::MakeJoinLake(spec);
  IndexBuildOptions row_opts;
  row_opts.layout = StoreLayout::kRow;
  IndexBundle row = IndexBuilder(row_opts).Build(lake);
  IndexBundle col = IndexBuilder().Build(lake);
  EXPECT_GT(row.ApproxBytes(), 0u);
  EXPECT_GT(col.ApproxBytes(), 0u);
}

}  // namespace
}  // namespace blend
