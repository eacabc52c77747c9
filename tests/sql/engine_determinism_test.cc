#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <cstdio>

#include "common/control.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "index/builder.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "lakegen/workloads.h"
#include "sql/engine.h"

namespace blend::sql {
namespace {

/// Shared work-stealing pools of the sizes the acceptance matrix calls for
/// ({1, 2, 4, hardware}); function-local statics so every suite in this
/// binary reuses the same worker threads.
std::vector<Scheduler*> TestPools() {
  static Scheduler pool2(2);
  static Scheduler pool4(4);
  std::vector<Scheduler*> pools = {Scheduler::Serial(), &pool2, &pool4};
  if (std::thread::hardware_concurrency() > 4) pools.push_back(Scheduler::Default());
  return pools;
}

/// Property suite for the engine's determinism contract: for representative
/// seeker-shaped SQL, Query over a pool of N threads must return rows
/// byte-identical (values *and* order) to the serial run, for N in
/// {2, 4, hardware}, on both physical layouts, with the fused fast paths on
/// or off, and with the key-seek override on or off (join shapes).
class EngineDeterminismTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  EngineDeterminismTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 50;
    spec.num_domains = 6;
    spec.domain_vocab = 250;
    spec.seed = GetParam();
    lake_ = lakegen::MakeJoinLake(spec);

    IndexBuildOptions row_opts;
    row_opts.layout = StoreLayout::kRow;
    row_bundle_ = IndexBuilder(row_opts).Build(lake_);
    col_bundle_ = IndexBuilder().Build(lake_);
    row_engine_ = std::make_unique<Engine>(&row_bundle_);
    col_engine_ = std::make_unique<Engine>(&col_bundle_);
  }

  static std::string ResultToString(const QueryResult& r) {
    std::string out;
    for (const auto& c : r.columns) out += c + "|";
    out += "\n";
    for (const auto& row : r.rows) {
      for (const auto& v : row) {
        if (v.is_null()) {
          out += "NULL,";
        } else if (v.kind == SqlValue::Kind::kInt) {
          out += std::to_string(v.i) + ",";
        } else {
          char buf[40];
          // Full round-trip precision: the contract is byte-identity, not
          // approximate equality.
          snprintf(buf, sizeof(buf), "%.17g,", v.d);
          out += buf;
        }
      }
      out += "\n";
    }
    return out;
  }

  /// One engine per physical layout.
  std::vector<Engine*> Engines() { return {row_engine_.get(), col_engine_.get()}; }

  /// Runs `sql` serially as the reference, then asserts every (pool, fused,
  /// key-seek override) combination reproduces it exactly on both layouts. The override is only
  /// swept for join statements — it cannot engage anywhere else. Every run,
  /// the reference included, applies the given engine-side dedup-top-k.
  void ExpectDeterministic(const std::string& sql, int dedup_column = -1,
                           int64_t dedup_limit = -1) {
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> key_seek_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (Engine* engine : Engines()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      serial.dedup_column = dedup_column;
      serial.dedup_limit = dedup_limit;
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Scheduler* pool : TestPools()) {
        for (bool fused : {true, false}) {
          for (bool key_seek : key_seek_dims) {
            QueryOptions opts;
            opts.scheduler = pool;
            opts.enable_fused_scan_agg = fused;
            opts.enable_key_seek = key_seek;
            opts.dedup_column = dedup_column;
            opts.dedup_limit = dedup_limit;
            auto got = engine->Query(sql, opts);
            ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
            EXPECT_EQ(want, ResultToString(got.value()))
                << "pool=" << pool->parallelism() << " fused=" << fused
                << " key_seek=" << key_seek << " dedup=" << dedup_column << "/"
                << dedup_limit << "\n"
                << sql;
          }
        }
      }
    }
  }

  std::string RandomInList(Rng* rng, size_t max_items) {
    std::vector<std::string> vals =
        lakegen::SampleColumnQuery(lake_, 1 + rng->Uniform(max_items), rng);
    if (vals.empty()) vals.push_back("determinism-probe");
    return SqlInList(vals);
  }

  DataLake lake_;
  IndexBundle row_bundle_, col_bundle_;
  std::unique_ptr<Engine> row_engine_, col_engine_;
};

TEST_P(EngineDeterminismTest, ScShape) {
  Rng rng(GetParam() * 31 + 1);
  for (int i = 0; i < 4; ++i) {
    ExpectDeterministic(
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 40) +
        ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;");
  }
}

TEST_P(EngineDeterminismTest, ScShapeWithoutOrderByExposesGroupOrder) {
  // No ORDER BY: the raw group order (first-appearance order) is the output
  // order, so this shape catches any scheduling-dependent ordering directly.
  Rng rng(GetParam() * 37 + 2);
  ExpectDeterministic(
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 30) + ") GROUP BY TableId, ColumnId;");
}

TEST_P(EngineDeterminismTest, KwShape) {
  Rng rng(GetParam() * 41 + 3);
  for (int i = 0; i < 3; ++i) {
    ExpectDeterministic(
        "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 10) +
        ") GROUP BY TableId ORDER BY score DESC LIMIT 10;");
  }
}

TEST_P(EngineDeterminismTest, AggregateShapesUnderEveryDedupSpec) {
  // The dedup dimension every SC and C seeker statement runs under
  // (QueryOptions::dedup_column / dedup_limit), swept over the shapes where
  // the fused operator's packed dedup-top-k tail could drift from
  // SortAndLimit: ties at the k-th score, LIMIT on either side of the dedup
  // limit, ascending and mixed-direction orders, a permuted select list, a
  // TableId-only grouping, no ORDER BY, an IN-list without dictionary hits,
  // TableId IN / NOT IN residuals, and one expression-shaped ORDER BY that
  // the fused gate sends to the generic pipeline.
  Rng rng(GetParam() * 71 + 11);
  const std::string in = "CellValue IN (" + RandomInList(&rng, 40) + ")";
  const std::string sc = "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) "
                         "AS score FROM AllTables WHERE ";
  const std::string permuted = "SELECT ColumnId, TableId, COUNT(DISTINCT CellValue) "
                               "AS score FROM AllTables WHERE ";
  const std::string kw = "SELECT TableId, COUNT(DISTINCT CellValue) AS score "
                         "FROM AllTables WHERE ";
  const std::string by_col = " GROUP BY TableId, ColumnId";
  const std::vector<std::string> sqls = {
      sc + in + by_col + " ORDER BY score DESC LIMIT 3;",
      sc + in + by_col + " ORDER BY score DESC LIMIT 2;",
      sc + in + by_col + " ORDER BY score DESC LIMIT 20;",
      sc + in + by_col + " ORDER BY score;",
      sc + in + by_col + " ORDER BY TableId DESC, score LIMIT 12;",
      permuted + in + by_col + " ORDER BY score DESC;",
      kw + in + " GROUP BY TableId ORDER BY score DESC LIMIT 4;",
      sc + in + by_col + ";",
      sc + in + by_col + " LIMIT 6;",
      sc + "CellValue IN ('zz no such value', 'zz nor this one')" + by_col +
          " ORDER BY score DESC LIMIT 5;",
      sc + in + " AND TableId IN (0, 2, 3, 5, 8, 13, 21, 34)" + by_col +
          " ORDER BY score DESC;",
      sc + in + " AND TableId NOT IN (1, 4, 9, 16, 25)" + by_col +
          " ORDER BY score DESC LIMIT 8;",
      sc + in + by_col + " ORDER BY COUNT(DISTINCT CellValue) * 2 DESC LIMIT 7;",
  };
  for (const std::string& sql : sqls) {
    for (int dedup_column : {-1, 0, 1}) {
      for (int64_t dedup_limit : {-1, 1, 5}) {
        ExpectDeterministic(sql, dedup_column, dedup_limit);
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ProjectionShapeUnderEveryDedupSpec) {
  // The single-relation projection over a CellValue IN-list (one MC column's
  // candidate rows), swept over the ORDER BY / LIMIT / scan-filter /
  // dedup-top-k tail it can carry.
  Rng rng(GetParam() * 79 + 13);
  const std::string proj = "SELECT TableId, RowId, SuperKey FROM AllTables "
                           "WHERE CellValue IN (" + RandomInList(&rng, 30) + ")";
  const std::vector<std::string> sqls = {
      proj + ";",
      proj + " ORDER BY TableId DESC, RowId LIMIT 15;",
      proj + " AND TableId IN (0, 2, 3, 5, 8, 13, 21, 34) AND TableId NOT IN (3, 21)"
             " AND RowId < 30;",
      proj + " LIMIT 9;",
  };
  for (const std::string& sql : sqls) {
    for (int dedup_column : {-1, 0}) {
      for (int64_t dedup_limit : {-1, 3}) {
        ExpectDeterministic(sql, dedup_column, dedup_limit);
      }
    }
  }
}

TEST_P(EngineDeterminismTest, McJoinShape) {
  Rng rng(GetParam() * 43 + 4);
  for (int i = 0; i < 3; ++i) {
    ExpectDeterministic(
        "SELECT a.TableId, a.RowId, a.SuperKey FROM "
        "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 25) +
        ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
        "WHERE CellValue IN (" +
        RandomInList(&rng, 25) + ")) AS b ON a.TableId = b.TableId AND "
        "a.RowId = b.RowId;");
  }
}

TEST_P(EngineDeterminismTest, McJoinShapeWithLimitAndThreeRelations) {
  // LIMIT caps the join's emission; the three-way join runs a second join
  // step on the prefix of the first.
  Rng rng(GetParam() * 67 + 9);
  ExpectDeterministic(
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 25) +
      ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 25) +
      ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId LIMIT 100;");
  ExpectDeterministic(
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId "
      "INNER JOIN (SELECT TableId, RowId FROM AllTables "
      "WHERE CellValue IN (" +
      RandomInList(&rng, 20) +
      ")) AS c ON a.TableId = c.TableId AND a.RowId = c.RowId;");
}

TEST_P(EngineDeterminismTest, CorrelationShape) {
  Rng rng(GetParam() * 47 + 5);
  std::string keys = RandomInList(&rng, 25);
  ExpectDeterministic(
      "SELECT keys.TableId AS TableId, keys.ColumnId AS KeyCol, "
      "nums.ColumnId AS NumCol, "
      "ABS((2 * SUM((keys.CellValue IN (" +
      keys + ") AND nums.Quadrant = 0) OR (keys.CellValue IN (" + keys +
      ") AND nums.Quadrant = 1)) - COUNT(*)) / COUNT(*)) AS score "
      "FROM (SELECT TableId, RowId, ColumnId, CellValue FROM AllTables "
      "WHERE RowId < 64 AND CellValue IN (" +
      keys +
      ")) AS keys INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant "
      "FROM AllTables WHERE RowId < 64 AND Quadrant IS NOT NULL) AS nums "
      "ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId "
      "AND keys.ColumnId <> nums.ColumnId "
      "GROUP BY keys.TableId, keys.ColumnId, nums.ColumnId "
      "ORDER BY score DESC LIMIT 15;");
}

/// Key-seek join statements: no GROUP BY / ORDER BY, so the raw join
/// emission order is the output order and any divergence from the
/// materialized hash join (key-seek override off) shows directly. Each runs
/// the full determinism matrix, then a traced run pins how many join steps
/// the key seek served.
class KeySeekDeterminismTest : public EngineDeterminismTest {
 protected:
  void ExpectKeySeekDeterministic(const std::string& sql, int64_t seek_steps) {
    ExpectDeterministic(sql);
    if constexpr (!kTelemetryEnabled) return;
    for (bool key_seek : {true, false}) {
      QueryTrace trace;
      QueryOptions opts;
      opts.scheduler = Scheduler::Serial();
      opts.enable_key_seek = key_seek;
      opts.trace = &trace;
      ASSERT_TRUE(col_engine_->Query(sql, opts).ok()) << sql;
      const QueryTraceSummary s = trace.Summary();
      EXPECT_EQ(s.CounterValue(TraceCounter::kKeySeekSteps), key_seek ? seek_steps : 0)
          << "key_seek=" << key_seek << "\n" << sql;
    }
  }

  static std::string NumsSide(const std::string& where) {
    return "(SELECT TableId, RowId, ColumnId, Quadrant FROM AllTables WHERE " + where +
           ") AS n";
  }
  static constexpr const char* kOnKeys =
      " ON k.TableId = n.TableId AND k.RowId = n.RowId AND k.ColumnId <> n.ColumnId";
  static constexpr const char* kSelect =
      "SELECT k.TableId, k.RowId, k.ColumnId, n.ColumnId, n.Quadrant FROM ";

  // --- MC shape: posting-backed relations joined on (TableId, RowId). ---

  /// Postings of `values` (normalized, duplicates counted once) in the
  /// column-store bundle: the record count of a CellValue IN scan.
  size_t Postings(const std::vector<std::string>& values) const {
    std::vector<CellId> ids;
    for (const std::string& v : values) {
      ids.push_back(col_bundle_.dictionary().Find(NormalizeCell(v)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    size_t n = 0;
    for (CellId id : ids) {
      if (id != kInvalidCellId) n += col_bundle_.column_store().PostingCount(id);
    }
    return n;
  }
  size_t RecordsPerRow() const { return col_bundle_.column_store().RecordsPerRow(); }

  /// The lake's distinct non-empty cell values, most postings first (ties by
  /// value).
  std::vector<std::string> ByPostings() const {
    std::vector<std::pair<size_t, std::string>> ranked;
    std::set<std::string> seen;
    for (size_t t = 0; t < lake_.NumTables(); ++t) {
      const Table& table = lake_.table(static_cast<TableId>(t));
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        for (const std::string& v : table.column(c).cells) {
          if (!NormalizeCell(v).empty() && seen.insert(v).second) {
            ranked.emplace_back(Postings({v}), v);
          }
        }
      }
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    std::vector<std::string> out;
    for (auto& [n, v] : ranked) out.push_back(std::move(v));
    return out;
  }

  /// A selective MC probe against a wide side. `probe` is the rarest cell of
  /// a row holding two more cells whose CellValue ids run against their
  /// column order (`pair`); `wide` is that pair plus the lake's most frequent
  /// values until its postings exceed records-per-row × the probe's, so the
  /// planner seeks it.
  struct SelectiveShape {
    std::vector<std::string> probe, wide;
  };
  SelectiveShape Selective(size_t extra_wide = 0) const {
    const Dictionary& dict = col_bundle_.dictionary();
    SelectiveShape best;
    size_t best_postings = SIZE_MAX;
    for (size_t t = 0; t < lake_.NumTables(); ++t) {
      const Table& table = lake_.table(static_cast<TableId>(t));
      for (size_t r = 0; r < table.NumRows(); ++r) {
        std::vector<std::string> cells;
        for (size_t c = 0; c < table.NumColumns(); ++c) {
          if (!NormalizeCell(table.At(r, c)).empty()) cells.push_back(table.At(r, c));
        }
        if (cells.size() < 3) continue;
        size_t probe = 0;
        for (size_t i = 1; i < cells.size(); ++i) {
          if (Postings({cells[i]}) < Postings({cells[probe]})) probe = i;
        }
        for (size_t i = 0; i < cells.size(); ++i) {
          for (size_t j = i + 1; j < cells.size(); ++j) {
            if (i == probe || j == probe || cells[i] == cells[j]) continue;
            if (dict.Find(NormalizeCell(cells[j])) >= dict.Find(NormalizeCell(cells[i]))) {
              continue;
            }
            if (Postings({cells[probe]}) < best_postings) {
              best_postings = Postings({cells[probe]});
              best = {{cells[probe]}, {cells[i], cells[j]}};
            }
          }
        }
      }
    }
    EXPECT_FALSE(best.probe.empty()) << "no row with two cells in reversed id order";
    const std::vector<std::string> ranked = ByPostings();
    const size_t need = RecordsPerRow() * Postings(best.probe);
    size_t added = 0;
    for (const std::string& v : ranked) {
      if (Postings(best.wide) > need && added >= extra_wide) break;
      if (v == best.probe[0] || v == best.wide[0] || v == best.wide[1]) continue;
      best.wide.push_back(v);
      if (Postings(best.wide) > need) ++added;
    }
    EXPECT_GT(Postings(best.wide), need);
    return best;
  }

  static std::string McRel(const std::vector<std::string>& values,
                           const std::string& alias) {
    return "(SELECT TableId, RowId, ColumnId, SuperKey FROM AllTables WHERE "
           "CellValue IN (" + SqlInList(values) + ")) AS " + alias;
  }
  static std::string McJoin(const std::string& alias) {
    return " ON a.TableId = " + alias + ".TableId AND a.RowId = " + alias + ".RowId";
  }
  /// The MC seeker's statement with the joined relation's ColumnId exposed,
  /// so the order of one row's matches on that relation shows in the output.
  static std::string McSql(const std::vector<std::string>& a,
                           const std::vector<std::string>& b,
                           const std::string& tail = ";") {
    return "SELECT a.TableId, a.RowId, a.SuperKey, b.ColumnId FROM " + McRel(a, "a") +
           " INNER JOIN " + McRel(b, "b") + McJoin("b") + tail;
  }
};

TEST_P(KeySeekDeterminismTest, ProbesWithSoughtRecordsWhenTheyOutnumberThePrefix) {
  // Full-scan access path on the seeking relation: every cell of a key's row
  // passes, so the sought records outnumber the prefix and the step probes
  // with them.
  Rng rng(GetParam() * 79 + 12);
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE RowId < 64 AND "
          "CellValue IN (" +
          RandomInList(&rng, 25) +
          ")) AS k INNER JOIN (SELECT TableId, RowId, ColumnId, Quadrant FROM "
          "AllTables WHERE RowId < 64) AS n" +
          kOnKeys + ";",
      1);
  // The same step over the AllTables base relation (no scan predicate).
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 25) + ")) AS k INNER JOIN AllTables AS n" + kOnKeys + ";",
      1);
}

TEST_P(KeySeekDeterminismTest, BuildsOnTheFullScanWhenItFitsThePrefix) {
  // A wide prefix (every cell of rows < 40) against numeric cells of rows
  // < 2: the full filtered scan is no larger than the prefix, so the legacy
  // rule builds on the new relation and the bounded count must find that.
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE RowId < 40) AS k "
          "INNER JOIN " +
          NumsSide("RowId < 2 AND Quadrant IS NOT NULL") + kOnKeys + ";",
      1);
  // The same over a full-scan access path: every record is a candidate, so
  // the count cannot be settled by the candidate count and walks the scan.
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE RowId < 40) AS k "
          "INNER JOIN " +
          NumsSide("RowId < 2") + kOnKeys + ";",
      1);
}

TEST_P(KeySeekDeterminismTest, ProbesWhenOnlyTheFullScanOutnumbersThePrefix) {
  // |sought| <= |prefix| < |full filtered scan|: each prefix row is one of
  // several cells of its row while only the numeric ones are sought, yet the
  // lake's numeric cells outnumber the prefix. The bounded count must stop
  // past |prefix| and keep the probe-with-scan orientation.
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables "
          "WHERE TableId IN (1, 4, 9) AND RowId < 30) AS k INNER JOIN " +
          NumsSide("RowId < 64 AND Quadrant IS NOT NULL") + kOnKeys + ";",
      1);
}

TEST_P(KeySeekDeterminismTest, EmptyPrefixJoinsNothing) {
  // The feature-discovery plan's NOT IN rewrite can filter the keys side
  // away entirely; the seek then finds nothing and the result is empty.
  Rng rng(GetParam() * 83 + 13);
  std::string every_table;
  for (size_t t = 0; t < lake_.NumTables(); ++t) {
    every_table += (t == 0 ? "" : ", ") + std::to_string(t);
  }
  const std::string sql =
      std::string(kSelect) +
      "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE CellValue IN (" +
      RandomInList(&rng, 25) + ") AND TableId NOT IN (" + every_table +
      ")) AS k INNER JOIN " + NumsSide("RowId < 64 AND Quadrant IS NOT NULL") +
      kOnKeys + ";";
  ExpectKeySeekDeterministic(sql, 1);
  auto res = col_engine_->Query(sql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().NumRows(), 0u);
}

TEST_P(KeySeekDeterminismTest, TableIdAccessPathOnTheSeekingRelation) {
  // The seeking relation's TableId IN-list was its access path; under the
  // seek it filters the sought groups instead.
  Rng rng(GetParam() * 89 + 14);
  std::string even_tables;
  for (size_t t = 0; t < lake_.NumTables(); t += 2) {
    even_tables += (t == 0 ? "" : ", ") + std::to_string(t);
  }
  ExpectKeySeekDeterministic(
      std::string(kSelect) +
          "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 40) + ")) AS k INNER JOIN " +
          NumsSide("TableId IN (" + even_tables + ") AND Quadrant IS NOT NULL") +
          kOnKeys + ";",
      1);
}

TEST_P(KeySeekDeterminismTest, ThreeRelationChainSeeksOnRelationOne) {
  // Step 1 seeks on relation 0; step 2 seeks on relation 1's keys.
  Rng rng(GetParam() * 97 + 15);
  ExpectKeySeekDeterministic(
      "SELECT k.TableId, k.RowId, n.ColumnId, c.ColumnId FROM "
      "(SELECT TableId, RowId, ColumnId FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 25) + ")) AS k INNER JOIN " +
          NumsSide("RowId < 64 AND Quadrant IS NOT NULL") + kOnKeys +
          " INNER JOIN (SELECT TableId, RowId, ColumnId FROM AllTables "
          "WHERE RowId < 64) AS c ON n.TableId = c.TableId AND n.RowId = c.RowId "
          "AND c.ColumnId <> n.ColumnId;",
      2);
}

TEST_P(KeySeekDeterminismTest, SeeksTheWideSideOfASelectiveMcJoin) {
  // Records-per-row × the probe's postings < the wide side's postings: the
  // planner seeks the wide side. Its sought positions must come back in
  // posting-scan order — one row holds two wide-side cells whose ids run
  // against their column order.
  const SelectiveShape shape = Selective();
  ExpectKeySeekDeterministic(McSql(shape.probe, shape.wide), 1);
  ExpectKeySeekDeterministic(McSql(shape.probe, shape.wide, " LIMIT 3;"), 1);
  ExpectKeySeekDeterministic(McSql(shape.probe, shape.wide, " LIMIT 1;"), 1);
}

TEST_P(KeySeekDeterminismTest, HashJoinsBalancedMcSides) {
  // Relation 1 has no more postings than relation 0, so a seek cannot read
  // fewer records than the scan: the planner hash-joins, override or not.
  Rng rng(GetParam() * 101 + 16);
  const std::vector<std::string> ranked = ByPostings();
  const std::vector<std::string> heavy(ranked.begin(), ranked.begin() + 20);
  const std::vector<std::string> light(ranked.begin() + 20, ranked.begin() + 40);
  ASSERT_GE(Postings(heavy), Postings(light));
  ExpectKeySeekDeterministic(McSql(heavy, light), 0);
  ExpectKeySeekDeterministic(McSql(heavy, light, " LIMIT 5;"), 0);
  // The MC seeker's own balanced shape: one random IN-list on both sides.
  const std::string in = RandomInList(&rng, 25);
  ExpectKeySeekDeterministic(
      "SELECT a.TableId, a.RowId, a.SuperKey FROM (SELECT TableId, RowId, SuperKey "
      "FROM AllTables WHERE CellValue IN (" + in + ")) AS a INNER JOIN (SELECT "
      "TableId, RowId FROM AllTables WHERE CellValue IN (" + in + ")) AS b"
      " ON a.TableId = b.TableId AND a.RowId = b.RowId;",
      0);
  // The selective shape reversed: the probe is the joined relation.
  const SelectiveShape shape = Selective();
  ExpectKeySeekDeterministic(McSql(shape.wide, shape.probe), 0);
}

TEST_P(KeySeekDeterminismTest, McChainBoundsKeysByEveryEquatedRelation) {
  // selective ⋈ wide ⋈ wide: both steps seek. wide ⋈ selective ⋈ wide: step
  // 1 scans the probe, and step 2 seeks because the prefix's keys are bounded
  // by the probe's postings, not relation 0's.
  const SelectiveShape shape = Selective();
  const SelectiveShape wider = Selective(/*extra_wide=*/8);
  const std::string select =
      "SELECT a.TableId, a.RowId, b.ColumnId, c.ColumnId FROM ";
  ExpectKeySeekDeterministic(select + McRel(shape.probe, "a") + " INNER JOIN " +
                                 McRel(shape.wide, "b") + McJoin("b") +
                                 " INNER JOIN " + McRel(wider.wide, "c") +
                                 McJoin("c") + ";",
                             2);
  ExpectKeySeekDeterministic(select + McRel(shape.wide, "a") + " INNER JOIN " +
                                 McRel(shape.probe, "b") + McJoin("b") +
                                 " INNER JOIN " + McRel(wider.wide, "c") +
                                 McJoin("c") + " LIMIT 4;",
                             1);
}

TEST_P(EngineDeterminismTest, FullScanAggregatesWithDoubleSums) {
  // SUM/AVG over a full scan exercises the chunk-merge order of the parallel
  // aggregation (floating-point addition is where nondeterminism would show
  // first); MIN/MAX exercise the first-seen tie rule across chunk merges.
  ExpectDeterministic(
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5), "
      "MIN(ColumnId), MAX(RowId) FROM AllTables GROUP BY TableId;");
}

TEST_P(EngineDeterminismTest, QueryControlPreservesByteIdentity) {
  // The control dimension of the determinism matrix: a query that completes
  // under a generous deadline (and memory budget) must be byte-identical to
  // the unconstrained serial run across pools and fused
  // settings — the cooperative checks may not alter morsel geometry or
  // merge order — and an already-expired deadline must return
  // kDeadlineExceeded, never a partial result. Both the fused aggregate and
  // the MC join statement's scans and hash join run under the control here.
  Rng rng(GetParam() * 61 + 8);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
  };
  for (const std::string& sql : sqls) {
    for (Engine* engine : Engines()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Scheduler* pool : TestPools()) {
        for (bool fused : {true, false}) {
          QueryOptions opts;
          opts.scheduler = pool;
          opts.enable_fused_scan_agg = fused;

          QueryControl generous =
              QueryControl::WithDeadline(std::chrono::seconds(300));
          generous.SetMemoryBudget(int64_t{1} << 40);
          opts.control = &generous;
          auto got = engine->Query(sql, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
          EXPECT_EQ(want, ResultToString(got.value()))
              << "pool=" << pool->parallelism() << " fused=" << fused;

          const QueryControl expired =
              QueryControl::WithDeadline(std::chrono::nanoseconds(0));
          opts.control = &expired;
          auto dead = engine->Query(sql, opts);
          ASSERT_FALSE(dead.ok());
          EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded)
              << dead.status().ToString();
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, TraceTelemetryPreservesByteIdentity) {
  // The telemetry dimension of the determinism matrix: attaching a QueryTrace
  // must be pure observation — byte-identical results vs the untraced serial
  // reference across pools and fused / key-seek settings.
  // Spans record what the executor already decided; morsel geometry, task
  // order, and merge order are untouched. The traced runs must also actually
  // record (non-zero engine queries, at least one stage) when telemetry is
  // compiled in, so this cannot silently degrade into tracing nothing.
  Rng rng(GetParam() * 71 + 10);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
  };
  for (const std::string& sql : sqls) {
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> key_seek_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (Engine* engine : Engines()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Scheduler* pool : TestPools()) {
        for (bool fused : {true, false}) {
          for (bool key_seek : key_seek_dims) {
            QueryOptions opts;
            opts.scheduler = pool;
            opts.enable_fused_scan_agg = fused;
            opts.enable_key_seek = key_seek;

            QueryTrace trace;
            opts.trace = &trace;
            auto traced = engine->Query(sql, opts);
            ASSERT_TRUE(traced.ok()) << traced.status().ToString() << "\n"
                                     << sql;
            EXPECT_EQ(want, ResultToString(traced.value()))
                << "traced run diverged: pool=" << pool->parallelism() << " fused=" << fused
                << " key_seek=" << key_seek << "\n"
                << sql;

            opts.trace = nullptr;
            auto untraced = engine->Query(sql, opts);
            ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
            EXPECT_EQ(want, ResultToString(untraced.value()));

            if constexpr (kTelemetryEnabled) {
              const QueryTraceSummary s = trace.Summary();
              EXPECT_EQ(s.CounterValue(TraceCounter::kEngineQueries), 1);
              EXPECT_FALSE(s.stages.empty());
            }
          }
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, ExplainAnalyzePreservesByteIdentity) {
  // The introspection dimension of the determinism matrix: `EXPLAIN ANALYZE
  // <q>` executes the bare statement unchanged, so its rows must be
  // byte-identical to `<q>` across pools and fused /
  // key-seek settings — describing and annotating the plan may not perturb
  // morsel geometry, task order, or merge order. Every annotated run must
  // also carry a non-empty plan (pipeline named, at least one node), so the
  // dimension cannot silently degrade into explaining nothing.
  Rng rng(GetParam() * 73 + 11);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;",
  };
  for (const std::string& sql : sqls) {
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> key_seek_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (Engine* engine : Engines()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Scheduler* pool : TestPools()) {
        for (bool fused : {true, false}) {
          for (bool key_seek : key_seek_dims) {
            QueryOptions opts;
            opts.scheduler = pool;
            opts.enable_fused_scan_agg = fused;
            opts.enable_key_seek = key_seek;
            auto analyzed = engine->Query("EXPLAIN ANALYZE " + sql, opts);
            ASSERT_TRUE(analyzed.ok())
                << analyzed.status().ToString() << "\n" << sql;
            EXPECT_EQ(want, ResultToString(analyzed.value()))
                << "EXPLAIN ANALYZE diverged: pool=" << pool->parallelism() << " fused=" << fused
                << " key_seek=" << key_seek << "\n"
                << sql;
            EXPECT_FALSE(analyzed.value().plan.nodes.empty()) << sql;
            EXPECT_FALSE(analyzed.value().plan.pipeline.empty()) << sql;
            EXPECT_FALSE(analyzed.value().explain_text.empty()) << sql;

            // Bare EXPLAIN never executes: a plan, no rows.
            auto described = engine->Query("EXPLAIN " + sql, opts);
            ASSERT_TRUE(described.ok())
                << described.status().ToString() << "\n" << sql;
            EXPECT_TRUE(described.value().rows.empty()) << sql;
            EXPECT_EQ(described.value().plan.pipeline,
                      analyzed.value().plan.pipeline)
                << sql;
          }
        }
      }
    }
  }
}

TEST_P(EngineDeterminismTest, NonAggregateProjectionAndTableInScan) {
  ExpectDeterministic(
      "SELECT TableId, ColumnId, RowId FROM AllTables "
      "WHERE TableId IN (0, 3, 7, 11, 19) AND RowId < 40;");
}

TEST_P(EngineDeterminismTest, SnapshotLoadedBundlesReproduceEveryShape) {
  // The persistence dimension of the determinism matrix: for both layouts x
  // shuffle_rows on/off, an engine over a ReadSnapshot (heap) or
  // OpenSnapshot (mmap zero-copy) bundle must answer the representative
  // seeker shapes byte-identically to the freshly built bundle.
  Rng rng(GetParam() * 59 + 7);
  const std::vector<std::string> sqls = {
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 30) +
          ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;",
      "SELECT a.TableId, a.RowId, a.SuperKey FROM "
      "(SELECT TableId, RowId, SuperKey FROM AllTables WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS a INNER JOIN (SELECT TableId, RowId FROM AllTables "
          "WHERE CellValue IN (" +
          RandomInList(&rng, 20) +
          ")) AS b ON a.TableId = b.TableId AND a.RowId = b.RowId;",
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;",
  };
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    for (bool shuffle : {false, true}) {
      SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                   " shuffle=" + std::to_string(shuffle));
      IndexBuildOptions opts;
      opts.layout = layout;
      opts.shuffle_rows = shuffle;
      IndexBundle built = IndexBuilder(opts).Build(lake_);
      const std::string path = ::testing::TempDir() + "blend_determinism_" +
                               std::to_string(GetParam());
      ASSERT_TRUE(WriteSnapshot(built, path).ok());
      auto heap = ReadSnapshot(path);
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      auto mapped = OpenSnapshot(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

      Engine fresh(&built);
      Engine heap_engine(&heap.value());
      Engine mapped_engine(&mapped.value());
      for (const auto& sql : sqls) {
        auto ref = fresh.Query(sql);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
        const std::string want = ResultToString(ref.value());
        for (Engine* loaded : {&heap_engine, &mapped_engine}) {
          for (bool fused : {true, false}) {
            QueryOptions qo;
            qo.enable_fused_scan_agg = fused;
            auto got = loaded->Query(sql, qo);
            ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
            EXPECT_EQ(want, ResultToString(got.value()))
                << "fused=" << fused << "\n" << sql;
          }
        }
      }
      std::remove(path.c_str());
    }
  }
}

TEST_P(EngineDeterminismTest, ConcurrentClientsShareOnePool) {
  // The serving dimension of the determinism matrix: 8 client threads issue
  // a mixed query workload against one shared engine and pool, every query
  // morsel-parallel itself (nested submission). Every client must observe
  // exactly the serial result.
  Rng rng(GetParam() * 53 + 6);
  std::vector<std::string> sqls;
  for (int i = 0; i < 3; ++i) {
    sqls.push_back(
        "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
        "FROM AllTables WHERE CellValue IN (" +
        RandomInList(&rng, 30) +
        ") GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 25;");
  }
  sqls.push_back(
      "SELECT TableId, COUNT(*), SUM(RowId), AVG(RowId * 1.5) FROM AllTables "
      "GROUP BY TableId;");
  for (Engine* engine : {row_engine_.get(), col_engine_.get()}) {
    QueryOptions serial;
    serial.scheduler = Scheduler::Serial();
    std::vector<std::string> want;
    for (const auto& sql : sqls) {
      auto ref = engine->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      want.push_back(ResultToString(ref.value()));
    }
    constexpr int kClients = 8;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (const auto& sql : sqls) {
          auto res = engine->Query(sql);  // engine pool (default options)
          got[c].push_back(res.ok() ? ResultToString(res.value())
                                    : "ERROR: " + res.status().ToString());
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      for (size_t q = 0; q < sqls.size(); ++q) {
        EXPECT_EQ(want[q], got[c][q]) << "client=" << c << "\n" << sqls[q];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminismTest, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, KeySeekDeterminismTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace blend::sql
