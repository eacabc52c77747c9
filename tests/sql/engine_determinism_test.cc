#include <gtest/gtest.h>

#include <chrono>
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
/// or off, with the galloping join on or off (join shapes), and when the
/// bundle serves block-compressed postings in memory instead of raw ones.
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
    IndexBuildOptions row_copts = row_opts;
    row_copts.serve_compressed = true;
    row_c_bundle_ = IndexBuilder(row_copts).Build(lake_);
    IndexBuildOptions col_copts;
    col_copts.serve_compressed = true;
    col_c_bundle_ = IndexBuilder(col_copts).Build(lake_);
    row_engine_ = std::make_unique<Engine>(&row_bundle_);
    col_engine_ = std::make_unique<Engine>(&col_bundle_);
    row_c_engine_ = std::make_unique<Engine>(&row_c_bundle_);
    col_c_engine_ = std::make_unique<Engine>(&col_c_bundle_);
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

  /// Per-layout engine pair: the same physical record order served raw and
  /// block-compressed, so one serial raw run is the reference for both.
  struct EnginePair {
    Engine* raw;
    Engine* compressed;
  };
  std::vector<EnginePair> EnginePairs() {
    return {{row_engine_.get(), row_c_engine_.get()},
            {col_engine_.get(), col_c_engine_.get()}};
  }

  /// Runs `sql` serially on the raw-served engine as the reference, then
  /// asserts every (serving codec, pool, fused, galloping) combination
  /// reproduces it exactly on both layouts. The galloping dimension is only
  /// swept for join statements — it cannot engage anywhere else. Every run,
  /// the reference included, applies the given engine-side dedup-top-k.
  void ExpectDeterministic(const std::string& sql, int dedup_column = -1,
                           int64_t dedup_limit = -1) {
    const bool has_join = sql.find("JOIN") != std::string::npos;
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      serial.dedup_column = dedup_column;
      serial.dedup_limit = dedup_limit;
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;
              opts.dedup_column = dedup_column;
              opts.dedup_limit = dedup_limit;
              auto got = engine->Query(sql, opts);
              ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
              EXPECT_EQ(want, ResultToString(got.value()))
                  << "compressed=" << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << " dedup=" << dedup_column << "/"
                  << dedup_limit << "\n"
                  << sql;
            }
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
  IndexBundle row_c_bundle_, col_c_bundle_;
  std::unique_ptr<Engine> row_engine_, col_engine_;
  std::unique_ptr<Engine> row_c_engine_, col_c_engine_;
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
  // LIMIT exercises the galloping join's run-capped emission; the three-way
  // join exercises its later leapfrog steps (keys-vs-cursors) and both
  // orientations of the step replay.
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
/// materialized hash join (galloping override off) shows directly. Each runs
/// the full determinism matrix, then a traced run pins how many join steps
/// the key seek served.
class KeySeekDeterminismTest : public EngineDeterminismTest {
 protected:
  void ExpectKeySeekDeterministic(const std::string& sql, int64_t seek_steps) {
    ExpectDeterministic(sql);
    if constexpr (!kTelemetryEnabled) return;
    for (bool gallop : {true, false}) {
      QueryTrace trace;
      QueryOptions opts;
      opts.scheduler = Scheduler::Serial();
      opts.enable_galloping_join = gallop;
      opts.trace = &trace;
      ASSERT_TRUE(col_engine_->Query(sql, opts).ok()) << sql;
      const QueryTraceSummary s = trace.Summary();
      EXPECT_EQ(s.CounterValue(TraceCounter::kKeySeekSteps), gallop ? seek_steps : 0)
          << "gallop=" << gallop << "\n" << sql;
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
  // the unconstrained serial run across serving codecs, pools, and fused /
  // galloping settings — the cooperative checks may not alter morsel
  // geometry or merge order — and an already-expired deadline must return
  // kDeadlineExceeded, never a partial result. The MC join statement routes
  // through the galloping intersection when it is enabled, so both the fused
  // and the compressed-domain operators run under the control here.
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
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
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
                << "compressed=" << (engine == pair.compressed)
                << " pool=" << pool->parallelism() << " fused=" << fused;

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
}

TEST_P(EngineDeterminismTest, TraceTelemetryPreservesByteIdentity) {
  // The telemetry dimension of the determinism matrix: attaching a QueryTrace
  // must be pure observation — byte-identical results vs the untraced serial
  // reference across serving codecs, pools, and fused / galloping settings.
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
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;

              QueryTrace trace;
              opts.trace = &trace;
              auto traced = engine->Query(sql, opts);
              ASSERT_TRUE(traced.ok()) << traced.status().ToString() << "\n"
                                       << sql;
              EXPECT_EQ(want, ResultToString(traced.value()))
                  << "traced run diverged: compressed="
                  << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << "\n"
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
}

TEST_P(EngineDeterminismTest, ExplainAnalyzePreservesByteIdentity) {
  // The introspection dimension of the determinism matrix: `EXPLAIN ANALYZE
  // <q>` executes the bare statement unchanged, so its rows must be
  // byte-identical to `<q>` across serving codecs, pools, and fused /
  // galloping settings — describing and annotating the plan may not perturb
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
    const std::vector<bool> gallop_dims =
        has_join ? std::vector<bool>{true, false} : std::vector<bool>{true};
    for (const EnginePair& pair : EnginePairs()) {
      QueryOptions serial;
      serial.scheduler = Scheduler::Serial();
      auto ref = pair.raw->Query(sql, serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString() << "\n" << sql;
      const std::string want = ResultToString(ref.value());
      for (Engine* engine : {pair.raw, pair.compressed}) {
        for (Scheduler* pool : TestPools()) {
          for (bool fused : {true, false}) {
            for (bool gallop : gallop_dims) {
              QueryOptions opts;
              opts.scheduler = pool;
              opts.enable_fused_scan_agg = fused;
              opts.enable_galloping_join = gallop;
              auto analyzed = engine->Query("EXPLAIN ANALYZE " + sql, opts);
              ASSERT_TRUE(analyzed.ok())
                  << analyzed.status().ToString() << "\n" << sql;
              EXPECT_EQ(want, ResultToString(analyzed.value()))
                  << "EXPLAIN ANALYZE diverged: compressed="
                  << (engine == pair.compressed)
                  << " pool=" << pool->parallelism() << " fused=" << fused
                  << " gallop=" << gallop << "\n"
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
}

TEST_P(EngineDeterminismTest, ServeCompressedActuallyServesCompressed) {
  // Guard against the dimension silently testing raw-vs-raw: the
  // serve_compressed builds must hold block-compressed postings and a
  // smaller resident index than their raw twins.
  EXPECT_EQ(row_c_bundle_.row_store().secondary().codec,
            PostingCodec::kCompressed);
  EXPECT_EQ(col_c_bundle_.column_store().secondary().codec,
            PostingCodec::kCompressed);
  EXPECT_EQ(row_bundle_.row_store().secondary().codec, PostingCodec::kRaw);
  EXPECT_LT(row_c_bundle_.ApproxBytes(), row_bundle_.ApproxBytes());
  EXPECT_LT(col_c_bundle_.ApproxBytes(), col_bundle_.ApproxBytes());
}

TEST_P(EngineDeterminismTest, NonAggregateProjectionAndTableInScan) {
  ExpectDeterministic(
      "SELECT TableId, ColumnId, RowId FROM AllTables "
      "WHERE TableId IN (0, 3, 7, 11, 19) AND RowId < 40;");
}

TEST_P(EngineDeterminismTest, SnapshotLoadedBundlesReproduceEveryShape) {
  // The persistence dimension of the determinism matrix: for both layouts x
  // shuffle_rows on/off x postings codec, an engine over a ReadSnapshot
  // (heap) or OpenSnapshot (mmap zero-copy) bundle must answer the
  // representative seeker shapes byte-identically to the freshly built
  // bundle — i.e. the compressed cursor path reproduces the raw span path
  // exactly.
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
      for (PostingCodec codec : {PostingCodec::kRaw, PostingCodec::kCompressed}) {
        SCOPED_TRACE("layout=" + std::to_string(static_cast<int>(layout)) +
                     " shuffle=" + std::to_string(shuffle) + " codec=" +
                     PostingCodecName(codec));
        IndexBuildOptions opts;
        opts.layout = layout;
        opts.shuffle_rows = shuffle;
        IndexBundle built = IndexBuilder(opts).Build(lake_);
        const std::string path = ::testing::TempDir() + "blend_determinism_" +
                                 std::to_string(GetParam());
        SnapshotOptions snap_opts;
        snap_opts.codec = codec;
        ASSERT_TRUE(WriteSnapshot(built, path, snap_opts).ok());
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
