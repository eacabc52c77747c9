#include "core/seeker.h"

#include <gtest/gtest.h>

#include "core/blend.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/workloads.h"

namespace blend::core {
namespace {

class SeekerFig1Test : public ::testing::TestWithParam<StoreLayout> {
 protected:
  SeekerFig1Test() : fig1_(lakegen::MakeFig1Lake()) {
    Blend::Options opts;
    opts.layout = GetParam();
    blend_ = std::make_unique<Blend>(&fig1_.lake, opts);
  }
  lakegen::Fig1 fig1_;
  std::unique_ptr<Blend> blend_;
};

TEST_P(SeekerFig1Test, ScFindsDepartmentColumns) {
  SCSeeker sc({"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10);
  auto r = sc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 3u);
  // T2/T3 contain all 6 departments in their Team column; T1 only 5.
  EXPECT_DOUBLE_EQ(out[0].score, 6.0);
  EXPECT_DOUBLE_EQ(out[1].score, 6.0);
  EXPECT_EQ(out[2].table, fig1_.t1);
  EXPECT_DOUBLE_EQ(out[2].score, 5.0);
}

TEST_P(SeekerFig1Test, ScRespectsRewritePredicate) {
  SCSeeker sc({"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}, 10);
  std::string rewrite = "AND TableId IN (" + std::to_string(fig1_.t3) + ")";
  auto r = sc.Execute(blend_->context(), rewrite);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t3);
}

TEST_P(SeekerFig1Test, ScNotInRewrite) {
  SCSeeker sc({"HR", "IT"}, 10);
  std::string rewrite = "AND TableId NOT IN (" + std::to_string(fig1_.t2) + "," +
                        std::to_string(fig1_.t3) + ")";
  auto r = sc.Execute(blend_->context(), rewrite);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t1);
}

TEST_P(SeekerFig1Test, KwCountsWholeTableOverlap) {
  // "2022" appears only in T2; "firenze" in T2 and T3.
  KWSeeker kw({"2022", "Firenze"}, 10);
  auto r = kw.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].table, fig1_.t2);
  EXPECT_DOUBLE_EQ(out[0].score, 2.0);
  EXPECT_EQ(out[1].table, fig1_.t3);
}

TEST_P(SeekerFig1Test, McFindsAlignedRows) {
  MCSeeker mc({{"HR", "Firenze"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  const TableList& out = r.value();
  ASSERT_EQ(out.size(), 2u);  // T2 and T3 contain the (HR, Firenze) row
  EXPECT_TRUE(ContainsTable(out, fig1_.t2));
  EXPECT_TRUE(ContainsTable(out, fig1_.t3));
  EXPECT_FALSE(ContainsTable(out, fig1_.t1));
}

TEST_P(SeekerFig1Test, McRejectsMisalignedTuples) {
  // "HR" and "Tom Riddle" both exist in T2 but never in the same row.
  MCSeeker mc({{"HR", "Tom Riddle"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(mc.last_stats().true_positives, 0u);
}

TEST_P(SeekerFig1Test, McNeedsTwoColumns) {
  MCSeeker mc(std::vector<std::vector<std::string>>{{"HR"}}, 10);
  EXPECT_FALSE(mc.Execute(blend_->context(), "").ok());
}

TEST_P(SeekerFig1Test, EmptyNormalizedInputShortCircuits) {
  // All-empty cells normalize away entirely; seekers must return an empty
  // TableList instead of emitting the unparseable `CellValue IN ()`.
  SCSeeker sc({"", "   ", ""}, 10);
  auto sr = sc.Execute(blend_->context(), "");
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  EXPECT_TRUE(sr.value().empty());

  KWSeeker kw({"", "  "}, 10);
  auto kr = kw.Execute(blend_->context(), "");
  ASSERT_TRUE(kr.ok()) << kr.status().ToString();
  EXPECT_TRUE(kr.value().empty());

  MCSeeker mc({{"", ""}, {"HR", ""}}, 10);
  auto mr = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();
  EXPECT_TRUE(mr.value().empty());

  CorrelationSeeker corr({"", ""}, {1.0, 2.0}, 10);
  auto cr = corr.Execute(blend_->context(), "");
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  EXPECT_TRUE(cr.value().empty());
}

TEST_P(SeekerFig1Test, CorrelationOneSidedTargetsStillExecute) {
  // Every target lands on the >= mean side, so the k0 list is empty; the
  // generated SQL must replace `CellValue IN ()` with a never-true literal
  // and still parse and run.
  CorrelationSeeker corr({"HR", "Marketing", "Finance"}, {5.0, 5.0, 5.0}, 10);
  auto r = corr.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST_P(SeekerFig1Test, McThreeColumnTuple) {
  MCSeeker mc({{"HR", "Firenze", "2024"}}, 10);
  auto r = mc.Execute(blend_->context(), "");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, fig1_.t3);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SeekerFig1Test,
                         ::testing::Values(StoreLayout::kRow, StoreLayout::kColumn));

TEST(SeekerSqlTest, GeneratedSqlContainsPaperClauses) {
  SCSeeker sc({"a", "b"}, 10);
  std::string sql = sc.GenerateSql("", 40);
  EXPECT_NE(sql.find("GROUP BY TableId, ColumnId"), std::string::npos);
  EXPECT_NE(sql.find("ORDER BY score DESC"), std::string::npos);
  EXPECT_NE(sql.find("LIMIT 40"), std::string::npos);

  KWSeeker kw({"a"}, 5);
  std::string kw_sql = kw.GenerateSql("", 5);
  EXPECT_NE(kw_sql.find("GROUP BY TableId "), std::string::npos);
  EXPECT_EQ(kw_sql.find("ColumnId"), std::string::npos);

  MCSeeker mc({{"x", "y"}}, 5);
  std::string mc_sql = mc.GenerateSql("", -1);
  EXPECT_NE(mc_sql.find("INNER JOIN"), std::string::npos);
  EXPECT_NE(mc_sql.find("SuperKey"), std::string::npos);

  CorrelationSeeker c({"k1", "k2"}, {1.0, 2.0}, 5, 128);
  std::string c_sql = c.GenerateSql("", 5);
  EXPECT_NE(c_sql.find("Quadrant IS NOT NULL"), std::string::npos);
  EXPECT_NE(c_sql.find("RowId < 128"), std::string::npos);
  EXPECT_NE(c_sql.find("ABS"), std::string::npos);
}

TEST(SeekerSqlTest, RewriteIsInjectedIntoSql) {
  SCSeeker sc({"a"}, 10);
  std::string sql = sc.GenerateSql("AND TableId IN (1,2)", 10);
  EXPECT_NE(sql.find("AND TableId IN (1,2)"), std::string::npos);
}

TEST(SeekerSqlTest, CorrelationRewriteAppearsOnce) {
  // The intersection rewrite prunes the key scan only: the key-seek join
  // already restricts the numeric-cell side to the keys' tables, so the
  // rewrite is not repeated in the nums subquery.
  // CorrelationRewriteRestrictsOutput checks the restricted result.
  CorrelationSeeker c({"k1"}, {1.0}, 5, 64);
  for (const std::string rewrite :
       {"AND TableId IN (3,4)", "AND TableId NOT IN (3,4)"}) {
    const std::string sql = c.GenerateSql(rewrite, 5);
    const size_t first = sql.find(rewrite);
    ASSERT_NE(first, std::string::npos) << rewrite;
    EXPECT_EQ(sql.find(rewrite, first + 1), std::string::npos) << rewrite;
    EXPECT_LT(first, sql.find(") AS keys")) << rewrite;
  }
}

TEST(SeekerTest, CorrelationRewriteRestrictsOutput) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 40;
  spec.numeric_key_frac = 0.0;
  spec.seed = 41;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);
  Rng rng(13);
  auto query = lakegen::MakeCorrQuery(spec, 2, false, 50, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 20, 256);
  auto full = seeker.Execute(blend.context(), "").ValueOrDie();
  ASSERT_GE(full.size(), 2u);
  TableId keep = full[0].table;
  auto restricted =
      seeker
          .Execute(blend.context(), "AND TableId IN (" + std::to_string(keep) + ")")
          .ValueOrDie();
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted[0].table, keep);
  EXPECT_DOUBLE_EQ(restricted[0].score, full[0].score);
}

TEST(SeekerTest, ScAgainstBruteForceOnRandomLake) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 80;
  spec.seed = 11;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);
  lakegen::BruteForceOverlap brute(&lake);

  Rng rng(3);
  for (int q = 0; q < 5; ++q) {
    auto values = lakegen::SampleColumnQuery(lake, 20, &rng);
    SCSeeker sc(values, 10);
    auto r = sc.Execute(blend.context(), "");
    ASSERT_TRUE(r.ok());
    auto gt = brute.TopKByColumnOverlap(values, 10);
    ASSERT_EQ(r.value().size(), gt.size());
    for (size_t i = 0; i < gt.size(); ++i) {
      EXPECT_EQ(r.value()[i].table, gt[i].table) << "rank " << i;
      EXPECT_DOUBLE_EQ(r.value()[i].score, gt[i].score);
    }
  }
}

TEST(SeekerTest, McNoFalseNegativesOnMcLake) {
  lakegen::McLakeSpec spec;
  spec.num_tables = 60;
  spec.seed = 21;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Blend blend(&mc_lake.lake);

  Rng rng(5);
  auto tuples = lakegen::MakeMcQuery(spec, /*domain=*/2, 12, &rng);
  MCSeeker mc(tuples, -1);
  auto r = mc.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  auto found = IdSet(r.value());

  // Every table with at least one exactly joinable row must be found.
  for (TableId t = 0; t < static_cast<TableId>(mc_lake.lake.NumTables()); ++t) {
    const Table& table = mc_lake.lake.table(t);
    bool joinable = false;
    for (size_t row = 0; row < table.NumRows() && !joinable; ++row) {
      joinable = lakegen::RowJoinsTuples(table, row, tuples);
    }
    EXPECT_EQ(found.count(t) > 0, joinable) << "table " << t;
  }
}

TEST(SeekerTest, McStatsAreConsistent) {
  lakegen::McLakeSpec spec;
  spec.num_tables = 40;
  spec.seed = 23;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Blend blend(&mc_lake.lake);
  Rng rng(7);
  auto tuples = lakegen::MakeMcQuery(spec, 1, 10, &rng);
  MCSeeker mc(tuples, 10);
  ASSERT_TRUE(mc.Execute(blend.context(), "").ok());
  const auto& st = mc.last_stats();
  EXPECT_EQ(st.true_positives + st.false_positives, st.bloom_pass_rows);
  EXPECT_LE(st.bloom_pass_rows, st.candidate_rows);
}

TEST(SeekerTest, McRejectsMixedArityTuples) {
  // Tuples {x, q} and {y} over rows (x, p), (y, q), (z, r): no row holds a
  // full query tuple. Joined on the first tuple's two columns and validated
  // tuple by tuple, row (y, q) would pass as a match for the short {y}.
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  ASSERT_TRUE(t.AppendRow({"x", "p"}).ok());
  ASSERT_TRUE(t.AppendRow({"y", "q"}).ok());
  ASSERT_TRUE(t.AppendRow({"z", "r"}).ok());
  DataLake lake;
  lake.AddTable(std::move(t));
  Blend blend(&lake);
  for (const auto& tuples : std::vector<std::vector<std::vector<std::string>>>{
           {{"x", "q"}, {"y"}}, {{"y"}, {"x", "q"}}, {{"x", "q"}, {"y", "q", "r"}}}) {
    auto r = MCSeeker(tuples, 10).Execute(blend.context(), "");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status().ToString();
  }
  // A tuple dropped for an empty cell does not count towards the arity.
  auto r = MCSeeker({{"y", "q"}, {"x", ""}}, 10).Execute(blend.context(), "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].table, 0);
}

TEST(SeekerTest, CorrelationSeekerFindsCorrelatedTables) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 60;
  spec.numeric_key_frac = 0.0;  // categorical keys only for this test
  spec.seed = 31;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);

  Rng rng(9);
  auto query = lakegen::MakeCorrQuery(spec, /*domain=*/3, /*numeric_key=*/false,
                                      60, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 10, 256);
  auto r = seeker.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().empty());

  // All returned tables must belong to the queried key domain (others cannot
  // join), and scores must be valid |QCR| values in [0, 1].
  for (const auto& e : r.value()) {
    EXPECT_EQ(corr.table_domain[static_cast<size_t>(e.table)], 3);
    EXPECT_GE(e.score, 0.0);
    EXPECT_LE(e.score, 1.0 + 1e-9);
  }

  // The top result should be a genuinely correlated table per exact Pearson.
  auto gt = lakegen::ExactCorrelationTopK(corr.lake, query.keys, query.targets, 10);
  ASSERT_FALSE(gt.empty());
  auto gt_ids = IdSet(gt);
  EXPECT_TRUE(gt_ids.count(r.value()[0].table) > 0);
}

TEST(SeekerTest, CorrelationSupportsNumericKeys) {
  lakegen::CorrLakeSpec spec;
  spec.num_tables = 50;
  spec.numeric_key_frac = 1.0;  // all numeric join keys
  spec.seed = 37;
  auto corr = lakegen::MakeCorrLake(spec);
  Blend blend(&corr.lake);

  Rng rng(11);
  auto query = lakegen::MakeCorrQuery(spec, 1, /*numeric_key=*/true, 50, &rng);
  CorrelationSeeker seeker(query.keys, query.targets, 10, 256);
  auto r = seeker.Execute(blend.context(), "");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().empty()) << "numeric join keys must be supported";
}

TEST(SeekerTest, FeaturesReflectInput) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = lakegen::MakeJoinLake(spec);
  Blend blend(&lake);

  SCSeeker sc({"d0_v1", "d0_v2", "d0_v3"}, 10);
  auto f = sc.ComputeFeatures(blend.stats());
  EXPECT_DOUBLE_EQ(f.cardinality, 3.0);
  EXPECT_DOUBLE_EQ(f.num_columns, 1.0);

  MCSeeker mc({{"a", "b"}, {"c", "d"}}, 10);
  auto fm = mc.ComputeFeatures(blend.stats());
  EXPECT_DOUBLE_EQ(fm.num_columns, 2.0);
  EXPECT_DOUBLE_EQ(fm.cardinality, 4.0);
}

TEST(SeekerTest, NormalizationDeduplicatesInput) {
  SCSeeker sc({"HR", "hr ", " hr"}, 10);
  EXPECT_EQ(sc.values().size(), 1u);
}

}  // namespace
}  // namespace blend::core
