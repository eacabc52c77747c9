#include "baselines/mate.h"

#include <gtest/gtest.h>

#include "core/blend.h"
#include "core/seeker.h"
#include "lakegen/mc_lake.h"
#include "lakegen/workloads.h"

namespace blend::baselines {
namespace {

TEST(MateTest, FindsAlignedRowsOnFig1) {
  auto fig1 = lakegen::MakeFig1Lake();
  Mate mate(&fig1.lake);
  Mate::Stats stats;
  auto out = mate.TopK({{"HR", "Firenze"}}, 10, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(core::ContainsTable(out, fig1.t2));
  EXPECT_TRUE(core::ContainsTable(out, fig1.t3));
  EXPECT_EQ(stats.true_positives, 2u);
}

TEST(MateTest, RejectsMisaligned) {
  auto fig1 = lakegen::MakeFig1Lake();
  Mate mate(&fig1.lake);
  auto out = mate.TopK({{"HR", "Tom Riddle"}}, 10, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(MateTest, RecallIsTotal) {
  // Bloom-filter character: every truly joinable table must be returned.
  lakegen::McLakeSpec spec;
  spec.num_tables = 60;
  spec.seed = 41;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Mate mate(&mc_lake.lake);

  Rng rng(43);
  auto tuples = lakegen::MakeMcQuery(spec, 4, 12, &rng);
  auto out = mate.TopK(tuples, -1, nullptr);
  auto found = core::IdSet(out);
  for (TableId t = 0; t < static_cast<TableId>(mc_lake.lake.NumTables()); ++t) {
    const Table& table = mc_lake.lake.table(t);
    bool joinable = false;
    for (size_t r = 0; r < table.NumRows() && !joinable; ++r) {
      joinable = lakegen::RowJoinsTuples(table, r, tuples);
    }
    EXPECT_EQ(found.count(t) > 0, joinable) << "table " << t;
  }
}

TEST(MateTest, AgreesWithBlendMcOnValidatedTables) {
  lakegen::McLakeSpec spec;
  spec.num_tables = 50;
  spec.seed = 47;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Mate mate(&mc_lake.lake);
  core::Blend blend(&mc_lake.lake);

  Rng rng(53);
  auto tuples = lakegen::MakeMcQuery(spec, 3, 10, &rng);
  auto mate_out = mate.TopK(tuples, -1, nullptr);
  core::MCSeeker mc(tuples, -1);
  auto blend_out = mc.Execute(blend.context(), "");
  ASSERT_TRUE(blend_out.ok());
  EXPECT_EQ(core::IdSet(mate_out), core::IdSet(blend_out.value()));
}

TEST(MateTest, ProducesMoreCandidatesThanBlend) {
  // The Table V mechanism: MATE fetches single-column candidates; BLEND's SQL
  // join requires all columns, so MATE inspects (and mis-validates) more rows.
  lakegen::McLakeSpec spec;
  spec.num_tables = 80;
  spec.seed = 59;
  auto mc_lake = lakegen::MakeMcLake(spec);
  Mate mate(&mc_lake.lake);
  core::Blend blend(&mc_lake.lake);

  Rng rng(61);
  auto tuples = lakegen::MakeMcQuery(spec, 2, 15, &rng);
  Mate::Stats mate_stats;
  mate.TopK(tuples, 10, &mate_stats);
  core::MCSeeker mc(tuples, 10);
  ASSERT_TRUE(mc.Execute(blend.context(), "").ok());
  EXPECT_GT(mate_stats.candidate_rows, mc.last_stats().candidate_rows);
  EXPECT_GE(mate_stats.false_positives, mc.last_stats().false_positives);
}

TEST(MateTest, EmptyQueries) {
  auto fig1 = lakegen::MakeFig1Lake();
  Mate mate(&fig1.lake);
  EXPECT_TRUE(mate.TopK({}, 5, nullptr).empty());
  EXPECT_TRUE(mate.TopK({{}}, 5, nullptr).empty());
}

TEST(MateTest, SkipsTuplesOfAnotherArity) {
  // Rows (x, p), (y, q), (z, r). Tuples whose arity differs from the first
  // kept tuple's are skipped, never read past their end.
  Table t("t");
  t.AddColumn("a");
  t.AddColumn("b");
  ASSERT_TRUE(t.AppendRow({"x", "p"}).ok());
  ASSERT_TRUE(t.AppendRow({"y", "q"}).ok());
  ASSERT_TRUE(t.AppendRow({"z", "r"}).ok());
  DataLake lake;
  lake.AddTable(std::move(t));
  Mate mate(&lake);
  Mate::Stats stats;
  // {x, q} is in no row; the short {y} is skipped.
  EXPECT_TRUE(mate.TopK({{"x", "q"}, {"y"}}, 5, &stats).empty());
  EXPECT_EQ(stats.true_positives, 0u);
  // Here the first tuple is the short one: {y} matches row (y, q), the
  // longer tuples are skipped.
  const auto out = mate.TopK({{"y"}, {"x", "q"}, {"z", "r", "s"}}, 5, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].table, 0);
  EXPECT_EQ(stats.true_positives, 1u);
}

TEST(MateTest, IndexBytesPositive) {
  auto fig1 = lakegen::MakeFig1Lake();
  Mate mate(&fig1.lake);
  EXPECT_GT(mate.IndexBytes(), 0u);
}

}  // namespace
}  // namespace blend::baselines
