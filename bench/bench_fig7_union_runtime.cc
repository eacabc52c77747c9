// Fig. 7: union search runtime — Starmie vs BLEND's union plan (one SC seeker
// per query column + Counter) on row- and column-store deployments, across
// four lakes standing in for SANTOS / SANTOS Large / TUS / TUS Large.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "baselines/starmie.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "lakegen/union_lake.h"

using namespace blend;

namespace {

lakegen::UnionLake* g_lake = nullptr;
core::Blend* g_col = nullptr;
baselines::Starmie* g_starmie = nullptr;

double RunUnionPlan(const core::Blend& blend, const Table& query, int k) {
  core::Plan plan;
  (void)core::tasks::AddUnionSearch(&plan, query, k, 100);
  StopWatch sw;
  auto out = blend.Run(plan);
  (void)out;
  return sw.ElapsedSeconds();
}

void BM_StarmieUnion(benchmark::State& state) {
  const Table& q = g_lake->lake.table(g_lake->query_tables[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g_starmie->TopK(q, 10, g_lake->query_tables[0]).size());
  }
}
void BM_BlendUnionColumn(benchmark::State& state) {
  const Table& q = g_lake->lake.table(g_lake->query_tables[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunUnionPlan(*g_col, q, 10));
  }
}
BENCHMARK(BM_StarmieUnion)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlendUnionColumn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  struct LakeCase {
    std::string name;
    lakegen::UnionLakeSpec spec;
  };
  std::vector<LakeCase> cases;
  auto add_case = [&](const std::string& name, size_t groups, size_t noise,
                      size_t rows_max, uint64_t seed) {
    LakeCase c;
    c.name = name;
    c.spec.name = name;
    c.spec.num_groups = groups;
    c.spec.noise_tables = noise;
    c.spec.rows_max = rows_max;
    c.spec.seed = seed;
    cases.push_back(std::move(c));
  };
  add_case("santos-like", 20, 60, 80, 71);
  add_case("santos-large-like", 60, 150, 90, 72);
  add_case("tus-like", 35, 80, 70, 73);
  add_case("tus-large-like", 90, 200, 70, 74);

  auto gb = lakegen::MakeUnionLake(cases[0].spec);
  core::Blend gb_col(&gb.lake);
  baselines::Starmie gb_starmie(&gb.lake);
  g_lake = &gb;
  g_col = &gb_col;
  g_starmie = &gb_starmie;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  TablePrinter tp({"Lake", "Tables", "STARMIE", "BLEND (Row)", "BLEND (Column)"});
  size_t starmie_fastest = 0;
  double min_col_speedup = std::numeric_limits<double>::infinity();
  for (const auto& c : cases) {
    auto ul = lakegen::MakeUnionLake(c.spec);
    core::Blend::Options row_opts;
    row_opts.layout = StoreLayout::kRow;
    core::Blend row(&ul.lake, row_opts);
    core::Blend col(&ul.lake);
    baselines::Starmie starmie(&ul.lake);

    const int queries = 8;
    double t_starmie = 0, t_row = 0, t_col = 0;
    for (int q = 0; q < queries; ++q) {
      TableId query_id = ul.query_tables[static_cast<size_t>(q)];
      const Table& query = ul.lake.table(query_id);
      StopWatch sw;
      (void)starmie.TopK(query, 10, query_id);
      t_starmie += sw.ElapsedSeconds();
      t_row += RunUnionPlan(row, query, 10);
      t_col += RunUnionPlan(col, query, 10);
    }
    starmie_fastest += t_starmie < std::min(t_row, t_col) ? 1 : 0;
    min_col_speedup = std::min(min_col_speedup, t_row / t_col);
    tp.AddRow({c.name, std::to_string(ul.lake.NumTables()),
               bench::FmtSeconds(t_starmie / queries),
               bench::FmtSeconds(t_row / queries),
               bench::FmtSeconds(t_col / queries)});
  }
  std::printf("\n%s",
              tp.Render("Fig. 7: union search runtime (avg per query, k=10)")
                  .c_str());
  bench::PrintVerdict("fig7_starmie_fastest_on_most_lakes",
                      2 * starmie_fastest > cases.size(),
                      "Starmie's ANN retrieval is fastest on most lakes");
  // "Roughly an order of magnitude" is read as >= 10x on every lake.
  std::printf("BLEND (Row) / BLEND (Column) runtime, lowest over lakes: %.2fx\n",
              min_col_speedup);
  bench::PrintVerdict("fig7_column_vs_row_speedup", min_col_speedup >= 10,
                      "BLEND (Column) is roughly an order of magnitude faster than BLEND (Row)");
  return 0;
}
