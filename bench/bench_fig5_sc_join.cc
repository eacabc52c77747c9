// Fig. 5: single-column join search — average runtime of BLEND (row store /
// column store) vs JOSIE across query sizes on three lakes standing in for
// WDC, Canada-US-UK Open Data and Gittables.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "baselines/josie.h"
#include "bench_util.h"
#include "common/table_printer.h"

using namespace blend;

namespace {

struct LakeCase {
  std::string name;
  lakegen::JoinLakeSpec spec;
  std::vector<size_t> query_sizes;
};

std::vector<LakeCase> Cases() {
  std::vector<LakeCase> cases;
  {
    LakeCase c;
    c.name = "wdc-like";
    c.spec.name = c.name;
    c.spec.num_tables = 900;
    c.spec.domain_vocab = 15000;
    c.spec.num_domains = 10;
    c.spec.max_rows = 160;
    c.spec.seed = 51;
    c.query_sizes = {100, 1000, 10000};
    cases.push_back(std::move(c));
  }
  {
    LakeCase c;
    c.name = "opendata-like";
    c.spec.name = c.name;
    c.spec.num_tables = 500;
    c.spec.domain_vocab = 8000;
    c.spec.num_domains = 6;
    c.spec.seed = 52;
    c.query_sizes = {1000, 5000, 20000};
    cases.push_back(std::move(c));
  }
  {
    LakeCase c;
    c.name = "gittables-like";
    c.spec.name = c.name;
    c.spec.num_tables = 700;
    c.spec.domain_vocab = 4000;
    c.spec.seed = 53;
    c.query_sizes = {10, 100, 1000};
    cases.push_back(std::move(c));
  }
  return cases;
}

// Representative google-benchmark registration: one SC query per layout.
DataLake* g_lake = nullptr;
core::Blend* g_row = nullptr;
core::Blend* g_col = nullptr;
baselines::Josie* g_josie = nullptr;
std::vector<std::string>* g_query = nullptr;

void BM_BlendScColumnStore(benchmark::State& state) {
  for (auto _ : state) {
    core::SCSeeker sc(*g_query, 10);
    auto r = sc.Execute(g_col->context(), "");
    benchmark::DoNotOptimize(r.ok());
  }
}
void BM_BlendScRowStore(benchmark::State& state) {
  for (auto _ : state) {
    core::SCSeeker sc(*g_query, 10);
    auto r = sc.Execute(g_row->context(), "");
    benchmark::DoNotOptimize(r.ok());
  }
}
void BM_Josie(benchmark::State& state) {
  for (auto _ : state) {
    auto r = g_josie->TopK(*g_query, 10);
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_BlendScColumnStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlendScRowStore)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Josie)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Shared fixture for the registered benchmarks (gittables-like lake).
  lakegen::JoinLakeSpec gb_spec;
  gb_spec.num_tables = 300;
  gb_spec.seed = 50;
  DataLake gb_lake = lakegen::MakeJoinLake(gb_spec);
  core::Blend::Options row_opts;
  row_opts.layout = StoreLayout::kRow;
  core::Blend gb_row(&gb_lake, row_opts);
  core::Blend gb_col(&gb_lake);
  baselines::Josie gb_josie(&gb_lake);
  Rng gb_rng(1);
  auto gb_query = bench::SampleDomainQuery(gb_lake, 500, &gb_rng);
  g_lake = &gb_lake;
  g_row = &gb_row;
  g_col = &gb_col;
  g_josie = &gb_josie;
  g_query = &gb_query;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  TablePrinter tp({"Lake", "|Q|", "BLEND (Row)", "BLEND (Column)", "JOSIE"});
  bool column_beats_josie = true;
  for (const auto& c : Cases()) {
    DataLake lake = lakegen::MakeJoinLake(c.spec);
    core::Blend::Options ro;
    ro.layout = StoreLayout::kRow;
    core::Blend row(&lake, ro);
    core::Blend col(&lake);
    baselines::Josie josie(&lake);

    for (size_t qs : c.query_sizes) {
      Rng rng(c.spec.seed * 1000 + qs);
      const int queries = 4;
      double t_row = 0, t_col = 0, t_josie = 0;
      for (int q = 0; q < queries; ++q) {
        auto query = bench::SampleDomainQuery(lake, qs, &rng);
        t_col += bench::MeasureSeconds(
            [&] {
              core::SCSeeker sc(query, 10);
              (void)sc.Execute(col.context(), "");
            },
            2);
        t_row += bench::MeasureSeconds(
            [&] {
              core::SCSeeker sc(query, 10);
              (void)sc.Execute(row.context(), "");
            },
            2);
        t_josie += bench::MeasureSeconds([&] { (void)josie.TopK(query, 10); }, 2);
      }
      column_beats_josie = column_beats_josie && t_col < t_josie;
      tp.AddRow({c.name, std::to_string(qs), bench::FmtSeconds(t_row / queries),
                 bench::FmtSeconds(t_col / queries),
                 bench::FmtSeconds(t_josie / queries)});
    }
  }
  std::printf("\n%s", tp.Render("Fig. 5: SC join search runtime vs JOSIE "
                                "(avg per query, k=10)").c_str());
  bench::PrintVerdict("fig5_column_beats_josie_at_every_q", column_beats_josie,
                      "BLEND (Column) beats JOSIE consistently");
  return 0;
}
