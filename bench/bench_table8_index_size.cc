// Table VIII: storage of BLEND's unified index vs the combination of the
// state-of-the-art per-task indexes (DataXFormer inverted index, JOSIE
// posting lists + set file, MATE XASH index, Starmie embedding file, QCR
// sketches) on lakes mirroring the paper's corpora at laptop scale.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "baselines/josie.h"
#include "baselines/mate.h"
#include "baselines/qcr_sketch.h"
#include "baselines/starmie.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "index/snapshot.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/union_lake.h"

using namespace blend;

namespace {

struct LakeCase {
  std::string name;
  DataLake lake;
};

std::vector<LakeCase> BuildLakes() {
  std::vector<LakeCase> cases;
  {
    lakegen::JoinLakeSpec spec;
    spec.name = "gittables-like";
    spec.num_tables = 600;
    spec.seed = 81;
    cases.push_back({spec.name, lakegen::MakeJoinLake(spec)});
  }
  {
    lakegen::JoinLakeSpec spec;
    spec.name = "wdc-like";
    spec.num_tables = 900;
    spec.domain_vocab = 12000;
    spec.seed = 82;
    cases.push_back({spec.name, lakegen::MakeJoinLake(spec)});
  }
  {
    lakegen::UnionLakeSpec spec;
    spec.name = "santos-like";
    spec.num_groups = 30;
    spec.seed = 83;
    cases.push_back({spec.name, lakegen::MakeUnionLake(spec).lake});
  }
  {
    lakegen::UnionLakeSpec spec;
    spec.name = "tus-like";
    spec.num_groups = 60;
    spec.noise_tables = 150;
    spec.seed = 84;
    cases.push_back({spec.name, lakegen::MakeUnionLake(spec).lake});
  }
  {
    lakegen::CorrLakeSpec spec;
    spec.name = "nyc-like";
    spec.num_tables = 250;
    spec.seed = 85;
    cases.push_back({spec.name, lakegen::MakeCorrLake(spec).lake});
  }
  {
    lakegen::McLakeSpec spec;
    spec.name = "dwtc-like";
    spec.num_tables = 400;
    spec.seed = 86;
    cases.push_back({spec.name, lakegen::MakeMcLake(spec).lake});
  }
  return cases;
}

void BM_BuildUnifiedIndex(benchmark::State& state) {
  lakegen::JoinLakeSpec spec;
  spec.num_tables = 100;
  DataLake lake = lakegen::MakeJoinLake(spec);
  for (auto _ : state) {
    IndexBundle bundle = IndexBuilder().Build(lake);
    benchmark::DoNotOptimize(bundle.NumRecords());
  }
}
BENCHMARK(BM_BuildUnifiedIndex)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  TablePrinter tp({"Data lake", "BLEND", "Combination of S.O.T.A.", "ratio"});
  // Extends the paper's comparison with the persistence dimension: what the
  // unified index costs on disk as a snapshot artifact, per physical layout,
  // next to its in-memory footprint.
  TablePrinter disk({"Data lake", "Layout", "In-memory", "Disk"});
  double ratio_sum = 0;
  size_t n = 0;
  for (auto& c : BuildLakes()) {
    IndexBundle bundle = IndexBuilder().Build(c.lake);
    size_t blend_bytes = bundle.ApproxBytes();

    IndexBuildOptions row_opts;
    row_opts.layout = StoreLayout::kRow;
    IndexBundle row_bundle = IndexBuilder(row_opts).Build(c.lake);
    for (const IndexBundle* b : {&bundle, &row_bundle}) {
      disk.AddRow({c.name, b->layout() == StoreLayout::kColumn ? "column" : "row",
                   bench::FmtBytes(b->ApproxBytes()),
                   bench::FmtBytes(SnapshotBytes(*b))});
    }

    // DataXFormer inverted index: AllTables without SuperKey and Quadrant
    // (records shrink by 8 + 1 bytes each; secondary structures identical).
    size_t dataxformer = blend_bytes - bundle.NumRecords() * 9;
    baselines::Josie josie(&c.lake);
    baselines::Mate mate(&c.lake);
    baselines::QcrSketchIndex qcr(&c.lake, 256);
    baselines::Starmie starmie(&c.lake);
    size_t combo = dataxformer + josie.IndexBytes() + mate.IndexBytes() +
                   qcr.IndexBytes() + starmie.IndexBytes();

    double ratio = static_cast<double>(blend_bytes) / static_cast<double>(combo);
    ratio_sum += ratio;
    ++n;
    tp.AddRow({c.name, bench::FmtBytes(blend_bytes), bench::FmtBytes(combo),
               TablePrinter::Fmt(ratio, 2)});
  }
  std::printf("\n%s", tp.Render("Table VIII: index storage, BLEND vs combined "
                                "per-task indexes").c_str());
  std::printf("Average: BLEND needs %.0f%% less storage than the combination "
              "(paper: 57%% less).\n",
              (1.0 - ratio_sum / static_cast<double>(n)) * 100.0);
  std::printf("\n%s", disk.Render("Snapshot artifact size per layout "
                                  "(on-disk vs in-memory)")
                          .c_str());
  return 0;
}
