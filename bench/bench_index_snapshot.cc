// Persistent index snapshots: save/load throughput and the load-vs-rebuild
// speedup that justifies the subsystem — a serving fleet cold-starts by
// loading the artifact, not by re-indexing the lake. Reported per layout:
// snapshot bytes, write and read MB/s, heap-load (ReadSnapshot) and
// zero-copy mmap (OpenSnapshot) wall time, the speedup of each load path
// over a full IndexBuilder rebuild, and the probe-query throughput on the
// loaded bundle. A query is run against every loaded bundle and checked
// byte-identical to the built index, so the harness doubles as a round-trip
// regression gate.
//
// `--smoke` runs on a small lake (wired into CI); the summary table and the
// BENCH_snapshot.json line are emitted either way.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "index/builder.h"
#include "index/snapshot.h"
#include "lakegen/join_lake.h"
#include "sql/engine.h"

using namespace blend;

namespace {

std::string QueryDump(const IndexBundle& bundle, const std::string& sqltext) {
  sql::Engine engine(&bundle);
  auto res = engine.Query(sqltext);
  if (!res.ok()) return "ERROR: " + res.status().ToString();
  std::string out;
  for (const auto& row : res.value().rows) {
    for (const auto& v : row) {
      out += v.is_null() ? "NULL|"
                         : (v.kind == sql::SqlValue::Kind::kInt
                                ? std::to_string(v.i) + "|"
                                : std::to_string(v.d) + "|");
    }
    out += "\n";
  }
  return out;
}

double Mbps(size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / (1 << 20) / seconds : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  lakegen::JoinLakeSpec spec;
  spec.num_tables = smoke ? 120 : 800;
  spec.seed = 95;
  DataLake lake = lakegen::MakeJoinLake(spec);
  const int reps = smoke ? 1 : 3;
  const int query_reps = smoke ? 3 : 20;
  const std::string path = "bench_index.snapshot";

  Rng rng(9);
  std::vector<std::string> values = bench::SampleDomainQuery(lake, 24, &rng);
  const std::string sqltext =
      "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS score "
      "FROM AllTables WHERE CellValue IN (" +
      SqlInList(values) + ") GROUP BY TableId, ColumnId "
      "ORDER BY score DESC LIMIT 25;";

  TablePrinter tp({"Layout", "Snapshot", "Save", "Read(heap)", "Open(mmap)",
                   "Write MB/s", "Load speedup", "Query QPS"});
  bool identical = true;
  struct SnapshotStats {
    size_t bytes = 0;
    double write_mbps = 0, read_mbps = 0;
    double read_speedup = 0, open_speedup = 0;
    double qps = 0;
  };
  SnapshotStats column;  // column layout
  for (StoreLayout layout : {StoreLayout::kColumn, StoreLayout::kRow}) {
    IndexBuildOptions opts;
    opts.layout = layout;
    IndexBuilder builder(opts);
    const double build_s =
        bench::MeasureSeconds([&] { (void)builder.Build(lake); }, reps);
    IndexBundle built = builder.Build(lake);
    const std::string want = QueryDump(built, sqltext);

    Status first_save = WriteSnapshot(built, path);
    if (!first_save.ok()) {
      std::fprintf(stderr, "%s\n", first_save.ToString().c_str());
      return 1;
    }
    const double save_s = bench::MeasureSeconds(
        [&] { (void)WriteSnapshot(built, path).ok(); }, reps);
    const size_t bytes = SnapshotBytes(built);

    // Both load paths are measured to the same finish line — the probe
    // query answered — so "time until the bundle actually serves" is
    // comparable between the heap copy and the lazily faulted mapping.
    const double read_s = bench::MeasureSeconds(
        [&] {
          auto bundle = ReadSnapshot(path);
          if (QueryDump(bundle.ValueOrDie(), sqltext) != want) identical = false;
        },
        reps);
    const double open_s = bench::MeasureSeconds(
        [&] {
          auto bundle = OpenSnapshot(path);
          if (QueryDump(bundle.ValueOrDie(), sqltext) != want) identical = false;
        },
        reps);
    // Steady-state query throughput on the served (mmap) bundle.
    auto served = OpenSnapshot(path);
    sql::Engine served_engine(&served.ValueOrDie());
    const double query_s = bench::MeasureSeconds(
        [&] { (void)served_engine.Query(sqltext); }, query_reps);
    const double qps = query_s > 0 ? 1.0 / query_s : 0;

    const double read_speedup = build_s / read_s;
    const double open_speedup = build_s / open_s;
    tp.AddRow({layout == StoreLayout::kColumn ? "column" : "row",
               bench::FmtBytes(bytes), bench::FmtSeconds(save_s),
               bench::FmtSeconds(read_s), bench::FmtSeconds(open_s),
               TablePrinter::Fmt(Mbps(bytes, save_s), 0),
               TablePrinter::Fmt(open_speedup, 1) + "x",
               TablePrinter::Fmt(qps, 0)});
    if (layout == StoreLayout::kColumn) {
      column.bytes = bytes;
      column.write_mbps = Mbps(bytes, save_s);
      column.read_mbps = Mbps(bytes, read_s);
      column.read_speedup = read_speedup;
      column.open_speedup = open_speedup;
      column.qps = qps;
    }
  }
  std::remove(path.c_str());

  std::printf("\n%s", tp.Render("Index snapshots: save/load vs rebuild "
                                "(lake cells: " +
                                std::to_string(lake.TotalCells()) + ")")
                          .c_str());
  std::printf("Loaded bundles answer the probe query %s.\n",
              identical ? "byte-identically" : "DIVERGENTLY (BUG)");
  std::printf(
      "BENCH_snapshot.json {\"bench\":\"index_snapshot\",\"smoke\":%s,"
      "\"lake_cells\":%zu,\"snapshot_bytes\":%zu,"
      "\"write_mbps\":%.1f,\"read_mbps\":%.1f,"
      "\"read_speedup_vs_rebuild\":%.1f,\"open_speedup_vs_rebuild\":%.1f,"
      "\"query_qps\":%.1f,\"identical\":%s}\n",
      smoke ? "true" : "false", lake.TotalCells(), column.bytes,
      column.write_mbps, column.read_mbps, column.read_speedup,
      column.open_speedup, column.qps, identical ? "true" : "false");
  const bool speedup_ok = column.open_speedup >= (smoke ? 1.0 : 10.0);
  return identical && speedup_ok ? 0 : 1;
}
