#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"
#include "lakegen/vocab.h"

namespace blend::bench {

/// Mean wall-clock seconds of `fn` over `reps` runs (one warmup).
inline double MeasureSeconds(const std::function<void()>& fn, int reps = 3) {
  fn();  // warmup
  StopWatch sw;
  for (int i = 0; i < reps; ++i) fn();
  return sw.ElapsedSeconds() / reps;
}

/// Draws a query of `size` distinct tokens from one domain of a join lake by
/// pooling the distinct values of that domain's columns (matches how the
/// JOSIE paper builds query workloads from lake columns).
inline std::vector<std::string> SampleDomainQuery(const DataLake& lake, size_t size,
                                                  Rng* rng) {
  std::unordered_set<std::string> pool;
  std::vector<std::string> out;
  for (int attempt = 0; attempt < 4000 && out.size() < size; ++attempt) {
    const Table& t = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
    if (t.NumColumns() == 0 || t.NumRows() == 0) continue;
    const Column& col = t.column(rng->Uniform(t.NumColumns()));
    for (const auto& cell : col.cells) {
      if (out.size() >= size) break;
      if (pool.insert(cell).second) out.push_back(cell);
    }
  }
  return out;
}

/// Formats seconds with adaptive precision.
inline std::string FmtSeconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  } else if (s < 1.0) {
    snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

/// Prints one paper-shape verdict computed from the table a bench just
/// printed, next to the paper's claim it checks.
inline void PrintVerdict(const char* name, bool holds, const char* claim) {
  std::printf("%s = %s  (paper: %s)\n", name, holds ? "true" : "false", claim);
}

/// Formats byte counts.
inline std::string FmtBytes(size_t b) {
  char buf[32];
  if (b >= (1ull << 20)) {
    snprintf(buf, sizeof(buf), "%.1fMB", static_cast<double>(b) / (1 << 20));
  } else if (b >= (1ull << 10)) {
    snprintf(buf, sizeof(buf), "%.1fKB", static_cast<double>(b) / (1 << 10));
  } else {
    snprintf(buf, sizeof(buf), "%zuB", b);
  }
  return buf;
}

}  // namespace blend::bench
