#pragma once

#include <string>
#include <vector>

#include "common/control.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "sql/ast.h"
#include "sql/explain.h"
#include "sql/expr_eval.h"
#include "storage/dictionary.h"

namespace blend {
class Scheduler;
}

namespace blend::sql {

/// Materialized query output. Cells are NULL / int64 / double; CellValue
/// columns surface their dictionary ids.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  /// EXPLAIN / EXPLAIN ANALYZE output: the structured plan and its rendered
  /// table. Plain statements leave both empty. Introspection never rides in
  /// `rows` — an EXPLAIN ANALYZE's rows stay byte-identical to the bare
  /// statement's (EXPLAIN returns no rows at all).
  PlanDescription plan;
  std::string explain_text;

  size_t NumRows() const { return rows.size(); }
  int64_t Int(size_t r, size_t c) const { return rows[r][c].AsInt(); }
  double Double(size_t r, size_t c) const { return rows[r][c].AsDouble(); }
  bool IsNull(size_t r, size_t c) const { return rows[r][c].is_null(); }
};

/// Execution knobs threaded from Engine::Query down to the operators.
struct QueryOptions {
  /// Work-stealing pool executing the morsel tasks of scans, joins, and
  /// aggregation. nullptr means serial inline execution at this layer;
  /// Engine::Query substitutes its engine-scoped pool for a null handle, so
  /// pass Scheduler::Serial() to force a serial query through the engine.
  /// The result is byte-identical — values and row order — for every pool
  /// size (including serial) and any number of concurrent queries sharing
  /// the pool: morsel geometry depends only on input sizes, morsel outputs
  /// are concatenated in morsel order, and merge order is fixed.
  Scheduler* scheduler = nullptr;
  /// Enables the fused scan->aggregate operator for the SC/KW seeker shape
  /// (COUNT(DISTINCT CellValue) grouped by TableId[, ColumnId] over a
  /// CellValue IN-list) and the fused scan->project operator for the MC
  /// phase-1 projection shape. Switchable so benches can report the
  /// fused-vs-generic ratio and tests can cross-check the two paths.
  bool enable_fused_scan_agg = true;
  /// Planner override for both key-space joins on (TableId, RowId):
  ///   - the galloping compressed-domain intersection for the MC join shape
  ///     (pure posting-backed equi-joins): per-relation posting cursors
  ///     leapfrog in key space via skip-table SeekAtLeast, never decoding
  ///     blocks that cannot contain a match;
  ///   - the generic pipeline's key-seek join step: a relation without a
  ///     CellValue access path (the correlation seeker's numeric-cell side)
  ///     is not scanned up front; each distinct prefix key's record group is
  ///     sought instead.
  /// Results — values and row order — are byte-identical to the
  /// materialized hash join either way; `false` forces that join so benches
  /// and tests can A/B the two.
  bool enable_galloping_join = true;
  /// Engine-side dedup-top-k: when dedup_column >= 0, after the final
  /// ORDER BY sort only the first row per distinct value of output column
  /// `dedup_column` is kept, and emission stops once `dedup_limit` distinct
  /// values have been seen (dedup_limit < 0 = unbounded). Replaces the
  /// seekers' client-side widened-LIMIT retry loop with one exhaustive
  /// query whose sort/dedup happens inside the engine (shared by the
  /// generic and fused paths, so results stay byte-identical).
  int dedup_column = -1;
  int64_t dedup_limit = -1;
  /// Optional per-query deadline / cancellation / memory-budget handle,
  /// checked cooperatively at morsel boundaries. Not owned; the caller keeps
  /// the QueryControl alive for the duration of the query. nullptr (the
  /// default) means unconstrained. A query that completes under its controls
  /// is byte-identical to an unconstrained run; a tripped control returns a
  /// descriptive kDeadlineExceeded / kCancelled / kResourceExhausted Status,
  /// never a partial result.
  const QueryControl* control = nullptr;
  /// Optional per-query trace: operators attribute wall time, task counts,
  /// and rows to TraceStage cells at morsel-task granularity (TraceSpan /
  /// QueueWaitProbe record around each task, never inside the task's loop).
  /// Not owned; nullptr (the default) records nothing and reads no clocks.
  /// Tracing never changes morsel geometry, merge order, or results — the
  /// determinism suite pins byte-identity with tracing on vs off.
  QueryTrace* trace = nullptr;
  /// Optional plan collector: when set, Engine::Query describes each plain
  /// statement it executes and appends the (trace-annotated, when a trace is
  /// attached) plan here. Describe-mode planning reruns the dispatch gates
  /// without executing, so capture never alters morsel geometry or results.
  /// Not owned; nullptr (the default) captures nothing.
  PlanCaptureSink* plan_capture = nullptr;
};

/// Executes an analyzed-and-parseable statement against a physical store.
/// Instantiated for RowStore and ColumnStore (the (Row)/(Column) deployments
/// of the paper's experiments).
template <typename Store>
Result<QueryResult> ExecuteSelect(const SelectStmt& stmt, const Store& store,
                                  const Dictionary& dict,
                                  const QueryOptions& options = {});

/// Plans `stmt` without executing it: runs the same dispatch cascade as
/// ExecuteSelect in describe mode — every gate (galloping join, fused
/// scan->agg, fused scan->project, generic) decides exactly as it would for
/// execution, then reports the chosen pipeline, its operator tree, posting
/// cardinalities, and planned morsel geometry instead of running tasks.
/// EXPLAIN is therefore guaranteed to describe the path the bare statement
/// takes. Binds expressions (so it can fail with the same binder errors) but
/// never scans, joins, or charges memory budgets.
template <typename Store>
Result<PlanDescription> DescribeSelect(const SelectStmt& stmt,
                                       const Store& store,
                                       const Dictionary& dict,
                                       const QueryOptions& options = {});

}  // namespace blend::sql
