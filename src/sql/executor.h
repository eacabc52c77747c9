#pragma once

#include <memory>
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
  /// Planner override for the fused scan->aggregate operator: the planner
  /// picks it whenever the bound statement has the SC/KW seeker shape
  /// (COUNT(DISTINCT CellValue) grouped by TableId[, ColumnId] over a
  /// CellValue IN-list); `false` forces the generic pipeline so benches can
  /// report the fused-vs-generic ratio and tests can cross-check the two.
  bool enable_fused_scan_agg = true;
  /// Planner override for the generic pipeline's key-seek join step. A join
  /// step that equates the new relation's (TableId, RowId) with an earlier
  /// relation's may seek each distinct prefix key's record group instead of
  /// scanning the relation up front. The planner always seeks a relation
  /// without a CellValue access path (the correlation seeker's numeric-cell
  /// side); it seeks a posting-backed one (the MC seeker's later columns)
  /// only when records-per-row × the prefix's key bound is below the
  /// relation's posting count. Results — values and row order — are
  /// byte-identical to the materialized hash join either way; `false` forces
  /// that join so benches and tests can A/B the two.
  bool enable_key_seek = true;
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
  /// attached) plan here. The captured plan is the one the statement ran, so
  /// capture never alters morsel geometry or results.
  /// Not owned; nullptr (the default) captures nothing.
  PlanCaptureSink* plan_capture = nullptr;
};

/// One SELECT statement analyzed, bound and planned against a physical
/// store: every select item, group key, aggregate, ORDER BY key and join key
/// bound, each relation's access path resolved (one Dictionary::FindBatch
/// per IN-list), the key seeks decided and the root operator chosen. Describe
/// renders the plan and Execute runs it, so EXPLAIN reports exactly the
/// pipeline the bare statement runs, and a statement that fails to bind
/// fails at PlanSelect for both. Instantiated for RowStore and ColumnStore
/// (the (Row)/(Column) deployments of the paper's experiments). The
/// statement, store and dictionary must outlive the plan.
template <typename Store>
class PlannedSelect {
 public:
  struct Impl;
  explicit PlannedSelect(std::unique_ptr<Impl> impl);
  PlannedSelect(PlannedSelect&&) noexcept;
  ~PlannedSelect();

  /// The chosen pipeline, its operator tree, posting cardinalities and
  /// planned morsel geometry. Never scans, joins, or charges budgets.
  PlanDescription Describe() const;
  /// Runs the plan under the QueryOptions it was planned with.
  Result<QueryResult> Execute() const;

 private:
  std::unique_ptr<Impl> impl_;
};

/// Plans `stmt`: analyzes it, checks `options.control`, binds and resolves
/// everything once, and picks the fused SC/KW aggregate when
/// `options.enable_fused_scan_agg` holds and the bound statement has its
/// shape, otherwise the generic pipeline.
template <typename Store>
Result<PlannedSelect<Store>> PlanSelect(const SelectStmt& stmt, const Store& store,
                                        const Dictionary& dict,
                                        const QueryOptions& options = {});

}  // namespace blend::sql
