#include "sql/engine.h"

#include <optional>

#include "common/telemetry.h"
#include "sql/parser.h"

namespace blend::sql {

namespace {

/// Registry instruments of the SQL serving funnel; resolved once and cached.
/// These are the exact series the serving bench reports from and the future
/// `blendd` daemon exports, so the bench exercises the production path.
struct EngineMetrics {
  Counter* queries;
  Counter* errors;
  Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      auto& reg = MetricsRegistry::Global();
      EngineMetrics out;
      out.queries = reg.GetCounter("blend_sql_queries_total",
                                   "SQL statements executed by sql::Engine.");
      out.errors = reg.GetCounter(
          "blend_sql_query_errors_total",
          "SQL statements that returned a non-OK Status (parse, plan, "
          "execution, or control trips).");
      out.latency = reg.GetHistogram(
          "blend_sql_query_seconds",
          "End-to-end sql::Engine::Query latency (parse through execute).");
      return out;
    }();
    return m;
  }
};

/// Plans one parsed statement once against `store`, then describes and/or
/// executes that plan: EXPLAIN describes only (never executes, never charges
/// budgets); EXPLAIN ANALYZE and plan capture execute, then annotate the
/// description from the trace delta this statement added. A statement that
/// fails to plan fails alike in every mode.
template <typename Store>
Result<QueryResult> RunStatement(const Statement& parsed, const std::string& sql,
                                 const Store& store, const Dictionary& dict,
                                 QueryOptions options) {
  std::optional<QueryTrace> local_trace;
  if (parsed.explain == ExplainMode::kAnalyze && options.trace == nullptr) {
    options.trace = &local_trace.emplace();
  }
  BLEND_ASSIGN_OR_RETURN(const PlannedSelect<Store> planned,
                         PlanSelect(*parsed.select, store, dict, options));
  if (parsed.explain == ExplainMode::kPlan) {
    QueryResult out;
    out.plan = planned.Describe();
    out.explain_text = out.plan.Render();
    return out;
  }
  if (parsed.explain == ExplainMode::kNone && options.plan_capture == nullptr) {
    return planned.Execute();
  }
  // With a caller-attached trace the annotation is the delta accumulated by
  // this statement, so multi-statement runs sharing one trace still
  // attribute per-statement actuals correctly.
  QueryTraceSummary before;
  if (options.trace != nullptr) before = options.trace->Summary();
  BLEND_ASSIGN_OR_RETURN(QueryResult out, planned.Execute());
  PlanDescription plan = planned.Describe();
  if (options.trace != nullptr) plan.Annotate(options.trace->Summary().Delta(before));
  if (parsed.explain == ExplainMode::kAnalyze) {
    out.plan = std::move(plan);
    out.explain_text = out.plan.Render();
  } else {
    options.plan_capture->plans.push_back({sql, std::move(plan)});
  }
  return out;
}

}  // namespace

Result<QueryResult> Engine::Query(const std::string& sql) const {
  return Query(sql, QueryOptions{});
}

Result<QueryResult> Engine::Query(const std::string& sql,
                                  const QueryOptions& options) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  LatencyTimer timer(metrics.latency);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options.trace != nullptr) {
    options.trace->AddCounter(TraceCounter::kEngineQueries, 1);
  }
  auto run = [&]() -> Result<QueryResult> {
    BLEND_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
    QueryOptions effective = options;
    if (effective.scheduler == nullptr) effective.scheduler = scheduler_;
    if (bundle_->layout() == StoreLayout::kRow) {
      return RunStatement(parsed, sql, bundle_->row_store(), bundle_->dictionary(),
                          effective);
    }
    return RunStatement(parsed, sql, bundle_->column_store(), bundle_->dictionary(),
                        effective);
  };
  Result<QueryResult> result = run();
  if (!result.ok()) metrics.errors->Increment();
  return result;
}

}  // namespace blend::sql
