#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/control.h"
#include "common/eventlog.h"
#include "common/json_check.h"
#include "common/telemetry.h"
#include "common/str_util.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"

namespace blend::core {
namespace {

/// Suite for the query introspection layer at the Blend driver level:
/// per-statement plan capture, the structured event log (including slow-query
/// trace capture and failure outcomes), Chrome trace export from captured
/// spans, and the self-validating JSON surfaces. The contract throughout:
/// introspection is pure observation — results stay byte-identical with every
/// knob on or off.
class IntrospectionTest : public ::testing::Test {
 protected:
  IntrospectionTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 30;
    spec.num_domains = 5;
    spec.domain_vocab = 150;
    spec.seed = 17;
    lake_ = lakegen::MakeJoinLake(spec);
  }

  std::vector<std::string> SampleCells(TableId t, size_t col, size_t n) const {
    std::vector<std::string> vals;
    const Table& table = lake_.table(t);
    for (size_t r = 0; r < std::min(n, table.NumRows()); ++r) {
      vals.push_back(table.At(r, col % table.NumColumns()));
    }
    return vals;
  }

  Plan ScPlan() const {
    Plan p;
    EXPECT_TRUE(
        p.Add("sc", std::make_shared<SCSeeker>(SampleCells(0, 0, 20), 8)).ok());
    return p;
  }

  Plan McPlan() const {
    Plan p;
    std::vector<std::vector<std::string>> tuples;
    const Table& t5 = lake_.table(5);
    for (size_t r = 0; r < std::min<size_t>(10, t5.NumRows()); ++r) {
      tuples.push_back({t5.At(r, 0), t5.At(r, 1 % t5.NumColumns())});
    }
    EXPECT_TRUE(p.Add("mc", std::make_shared<MCSeeker>(tuples, 6)).ok());
    return p;
  }

  static std::string Dump(const Result<ExecutionReport>& res) {
    if (!res.ok()) return "ERROR: " + res.status().ToString();
    std::string out;
    char buf[64];
    for (const auto& e : res.value().output) {
      snprintf(buf, sizeof(buf), "%d:%.17g|", e.table, e.score);
      out += buf;
    }
    return out;
  }

  DataLake lake_;
};

TEST_F(IntrospectionTest, RunReportCapturesAnnotatedStatementPlans) {
  Blend::Options opts;
  opts.capture_statement_plans = true;
  Blend blend(&lake_, opts);
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ExecutionReport& rep = report.value();
  ASSERT_FALSE(rep.statement_plans.empty());
  for (const auto& entry : rep.statement_plans) {
    EXPECT_FALSE(entry.sql.empty());
    EXPECT_FALSE(entry.plan.pipeline.empty());
    EXPECT_FALSE(entry.plan.nodes.empty());
    if constexpr (kTelemetryEnabled) {
      // The driver always attaches a trace, so captured plans carry actuals.
      EXPECT_TRUE(entry.plan.analyzed);
    }
  }
  const std::string rendered = rep.RenderStatementPlans();
  EXPECT_NE(rendered.find("-- statement 1 of "), std::string::npos);
  EXPECT_NE(rendered.find(rep.statement_plans[0].plan.pipeline),
            std::string::npos);
}

TEST_F(IntrospectionTest, CorrelationStatementExplainsItsKeySeek) {
  // A real CorrelationSeeker statement. With the key-seek override on, the
  // numeric-cell relation is a key-seek node driven by the keys relation and
  // ANALYZE reports its own actuals; with it off, the
  // plan is the Quadrant partial-index scan feeding the hash join. The rows
  // are the same either way.
  Blend blend(&lake_);
  std::vector<std::string> keys = SampleCells(0, 0, 30);
  std::vector<double> targets;
  for (size_t i = 0; i < keys.size(); ++i) {
    targets.push_back(static_cast<double>(i % 3));
  }
  const std::string sql = CorrelationSeeker(keys, targets, 10).GenerateSql("", -1);
  auto find_op = [](const sql::PlanDescription& plan,
                    const std::string& op) -> const sql::PlanNode* {
    for (const sql::PlanNode& node : plan.nodes) {
      if (node.op == op && node.detail.rfind("rel 1:", 0) == 0) return &node;
    }
    return nullptr;
  };
  std::string rows[2];
  for (bool key_seek : {true, false}) {
    SCOPED_TRACE(key_seek ? "override on" : "override off");
    sql::QueryOptions opts;
    opts.enable_key_seek = key_seek;
    auto described = blend.engine().Query("EXPLAIN " + sql, opts);
    ASSERT_TRUE(described.ok()) << described.status().ToString();
    const sql::PlanDescription& plan = described.value().plan;
    EXPECT_EQ(plan.pipeline, "generic");
    bool has_join = false;
    for (const sql::PlanNode& node : plan.nodes) has_join |= node.op == "HashJoin";
    EXPECT_TRUE(has_join);
    const sql::PlanNode* seek = find_op(plan, "KeySeek");
    const sql::PlanNode* scan = find_op(plan, "Scan");
    if (key_seek) {
      ASSERT_NE(seek, nullptr) << described.value().explain_text;
      EXPECT_EQ(scan, nullptr);
      EXPECT_EQ(seek->stage, TraceStage::kKeySeek);
      EXPECT_NE(seek->detail.find("seeks rel 0"), std::string::npos) << seek->detail;
      EXPECT_NE(seek->detail.find("Quadrant IS NOT NULL"), std::string::npos);
    } else {
      EXPECT_EQ(seek, nullptr);
      ASSERT_NE(scan, nullptr) << described.value().explain_text;
      EXPECT_NE(scan->detail.find("Quadrant partial index"), std::string::npos);
    }

    auto analyzed = blend.engine().Query("EXPLAIN ANALYZE " + sql, opts);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    for (const auto& row : analyzed.value().rows) {
      for (const auto& v : row) {
        char buf[40];
        snprintf(buf, sizeof(buf), "%d:%lld:%.17g,", static_cast<int>(v.kind),
                 static_cast<long long>(v.i), v.d);
        rows[key_seek ? 0 : 1] += buf;
      }
    }
    if constexpr (kTelemetryEnabled) {
      if (key_seek) {
        const sql::PlanNode* annotated = find_op(analyzed.value().plan, "KeySeek");
        ASSERT_NE(annotated, nullptr);
        EXPECT_GE(annotated->actual_tasks, 1);
        EXPECT_GE(annotated->actual_rows, 0);
      }
    }
  }
  EXPECT_FALSE(rows[0].empty());
  EXPECT_EQ(rows[0], rows[1]);
}

TEST_F(IntrospectionTest, McSeekerStatementExplainsTheKeySeekRule) {
  // Real MCSeeker statements on either side of the key-seek rule. Both run
  // the generic pipeline. When relation 0 has at least as many postings as
  // relation 1 the rule declines (records-per-row × P0 >= P1) and relation 1
  // is a CellValue-index scan; a rare relation-0 value against the lake's
  // most frequent values makes relation 1 a KeySeek. Either way the node
  // names the two record counts compared, and the seeker's tables and the
  // statement's rows match the override-off hash join.
  Blend blend(&lake_);
  const ColumnStore& store = blend.bundle().column_store();
  const Dictionary& dict = blend.bundle().dictionary();
  auto postings = [&](const std::vector<std::string>& values) {
    std::set<CellId> ids;
    for (const auto& v : values) ids.insert(dict.Find(NormalizeCell(v)));
    uint64_t n = 0;
    for (CellId id : ids) n += id == kInvalidCellId ? 0 : store.PostingCount(id);
    return n;
  };
  const uint64_t rpr = store.RecordsPerRow();

  // Balanced: the first ten rows of table 5, the heavier column first.
  const Table& t5 = lake_.table(5);
  std::vector<std::string> col0, col1;
  for (size_t r = 0; r < 10; ++r) {
    col0.push_back(t5.At(r, 0));
    col1.push_back(t5.At(r, 1));
  }
  if (postings(col0) < postings(col1)) std::swap(col0, col1);
  std::vector<std::vector<std::string>> balanced;
  for (size_t r = 0; r < col0.size(); ++r) balanced.push_back({col0[r], col1[r]});

  // Selective: the rarest of those values against the most frequent ones.
  std::string rare = col0[0];
  for (const auto& v : col0) {
    if (postings({v}) < postings({rare})) rare = v;
  }
  std::map<std::string, uint64_t> freq;
  for (size_t t = 0; t < lake_.NumTables(); ++t) {
    const Table& table = lake_.table(static_cast<TableId>(t));
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      for (const auto& v : table.column(c).cells) {
        if (!NormalizeCell(v).empty() && v != rare) freq[v] = postings({v});
      }
    }
  }
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [v, n] : freq) ranked.emplace_back(n, v);
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<std::string> wide;
  for (const auto& [n, v] : ranked) {
    if (postings(wide) > rpr * postings({rare})) break;
    wide.push_back(v);
  }
  std::vector<std::vector<std::string>> selective;
  for (const auto& w : wide) selective.push_back({rare, w});

  struct Case {
    std::vector<std::vector<std::string>> tuples;
    std::vector<std::string> rel0, rel1;
    bool seeks;
  };
  for (const Case& c : {Case{balanced, col0, col1, false},
                        Case{selective, {rare}, wide, true}}) {
    SCOPED_TRACE(c.seeks ? "selective" : "balanced");
    const MCSeeker mc(c.tuples, 6);
    const std::string sql = mc.GenerateSql("", -1);
    const uint64_t seek = rpr * postings(c.rel0);
    const uint64_t scan = postings(c.rel1);
    ASSERT_EQ(seek < scan, c.seeks) << seek << " vs " << scan;
    const std::string rule = "seek " + std::to_string(seek) +
                             (c.seeks ? " < " : " >= ") + "scan " +
                             std::to_string(scan) + " records";

    auto described = blend.engine().Query("EXPLAIN " + sql);
    ASSERT_TRUE(described.ok()) << described.status().ToString();
    const sql::PlanDescription& plan = described.value().plan;
    EXPECT_EQ(plan.pipeline, "generic");
    const sql::PlanNode* rel1 = nullptr;
    for (const sql::PlanNode& node : plan.nodes) {
      if (node.detail.rfind("rel 1:", 0) == 0) rel1 = &node;
    }
    ASSERT_NE(rel1, nullptr) << described.value().explain_text;
    if (c.seeks) {
      EXPECT_EQ(rel1->op, "KeySeek");
      const std::set<std::string> distinct(wide.begin(), wide.end());
      EXPECT_NE(rel1->detail.find("seeks rel 0's (TableId, RowId) groups; "
                                  "CellValue filter: " +
                                  std::to_string(distinct.size()) + " cells; " + rule),
                std::string::npos)
          << rel1->detail;
    } else {
      EXPECT_EQ(rel1->op, "Scan");
      EXPECT_NE(rel1->detail.find("key seek declined: " + rule), std::string::npos)
          << rel1->detail;
    }

    sql::QueryOptions off;
    off.enable_key_seek = false;
    auto analyzed = blend.engine().Query("EXPLAIN ANALYZE " + sql);
    auto hashed = blend.engine().Query(sql, off);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    EXPECT_EQ(analyzed.value().rows, hashed.value().rows);
    if constexpr (kTelemetryEnabled) {
      if (c.seeks) {
        for (const sql::PlanNode& node : analyzed.value().plan.nodes) {
          if (node.op == "KeySeek") {
            EXPECT_GE(node.actual_tasks, 1);
          }
        }
      }
    }

    Blend::Options off_opts;
    off_opts.enable_key_seek = false;
    Blend hash_blend(&lake_, off_opts);
    auto got = mc.Execute(blend.context(), "");
    auto want = mc.Execute(hash_blend.context(), "");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got.value().size(), want.value().size());
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_EQ(got.value()[i].table, want.value()[i].table);
      EXPECT_EQ(got.value()[i].score, want.value()[i].score);
    }
  }
}

TEST_F(IntrospectionTest, ScSeekerStatementExplainsItsPackedTopK) {
  // A real SCSeeker statement under the dedup-top-k its Execute applies. The
  // fused aggregate's one tail ranks packed groups: EXPLAIN names its sort
  // key and dedup spec, and EXPLAIN ANALYZE attributes the tail's time and
  // output rows to the aggregation-merge stage. An expression-shaped ORDER BY
  // leaves the fused gate for the generic pipeline with the same rows.
  Blend blend(&lake_);
  const std::string sql = SCSeeker(SampleCells(0, 0, 20), 8).GenerateSql("", -1);
  sql::QueryOptions opts;
  opts.dedup_column = 0;
  opts.dedup_limit = 8;
  auto rows_text = [](const sql::QueryResult& r) {
    std::string out;
    for (const auto& row : r.rows) {
      for (const auto& v : row) out += std::to_string(v.AsInt()) + ",";
      out += "\n";
    }
    return out;
  };
  auto find_top = [](const sql::PlanDescription& plan) -> const sql::PlanNode* {
    for (const sql::PlanNode& node : plan.nodes) {
      if (node.op == "PackedTopK") return &node;
    }
    return nullptr;
  };

  auto described = blend.engine().Query("EXPLAIN " + sql, opts);
  ASSERT_TRUE(described.ok()) << described.status().ToString();
  EXPECT_EQ(described.value().plan.pipeline, "fused-scan-agg");
  const sql::PlanNode* top = find_top(described.value().plan);
  ASSERT_NE(top, nullptr) << described.value().explain_text;
  EXPECT_EQ(top->detail, "score DESC; dedup TableId k=8");
  EXPECT_EQ(top->stage, TraceStage::kAggregationMerge);
  EXPECT_NE(described.value().explain_text.find("PackedTopK"), std::string::npos);

  auto bare = blend.engine().Query(sql, opts);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_GT(bare.value().NumRows(), 0u);
  auto analyzed = blend.engine().Query("EXPLAIN ANALYZE " + sql, opts);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(rows_text(bare.value()), rows_text(analyzed.value()));
  if constexpr (kTelemetryEnabled) {
    const sql::PlanNode* annotated = find_top(analyzed.value().plan);
    ASSERT_NE(annotated, nullptr);
    EXPECT_EQ(annotated->actual_tasks, 1);
    EXPECT_GE(annotated->actual_seconds, 0);
    EXPECT_EQ(annotated->actual_rows, static_cast<int64_t>(bare.value().NumRows()));
  }

  std::string expr_sql = sql;
  const std::string order = "ORDER BY score DESC";
  const size_t at = expr_sql.find(order);
  ASSERT_NE(at, std::string::npos) << sql;
  expr_sql.replace(at, order.size(), "ORDER BY COUNT(DISTINCT CellValue) * 2 DESC");
  auto generic_plan = blend.engine().Query("EXPLAIN " + expr_sql, opts);
  ASSERT_TRUE(generic_plan.ok()) << generic_plan.status().ToString();
  EXPECT_EQ(generic_plan.value().plan.pipeline, "generic");
  auto generic = blend.engine().Query(expr_sql, opts);
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();
  EXPECT_EQ(rows_text(bare.value()), rows_text(generic.value()));
}

TEST_F(IntrospectionTest, PlanCaptureIsPureObservation) {
  Blend::Options plain_opts;
  Blend plain(&lake_, plain_opts);
  Blend::Options capture_opts;
  capture_opts.capture_statement_plans = true;
  capture_opts.capture_trace_spans = true;
  Blend captured(&lake_, capture_opts);
  for (const Plan& p : {ScPlan(), McPlan()}) {
    EXPECT_EQ(Dump(plain.RunReport(p)), Dump(captured.RunReport(p)));
  }
}

TEST_F(IntrospectionTest, EventLogRecordsOneEventPerRunWithoutAlteringResults) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options logged_opts;
  logged_opts.event_log = &log;
  Blend logged(&lake_, logged_opts);
  Blend plain(&lake_, Blend::Options{});

  const std::string sc_plain = Dump(plain.RunReport(ScPlan()));
  const std::string sc_logged = Dump(logged.RunReport(ScPlan()));
  EXPECT_EQ(sc_plain, sc_logged);
  const std::string sc_again = Dump(logged.RunReport(ScPlan()));
  EXPECT_EQ(sc_plain, sc_again);
  (void)Dump(logged.RunReport(McPlan()));

  EXPECT_EQ(log.recorded(), 3);
  EXPECT_EQ(log.dropped(), 0);
  StringEventSink sink;
  EXPECT_EQ(log.Drain(&sink), 3u);
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok())
      << ValidateEventLogJson(sink.text()).ToString() << "\n" << sink.text();

  // Same plan shape => same fingerprint; the MC plan must differ.
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end = sink.text().find('\n', begin); end != std::string::npos;
       begin = end + 1, end = sink.text().find('\n', begin)) {
    lines.push_back(sink.text().substr(begin, end - begin));
  }
  ASSERT_EQ(lines.size(), 3u);
  const auto fingerprint = [](const std::string& line) -> std::string {
    const size_t at = line.find("\"fingerprint\":\"");
    if (at == std::string::npos) return "";
    return line.substr(at, 31);
  };
  EXPECT_NE(fingerprint(lines[0]), "");
  EXPECT_EQ(fingerprint(lines[0]), fingerprint(lines[1]));
  EXPECT_NE(fingerprint(lines[0]), fingerprint(lines[2]));
  EXPECT_NE(lines[0].find("\"outcome\":\"OK\""), std::string::npos)
      << lines[0];
}

TEST_F(IntrospectionTest, SlowQueryThresholdCapturesFullTrace) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options opts;
  opts.event_log = &log;
  opts.slow_query_log_seconds = 1e-12;  // everything is slow
  Blend blend(&lake_, opts);
  ASSERT_TRUE(blend.RunReport(ScPlan()).ok());
  EXPECT_EQ(log.slow_captures(), 1);
  StringEventSink sink;
  ASSERT_EQ(log.Drain(&sink), 1u);
  EXPECT_NE(sink.text().find("\"slow\":true"), std::string::npos)
      << sink.text();
  EXPECT_NE(sink.text().find("\"trace\":"), std::string::npos) << sink.text();
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
}

TEST_F(IntrospectionTest, EventLogRecordsFailureOutcomes) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(64);
  Blend::Options opts;
  opts.event_log = &log;
  Blend blend(&lake_, opts);
  const QueryControl expired =
      QueryControl::WithDeadline(std::chrono::nanoseconds(0));
  auto res = blend.RunReport(ScPlan(), expired);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  StringEventSink sink;
  ASSERT_EQ(log.Drain(&sink), 1u);
  EXPECT_NE(sink.text().find("\"outcome\":\"DeadlineExceeded\""),
            std::string::npos)
      << sink.text();
  EXPECT_NE(sink.text().find("\"control_tripped\":true"), std::string::npos)
      << sink.text();
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
}

TEST_F(IntrospectionTest, EventLogRingDropsWhenFullAndNeverBlocks) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  EventLog log(2);  // capacity 2
  for (int i = 0; i < 5; ++i) {
    QueryEvent e;
    e.fingerprint = static_cast<uint64_t>(i + 1);
    log.Record(std::move(e));
  }
  EXPECT_EQ(log.recorded(), 2);
  EXPECT_EQ(log.dropped(), 3);
  StringEventSink sink;
  EXPECT_EQ(log.Drain(&sink), 2u);
  EXPECT_EQ(log.Drain(&sink), 0u);
  ASSERT_TRUE(ValidateEventLogJson(sink.text()).ok());
  // After draining, the ring accepts events again.
  log.Record(QueryEvent{});
  EXPECT_EQ(log.Drain(nullptr), 1u);
}

TEST_F(IntrospectionTest, RenderJsonIsValidAndValidatorRejectsBadLines) {
  QueryEvent e;
  e.fingerprint = 0xdeadbeefcafe1234ull;
  e.outcome = StatusCode::kOk;
  e.seconds = 0.0125;
  e.peak_memory = 4096;
  e.slow = true;
  e.trace_text = "anatomy \"quoted\"\nsecond line";
  const std::string line = EventLog::RenderJson(e);
  EXPECT_TRUE(ValidateJson(line).ok()) << line;
  EXPECT_NE(line.find("\"fingerprint\":\"deadbeefcafe1234\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"peak_memory\":4096"), std::string::npos) << line;
  ASSERT_TRUE(ValidateEventLogJson(line + "\n").ok());

  EXPECT_FALSE(ValidateEventLogJson("not json\n").ok());
  EXPECT_FALSE(ValidateEventLogJson("{\"fingerprint\":\"00\"}\n").ok())
      << "missing required fields must be rejected";
  EXPECT_FALSE(
      ValidateEventLogJson(line + "\n{\"truncated\":\n").ok());
}

TEST_F(IntrospectionTest, ValidateJsonAcceptsAndRejects) {
  EXPECT_TRUE(
      ValidateJson("{\"a\":[1,2.5,{\"b\":null},\"s\"],\"c\":true}").ok());
  EXPECT_TRUE(ValidateJson("[]").ok());
  EXPECT_FALSE(ValidateJson("{").ok());
  EXPECT_FALSE(ValidateJson("{\"a\":1} extra").ok());
  EXPECT_FALSE(ValidateJson("{\"a\" 1}").ok());
}

TEST_F(IntrospectionTest, TraceSpansExportAsValidChromeTrace) {
  if constexpr (!kTelemetryEnabled) GTEST_SKIP() << "telemetry compiled out";
  Blend::Options opts;
  opts.capture_trace_spans = true;
  Blend blend(&lake_, opts);
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report.value().trace_spans.empty());
  const std::string trace = RenderChromeTrace(report.value().trace_spans);
  ASSERT_TRUE(ValidateChromeTraceJson(trace).ok())
      << ValidateChromeTraceJson(trace).ToString() << "\n" << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  EXPECT_FALSE(ValidateChromeTraceJson("{]").ok());
  EXPECT_FALSE(
      ValidateChromeTraceJson("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok())
      << "events without name/pid/tid must be rejected";
}

TEST_F(IntrospectionTest, SpanCaptureOffByDefault) {
  Blend blend(&lake_, Blend::Options{});
  auto report = blend.RunReport(ScPlan());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().trace_spans.empty());
  EXPECT_TRUE(report.value().statement_plans.empty());
}

}  // namespace
}  // namespace blend::core
