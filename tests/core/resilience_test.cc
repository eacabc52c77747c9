#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/control.h"
#include "core/blend.h"
#include "lakegen/join_lake.h"

namespace blend::core {
namespace {

/// Resilience suite for the query-control layer: deadlines, cooperative
/// cancellation, and memory budgets must always produce a descriptive Status
/// or a byte-identical full result — never a partial one — and the serving
/// stack must stay fully usable after any number of tripped queries. The
/// concurrent storms run under TSan in CI.
class ResilienceTest : public ::testing::Test {
 protected:
  ResilienceTest() {
    lakegen::JoinLakeSpec spec;
    spec.num_tables = 30;
    spec.num_domains = 5;
    spec.domain_vocab = 180;
    spec.seed = 23;
    lake_ = lakegen::MakeJoinLake(spec);
  }

  /// A mixed workload (SC, KW, MC join, union-search task) built fresh per
  /// call: Plan objects are not shared across serving threads.
  std::vector<Plan> MakeWorkload() const {
    auto cells = [&](TableId t, size_t col, size_t n) {
      std::vector<std::string> vals;
      const Table& table = lake_.table(t);
      for (size_t r = 0; r < std::min(n, table.NumRows()); ++r) {
        vals.push_back(table.At(r, col % table.NumColumns()));
      }
      return vals;
    };

    std::vector<Plan> plans;
    {
      Plan p;
      EXPECT_TRUE(p.Add("sc", std::make_shared<SCSeeker>(cells(0, 0, 20), 8)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      EXPECT_TRUE(p.Add("kw", std::make_shared<KWSeeker>(cells(3, 1, 6), 10)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      std::vector<std::vector<std::string>> tuples;
      const Table& t5 = lake_.table(5);
      for (size_t r = 0; r < std::min<size_t>(10, t5.NumRows()); ++r) {
        tuples.push_back({t5.At(r, 0), t5.At(r, 1 % t5.NumColumns())});
      }
      EXPECT_TRUE(p.Add("mc", std::make_shared<MCSeeker>(tuples, 6)).ok());
      plans.push_back(std::move(p));
    }
    {
      Plan p;
      Table query = lake_.table(2);
      EXPECT_TRUE(tasks::AddUnionSearch(&p, query, 5).ok());
      plans.push_back(std::move(p));
    }
    return plans;
  }

  static std::string Dump(const Result<TableList>& res) {
    if (!res.ok()) return "ERROR: " + res.status().ToString();
    std::string out;
    char buf[64];
    for (const auto& e : res.value()) {
      snprintf(buf, sizeof(buf), "%d:%.17g|", e.table, e.score);
      out += buf;
    }
    return out;
  }

  std::vector<std::string> Reference(const Blend& blend) const {
    std::vector<std::string> out;
    for (const Plan& p : MakeWorkload()) out.push_back(Dump(blend.Run(p)));
    return out;
  }

  DataLake lake_;
};

TEST_F(ResilienceTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Blend blend(&lake_);
  for (const Plan& p : MakeWorkload()) {
    const QueryControl control =
        QueryControl::WithDeadline(std::chrono::nanoseconds(0));
    auto res = blend.Run(p, control);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
    // The message names the stage and the budget, not just "deadline".
    EXPECT_NE(res.status().message().find("ms"), std::string::npos)
        << res.status().ToString();
  }
}

TEST_F(ResilienceTest, PreCancelledControlReturnsCancelled) {
  Blend blend(&lake_);
  const QueryControl control = QueryControl::Cancellable();
  control.Cancel();
  for (const Plan& p : MakeWorkload()) {
    auto res = blend.Run(p, control);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(ResilienceTest, InactiveControlMatchesPlainRun) {
  Blend blend(&lake_);
  const std::vector<std::string> want = Reference(blend);
  const std::vector<Plan> plans = MakeWorkload();
  const QueryControl inactive;
  EXPECT_FALSE(inactive.active());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(want[i], Dump(blend.Run(plans[i], inactive))) << "plan " << i;
  }
}

TEST_F(ResilienceTest, GenerousControlIsByteIdenticalAcrossPools) {
  std::vector<std::string> reference;
  {
    Blend::Options serial;
    serial.query_threads = 1;
    Blend blend(&lake_, serial);
    reference = Reference(blend);
  }
  // 0 = the process-default pool (one worker per hardware thread).
  for (int threads : {1, 2, 4, 0}) {
    Blend::Options opts;
    opts.query_threads = threads;
    Blend blend(&lake_, opts);
    const std::vector<Plan> plans = MakeWorkload();
    for (size_t i = 0; i < plans.size(); ++i) {
      QueryControl control =
          QueryControl::WithDeadline(std::chrono::seconds(300));
      control.SetMemoryBudget(int64_t{1} << 40);
      auto res = blend.Run(plans[i], control);
      EXPECT_EQ(reference[i], Dump(res)) << "pool " << threads << " plan " << i;
    }
  }
}

TEST_F(ResilienceTest, TinyMemoryBudgetReturnsResourceExhausted) {
  // The fused fast path materializes nothing; the generic pipeline's scan
  // and join materializations are what the budget meters.
  Blend::Options opts;
  opts.enable_fused_scan_agg = false;
  Blend blend(&lake_, opts);
  for (const Plan& p : MakeWorkload()) {
    const QueryControl control = QueryControl::WithMemoryBudget(1);
    auto res = blend.Run(p, control);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(res.status().message().find("budget"), std::string::npos)
        << res.status().ToString();
  }
}

TEST_F(ResilienceTest, CorrelationKeySeekUnderControlsIsFullResultOrStatus) {
  // The C seeker's join seeks the numeric-cell side from its keys. An
  // expired deadline, a cancel and a tiny budget each return their Status;
  // a budget sweep across the statement's peak (the keys scan, the sought
  // positions, the joined rows) yields kResourceExhausted or the full
  // byte-identical result, never a partial one.
  Blend blend(&lake_);
  const Table& t0 = lake_.table(0);
  std::vector<std::string> keys;
  std::vector<double> targets;
  for (size_t r = 0; r < std::min<size_t>(40, t0.NumRows()); ++r) {
    keys.push_back(t0.At(r, 0));
    targets.push_back(static_cast<double>(r % 5));
  }
  Plan plan;
  ASSERT_TRUE(
      plan.Add("c", std::make_shared<CorrelationSeeker>(keys, targets, 10)).ok());
  const std::string want = Dump(blend.Run(plan));
  ASSERT_EQ(want.rfind("ERROR", 0), std::string::npos) << want;

  const QueryControl expired = QueryControl::WithDeadline(std::chrono::nanoseconds(0));
  auto dead = blend.Run(plan, expired);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);

  const QueryControl cancelled = QueryControl::Cancellable();
  cancelled.Cancel();
  auto stopped = blend.Run(plan, cancelled);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);

  int tripped = 0, completed = 0;
  for (int64_t budget = 1; budget <= (int64_t{1} << 24); budget *= 2) {
    const QueryControl control = QueryControl::WithMemoryBudget(budget);
    auto res = blend.Run(plan, control);
    if (res.ok()) {
      ++completed;
      EXPECT_EQ(want, Dump(res)) << "budget " << budget;
    } else {
      ++tripped;
      EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
          << "budget " << budget << ": " << res.status().ToString();
    }
  }
  EXPECT_GT(tripped, 0);
  EXPECT_GT(completed, 0);
}

TEST_F(ResilienceTest, MemoryChargesAreReleasedAfterEachQuery) {
  Blend::Options opts;
  opts.enable_fused_scan_agg = false;
  Blend blend(&lake_, opts);
  const std::vector<std::string> want = Reference(blend);
  const std::vector<Plan> plans = MakeWorkload();
  const QueryControl control = QueryControl::WithMemoryBudget(int64_t{1} << 40);
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(want[i], Dump(blend.Run(plans[i], control))) << "plan " << i;
    EXPECT_EQ(control.MemoryUsed(), 0) << "leaked charge after plan " << i;
  }
}

TEST_F(ResilienceTest, CancelDuringEightClientStormNeverYieldsPartialResults) {
  Blend blend(&lake_);
  const std::vector<std::string> reference = Reference(blend);

  constexpr int kClients = 8;
  const QueryControl control = QueryControl::Cancellable();
  std::atomic<int> completed{0};
  std::atomic<int> cancelled{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < 50 && !control.cancelled(); ++round) {
        const std::vector<Plan> mine = MakeWorkload();
        for (size_t i = 0; i < mine.size(); ++i) {
          auto res = blend.Run(mine[i], control);
          if (res.ok()) {
            // Full-or-error: a result that came back ok must be the exact
            // unconstrained answer even though a cancel raced it.
            EXPECT_EQ(reference[i], Dump(res))
                << "client " << c << " round " << round << " plan " << i;
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
                << res.status().ToString();
            cancelled.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  control.Cancel();
  for (auto& t : threads) t.join();
  // The cancel raced real work: typically both counters are non-zero, but
  // only the cancellation is guaranteed (the storm might finish early on a
  // fast machine — never the other way around).
  EXPECT_GT(completed.load() + cancelled.load(), 0);

  // The scheduler and the Blend must be fully reusable afterward.
  const std::vector<Plan> plans = MakeWorkload();
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(reference[i], Dump(blend.Run(plans[i]))) << "post-cancel " << i;
  }
}

TEST_F(ResilienceTest, RacingDeadlinesAreFullResultOrError) {
  Blend blend(&lake_);
  const std::vector<std::string> reference = Reference(blend);
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < 12; ++round) {
        const std::vector<Plan> mine = MakeWorkload();
        for (size_t i = 0; i < mine.size(); ++i) {
          // Deadlines from instantly-expired to plausibly-metable: whichever
          // way the race goes, the outcome must be all-or-nothing.
          const QueryControl control = QueryControl::WithDeadline(
              std::chrono::microseconds(100) * ((c + round + i) % 4));
          auto res = blend.Run(mine[i], control);
          if (res.ok()) {
            EXPECT_EQ(reference[i], Dump(res))
                << "client " << c << " round " << round << " plan " << i;
          } else {
            EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
                << res.status().ToString();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(ResilienceTest, RunManyUnderCancelledControlReturnsCancelled) {
  Blend blend(&lake_);
  const QueryControl control = QueryControl::Cancellable();
  control.Cancel();
  const std::vector<Plan> plans = MakeWorkload();
  auto batch = blend.RunMany(plans, control);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kCancelled);
}

TEST_F(ResilienceTest, RunManySiblingAbortKeepsGenuineErrorAndCallerControl) {
  Blend blend(&lake_);
  std::vector<Plan> plans = MakeWorkload();
  {
    // An invalid plan (MC with one key column fails at execution) seeded
    // mid-batch: siblings get cancelled, but the genuine error must win.
    Plan bad;
    ASSERT_TRUE(
        bad.Add("bad", std::make_shared<MCSeeker>(
                           std::vector<std::vector<std::string>>{{"x"}}, 3))
            .ok());
    plans.insert(plans.begin() + 1, std::move(bad));
  }
  const QueryControl control =
      QueryControl::WithDeadline(std::chrono::seconds(300));
  auto batch = blend.RunMany(plans, control);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  // The batch abort ran on a nested control: the caller's handle is intact
  // and still serves fresh queries.
  EXPECT_FALSE(control.cancelled());
  auto res = blend.Run(MakeWorkload()[0], control);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
}

TEST_F(ResilienceTest, RunManyWithGenerousControlMatchesPerPlanRuns) {
  Blend blend(&lake_);
  const std::vector<std::string> reference = Reference(blend);
  const std::vector<Plan> plans = MakeWorkload();
  const QueryControl control =
      QueryControl::WithDeadline(std::chrono::seconds(300));
  auto batch = blend.RunMany(plans, control);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(reference[i], Dump(Result<TableList>(batch.value()[i])))
        << "plan " << i;
  }
}

TEST_F(ResilienceTest, ControlHelpersReportStages) {
  // Unit-level: Check() names the stage it tripped at, ChargeMemory rolls
  // back cleanly on overflow, and nested controls propagate upward trips.
  const QueryControl parent = QueryControl::WithMemoryBudget(100);
  const QueryControl child = QueryControl::Nested(parent);
  EXPECT_TRUE(child.Check("stage-a").ok());
  EXPECT_TRUE(child.ChargeMemory(60).ok());
  EXPECT_EQ(parent.MemoryUsed(), 60);
  // Overcharge trips the parent budget through the child and rolls back.
  Status s = child.ChargeMemory(60);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  Status tripped = child.Check("stage-b");
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);

  const QueryControl cancellable = QueryControl::Cancellable();
  cancellable.Cancel();
  Status c = cancellable.Check("stage-c");
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.message().find("stage-c"), std::string::npos) << c.ToString();
}

}  // namespace
}  // namespace blend::core
