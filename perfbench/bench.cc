// End-to-end benchmark of BLEND discovery plans.
//
//   blend_perfbench --workload <sc-seek|mc-seek|task-serving> --seed <n>
//                   --seconds <s> --trace <0|1> --out-dir <dir>
//
// Each workload generates its lake and queries from the seed and sets up a
// core::Blend: `setup_s` is the median of repeated set-ups, run in a forked
// child so the serving process holds exactly one. It warms every plan once,
// then drives Blend::Run in a closed loop for `--seconds`: a client sends its
// next plan only after the previous one returned. Every result is checked against an
// oracle that does not share the engine's code paths (brute-force overlap
// for SC, MATE for MC, a serial single-client reference for the concurrent
// task mix). The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around every call it makes into index, sql and core (from
// this file only; nothing inside the program is instrumented), writes them
// to <out-dir>/spans-<workload>.json, and reports the per-layer metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/josie.h"
#include "baselines/mate.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/blend.h"
#include "core/optimizer.h"
#include "lakegen/correlation_lake.h"
#include "lakegen/join_lake.h"
#include "lakegen/mc_lake.h"
#include "lakegen/vocab.h"
#include "lakegen/workloads.h"
#include "sql/lexer.h"
#include "sql/parser.h"

using namespace blend;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr int kTopK = 10;

// ---------------------------------------------------------------------------
// Arguments and seeds
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0 || args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: blend_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n");
    return false;
  }
  return true;
}

/// Independent sub-seed for one purpose (lake, queries, cost model), so the
/// one --seed argument derives every input.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFull;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Linearly interpolated q-quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / 1e6; }

double FileMb(const std::string& path) {
  double mb = 0;
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    mb = Mb(static_cast<size_t>(std::ftell(f)));
    std::fclose(f);
  }
  return mb;
}

std::string SnapshotPath(const Args& args) {
  return args.out_dir + "/snapshot-" + std::to_string(getpid()) + ".blend";
}

/// Resident posting payload of the serving index (CSR offsets + lists).
size_t PostingBytes(const core::Blend& blend) {
  const SecondaryIndexes& s = blend.bundle().layout() == StoreLayout::kRow
                                  ? blend.bundle().row_store().secondary()
                                  : blend.bundle().column_store().secondary();
  return (s.posting_offsets.size() + s.posting_partitions.size()) * sizeof(uint64_t) +
         s.posting_positions.size() * sizeof(RecordPos) + s.posting_blob.size();
}

size_t LakeCells(const DataLake& lake) {
  size_t cells = 0;
  for (size_t t = 0; t < lake.NumTables(); ++t) {
    cells += lake.table(static_cast<TableId>(t)).NumCells();
  }
  return cells;
}

/// Set-up and plan construction must succeed; a failure ends the run with
/// exit code 2 and no result line.
void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory around calls into the program, written at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same log, -1 for a root
  uint64_t plan;   // 0 for set-up spans
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) { spans_.reserve(capacity); }

  bool HasRoomFor(size_t n) const { return spans_.size() + n <= capacity_; }

  int32_t Open(const char* name, int32_t parent, uint64_t plan) {
    spans_.push_back({name, NowNs(), 0, parent, plan});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  /// A child whose duration the program reported (ExecutionReport) rather
  /// than one timed here; laid out from `start_ns` inside its parent.
  void AddReported(const char* name, int64_t start_ns, double seconds,
                   int32_t parent, uint64_t plan) {
    spans_.push_back({name, start_ns,
                      start_ns + static_cast<int64_t>(seconds * 1e9), parent, plan});
  }
  double Seconds(int32_t id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another log, re-basing its parent links.
  void Absorb(const SpanLog& other) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
};

/// RAII span for the straight-line set-up calls.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent)
      : log_(log), id_(log != nullptr ? log->Open(name, parent, 0) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Per-span self time: duration minus the union of its children's intervals
/// (clipped to the span).
std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [b, e] : iv) {
      b = std::max(b, p.start_ns);
      e = std::min(e, p.end_ns);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    self[i] = static_cast<double>(p.end_ns - p.start_ns - covered) / 1e9;
  }
  return self;
}

struct SpanStats {
  std::vector<double> dur_us;
  std::vector<double> self_us;
};

/// Writes the spans as JSON and returns duration / self-time samples per
/// span name.
std::map<std::string, SpanStats> FinishSpans(const SpanLog& log,
                                             const std::string& path) {
  const auto& spans = log.spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, SpanStats> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& st = by_name[spans[i].name];
    st.dur_us.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    st.self_us.push_back(self[i] * 1e6);
  }
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    const int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"plan\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                   i, s.name, s.parent, static_cast<unsigned long long>(s.plan),
                   static_cast<long long>(s.start_ns - epoch),
                   static_cast<long long>(s.end_ns - epoch),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
  std::printf("# %-28s %8s %12s %12s\n", "span", "count", "p50 dur us", "p50 self us");
  for (const auto& [name, st] : by_name) {
    std::printf("# %-28s %8zu %12.2f %12.2f\n", name.c_str(), st.dur_us.size(),
                Median(st.dur_us), Median(st.self_us));
  }
  return by_name;
}

// ---------------------------------------------------------------------------
// One traced plan execution
// ---------------------------------------------------------------------------

/// Counters and per-plan differences a traced plan yields besides its spans.
struct PlanObs {
  double run_us = 0;
  std::vector<std::pair<const core::Seeker*, double>> seeker_steps;  // seconds
  QueryTraceSummary trace;
  // Seeker replay (plans with an SC or MC seeker).
  bool replayed = false;
  double execute_us = 0, query_us = 0, parse_us = 0;
  double tokens = 0, sql_bytes = 0, rows = 0;
};

/// Runs `plan` via Blend::RunReport inside a "core.run" span and adds the
/// optimize / seeker / combiner durations the report carries as its
/// children. Then, when `replay` is set, replays that seeker without a
/// rewrite: Seeker::Execute, and its SQL through GenerateSql, sql::Lex,
/// sql::ParseStatement and Engine::Query, one span per call.
Result<core::TableList> TracedPlan(const core::Blend& blend, const core::Plan& plan,
                                   const core::Seeker* replay, SpanLog* log,
                                   uint64_t plan_id, PlanObs* obs) {
  const int32_t root = log->Open("plan", -1, plan_id);
  const int32_t run = log->Open("core.run", root, plan_id);
  Result<core::ExecutionReport> report = blend.RunReport(plan);
  log->Close(run);
  obs->run_us = log->Seconds(run) * 1e6;
  if (!report.ok()) {
    log->Close(root);
    return report.status();
  }
  const core::ExecutionReport& rep = report.value();
  int64_t t = log->spans()[static_cast<size_t>(run)].start_ns;
  log->AddReported("core.optimize", t, rep.optimize_seconds, run, plan_id);
  t += static_cast<int64_t>(rep.optimize_seconds * 1e9);
  for (const core::PlanStepTiming& step : rep.step_timings) {
    const bool combiner = step.kind == "combiner";
    log->AddReported(combiner ? "core.combiner" : "core.seeker", t, step.seconds, run,
                     plan_id);
    t += static_cast<int64_t>(step.seconds * 1e9);
    if (!combiner) {
      obs->seeker_steps.push_back({plan.node(step.node).seeker.get(), step.seconds});
    }
  }
  obs->trace = rep.trace;

  if (replay != nullptr) {
    const int32_t exec = log->Open("core.seeker.replay", root, plan_id);
    auto replayed = replay->Execute(blend.context(), "");
    log->Close(exec);
    const int32_t gen = log->Open("core.seeker.generate_sql", root, plan_id);
    const std::string sql = replay->GenerateSql("", /*fetch_limit=*/-1);
    log->Close(gen);
    const int32_t lex = log->Open("sql.lex", root, plan_id);
    auto tokens = sql::Lex(sql);
    log->Close(lex);
    const int32_t parse = log->Open("sql.parse", root, plan_id);
    auto stmt = sql::ParseStatement(sql);
    log->Close(parse);
    // The engine options the seeker itself passes (core/seeker.cc): SC asks
    // for the dedup-top-k tail on TableId, MC for a plain statement.
    sql::QueryOptions opts = blend.context().query_options;
    if (replay->type() == core::Seeker::Type::kSC) {
      opts.dedup_column = 0;
      opts.dedup_limit = replay->k();
    }
    const int32_t query = log->Open("sql.query", root, plan_id);
    auto res = blend.engine().Query(sql, opts);
    log->Close(query);
    if (!replayed.ok() || !tokens.ok() || !stmt.ok() || !res.ok()) {
      log->Close(root);
      return Status::Internal("seeker SQL replay failed");
    }
    obs->replayed = true;
    obs->execute_us = log->Seconds(exec) * 1e6;
    obs->query_us = log->Seconds(query) * 1e6;
    obs->parse_us = log->Seconds(parse) * 1e6;
    obs->tokens = static_cast<double>(tokens.value().size());
    obs->sql_bytes = static_cast<double>(sql.size());
    obs->rows = static_cast<double>(res.value().NumRows());
  }
  log->Close(root);
  return report.value().output;
}

// ---------------------------------------------------------------------------
// Oracle comparison
// ---------------------------------------------------------------------------

/// True when `got` is a valid top-k of the oracle's full ranking `full`:
/// same length, every returned table carries its true score, the scores form
/// the same multiset as the oracle's top-k, and no table repeats. This is
/// the id-set comparison made exact under ties at the k-th score.
bool MatchesTopK(const core::TableList& got, const core::TableList& full, int k) {
  const size_t n = std::min(full.size(), static_cast<size_t>(k));
  if (got.size() != n) return false;
  std::unordered_map<TableId, double> truth;
  for (const auto& e : full) truth.emplace(e.table, e.score);
  std::unordered_set<TableId> seen;
  std::vector<double> got_scores, want_scores;
  for (const auto& e : got) {
    auto it = truth.find(e.table);
    if (it == truth.end() || it->second != e.score || !seen.insert(e.table).second) {
      return false;
    }
    got_scores.push_back(e.score);
  }
  for (size_t i = 0; i < n; ++i) want_scores.push_back(full[i].score);
  std::sort(got_scores.begin(), got_scores.end());
  std::sort(want_scores.begin(), want_scores.end());
  return got_scores == want_scores;
}

// ---------------------------------------------------------------------------
// The closed loop shared by the three workloads
// ---------------------------------------------------------------------------

/// One prepared plan of a workload's pool and the seeker the traced run
/// replays (see TracedPlan).
struct PoolPlan {
  core::Plan plan;
  const core::Seeker* replay = nullptr;
};

/// The plan's first SC seeker, else its first MC seeker, else null: the two
/// seeker types whose engine options TracedPlan mirrors.
const core::Seeker* ReplaySeeker(const core::Plan& plan) {
  for (core::Seeker::Type type : {core::Seeker::Type::kSC, core::Seeker::Type::kMC}) {
    for (const core::Plan::Node& node : plan.nodes()) {
      if (node.is_seeker() && node.seeker->type() == type) return node.seeker.get();
    }
  }
  return nullptr;
}

/// Per-client result of a measuring window.
struct ClientLog {
  std::vector<double> latency_us;
  std::vector<int> slot;      // pool slot of each plan run
  std::vector<uint8_t> ok;    // OK Status and equal to the slot's reference
  std::vector<PlanObs> obs;   // traced windows only
};

struct Window {
  std::vector<ClientLog> clients;
  double wall_s = 0;
};

/// Runs `pools.size()` closed-loop clients for `seconds`. Client c runs its
/// own plans pools[c] round-robin from a per-client offset and compares every
/// result with `reference[slot]`. With a span log per client, each plan runs
/// through TracedPlan; the window then also ends when a log is full.
Window RunWindow(const core::Blend& blend,
                 const std::vector<std::vector<PoolPlan>>& pools,
                 const std::vector<core::TableList>& reference, double seconds,
                 std::vector<SpanLog>* logs) {
  Window w;
  w.clients.resize(pools.size());
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  auto client = [&](size_t c) {
    ClientLog& out = w.clients[c];
    const auto& pool = pools[c];
    SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
    size_t next = (c * pool.size()) / pools.size();
    uint64_t seq = 0;
    while (Clock::now() < deadline) {
      if (log != nullptr && !log->HasRoomFor(16)) break;
      const size_t slot = next++ % pool.size();
      Result<core::TableList> r = Status::Internal("unset");
      if (log != nullptr) {
        PlanObs obs;
        const uint64_t plan_id = (static_cast<uint64_t>(c + 1) << 32) | ++seq;
        r = TracedPlan(blend, pool[slot].plan, pool[slot].replay, log, plan_id, &obs);
        out.latency_us.push_back(obs.run_us);
        if (r.ok()) out.obs.push_back(std::move(obs));
      } else {
        const auto t0 = Clock::now();
        r = blend.Run(pool[slot].plan);
        out.latency_us.push_back(SecondsSince(t0) * 1e6);
      }
      out.slot.push_back(static_cast<int>(slot));
      out.ok.push_back(r.ok() && r.value() == reference[slot]);
    }
  };
  if (pools.size() == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pools.size());
    for (size_t c = 0; c < pools.size(); ++c) threads.emplace_back(client, c);
    for (auto& th : threads) th.join();
  }
  w.wall_s = SecondsSince(start);
  return w;
}

std::vector<double> AllLatencies(const Window& w) {
  std::vector<double> all;
  for (const auto& c : w.clients) {
    all.insert(all.end(), c.latency_us.begin(), c.latency_us.end());
  }
  return all;
}

/// Plans that returned OK with the reference result.
uint64_t Completed(const Window& w) {
  uint64_t n = 0;
  for (const auto& c : w.clients) {
    n += static_cast<uint64_t>(std::count(c.ok.begin(), c.ok.end(), 1));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// What a workload hands the shared loop: the serving Blend, one plan pool
/// per client, the reference result per pool slot, and the oracle check run
/// once the measuring is over.
/// Durations of one set-up in seconds (zero for steps a workload skips) and
/// the snapshot size it wrote.
struct SetupSample {
  double total = 0, build = 0, save = 0, open = 0, train = 0;
  double snapshot_mb = 0;
};

struct Prepared {
  std::shared_ptr<const void> lake_owner;  // outlives `blend`
  const DataLake* lake = nullptr;
  std::unique_ptr<core::Blend> blend;
  std::vector<std::vector<PoolPlan>> pools;
  std::vector<core::TableList> reference;
  /// Sets up a serving Blend into `*blend`, replacing any previous one, with
  /// spans into `log` when it is not null. This is what `setup_s` times.
  std::function<SetupSample(SpanLog* log, std::unique_ptr<core::Blend>* blend)> setup;
  std::vector<SetupSample> setup_samples;
  /// False when set-up skips the snapshot and the cost model and the plans
  /// have no combiner; the traced run then probes those layers itself.
  bool setup_covers_all_layers = false;
  /// Verifies reference[slot] against the workload's oracle; returns the
  /// slots it rejects. Runs after the measured windows (it builds oracle
  /// indexes that would otherwise count in peak RSS).
  std::function<std::vector<int>(const std::vector<core::TableList>&)> check_reference;
  /// Trace-mode comparison against the paper's baselines.
  std::function<void(const Window& untraced, Outcome*)> baselines;
  std::string description;
};

/// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS of
/// set-up has run (at most kMaxSetupReps), so a short set-up still yields a
/// steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 20;
constexpr double kSetupBudgetS = 1.5;

/// Median of one field over the set-up repetitions.
double SetupMedian(const std::vector<SetupSample>& samples,
                   double SetupSample::*field) {
  std::vector<double> v;
  for (const SetupSample& s : samples) v.push_back(s.*field);
  return Median(v);
}

bool MoreSetupReps(const std::vector<SetupSample>& done) {
  double total = 0;
  for (const SetupSample& s : done) total += s.total;
  const int n = static_cast<int>(done.size());
  return n < kMinSetupReps || (n < kMaxSetupReps && total < kSetupBudgetS);
}

/// Runs the set-up repetitions in a forked child and returns their samples,
/// so the parent's heap, and its peak RSS, hold only the one set-up that
/// serves. Must run before the process starts any thread.
std::vector<SetupSample> TimeSetupInChild(const Prepared& p) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(2);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<SetupSample> done;
    std::unique_ptr<core::Blend> blend;
    while (MoreSetupReps(done)) done.push_back(p.setup(nullptr, &blend));
    const char* bytes = reinterpret_cast<const char*>(done.data());
    size_t left = done.size() * sizeof(SetupSample);
    while (left > 0) {
      const ssize_t n = write(fds[1], bytes, left);
      if (n <= 0) _exit(1);
      bytes += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string buf;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], chunk, sizeof(chunk))) > 0) {
    buf.append(chunk, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || buf.empty() ||
      buf.size() % sizeof(SetupSample) != 0) {
    std::fprintf(stderr, "set-up repetitions failed\n");
    std::exit(2);
  }
  std::vector<SetupSample> samples(buf.size() / sizeof(SetupSample));
  std::memcpy(samples.data(), buf.data(), buf.size());
  return samples;
}

/// Every workload serves on a serial engine (query_threads = 1): each plan
/// runs on its client's thread. On the shared pool, waking workers for a
/// sub-millisecond statement made sc-seek and mc-seek p99 swing 3x between
/// runs of one seed, and task-serving's 4 clients plus 4 pool workers
/// oversubscribed 4 vCPUs: its p50 spread 22% over 10 seeds against 2% between
/// serial runs, at 25% lower throughput. The index build keeps its own pool.
core::Blend::Options ServingOptions() {
  core::Blend::Options options;
  options.query_threads = 1;
  return options;
}

/// In-memory set-up: the index build.
SetupSample SetupInMemory(const DataLake* lake, SpanLog* log,
                          std::unique_ptr<core::Blend>* blend) {
  blend->reset();
  ScopedSpan setup(log, "setup", -1);
  SetupSample s;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(log, "index.build", setup.id());
    *blend = std::make_unique<core::Blend>(lake, ServingOptions());
  }
  s.total = s.build = SecondsSince(t0);
  return s;
}

/// Draws |Q| distinct cell values by pooling random categorical columns of
/// the lake (the JOSIE-style query workload of Fig. 5). Numeric columns hold
/// unique random values, so a query drawn from one finds no overlap and
/// costs a fraction of a join-key query; leaving them out keeps each |Q|
/// class's latency distribution unimodal, so its median is steady.
std::vector<std::string> SampleColumnsQuery(const DataLake& lake, size_t size,
                                            Rng* rng) {
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  for (int attempt = 0; attempt < 100000 && out.size() < size; ++attempt) {
    const Table& t = lake.table(static_cast<TableId>(rng->Uniform(lake.NumTables())));
    if (t.NumColumns() == 0 || t.NumRows() == 0) continue;
    const Column& column = t.column(rng->Uniform(t.NumColumns()));
    if (column.IsNumeric()) continue;
    for (const auto& cell : column.cells) {
      if (out.size() >= size) break;
      if (!cell.empty() && seen.insert(cell).second) out.push_back(cell);
    }
  }
  return out;
}

constexpr size_t kScQuerySizes[] = {10, 100, 1000};
constexpr size_t kScPerSize = 200;

Prepared PrepareScSeek(const Args& args) {
  Prepared p;
  lakegen::JoinLakeSpec spec;
  spec.name = "sc-join-lake";
  spec.num_tables = 800;
  spec.seed = SubSeed(args.seed, 1);
  auto owned = std::make_shared<const DataLake>(lakegen::MakeJoinLake(spec));
  p.lake = owned.get();
  p.lake_owner = owned;

  auto queries = std::make_shared<std::vector<std::vector<std::string>>>();
  Rng rng(SubSeed(args.seed, 2));
  for (size_t i = 0; i < kScPerSize; ++i) {
    for (size_t qs : kScQuerySizes) {
      queries->push_back(SampleColumnsQuery(*p.lake, qs, &rng));
    }
  }
  p.pools.resize(1);
  for (const auto& q : *queries) {
    PoolPlan pp;
    CheckOk(pp.plan.Add("sc", std::make_shared<core::SCSeeker>(q, kTopK)), "Plan::Add");
    pp.replay = ReplaySeeker(pp.plan);
    p.pools[0].push_back(std::move(pp));
  }
  p.setup = [lake = p.lake](SpanLog* log, std::unique_ptr<core::Blend>* blend) {
    return SetupInMemory(lake, log, blend);
  };

  const DataLake* lake = p.lake;
  p.check_reference = [lake, queries](const std::vector<core::TableList>& reference) {
    lakegen::BruteForceOverlap oracle(lake);
    std::vector<int> bad;
    for (size_t s = 0; s < queries->size(); ++s) {
      const core::TableList full = oracle.TopKByColumnOverlap((*queries)[s], -1);
      if (!MatchesTopK(reference[s], full, kTopK)) {
        bad.push_back(static_cast<int>(s));
      }
    }
    return bad;
  };
  p.baselines = [lake, queries](const Window& w, Outcome* out) {
    baselines::Josie josie(lake);
    const size_t classes = std::size(kScQuerySizes);
    std::vector<std::vector<double>> blend_us(classes), josie_us(classes);
    for (const auto& c : w.clients) {
      for (size_t i = 0; i < c.slot.size(); ++i) {
        blend_us[static_cast<size_t>(c.slot[i]) % classes].push_back(c.latency_us[i]);
      }
    }
    for (size_t s = 0; s < queries->size(); ++s) {
      std::vector<double> reps;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        (void)josie.TopK((*queries)[s], kTopK);
        reps.push_back(SecondsSince(t0) * 1e6);
      }
      josie_us[s % classes].push_back(Median(reps));
    }
    for (size_t k = 0; k < classes; ++k) {
      const double j = Median(josie_us[k]);
      out->Add("baselines.sc_vs_josie.q" + std::to_string(kScQuerySizes[k]),
               j > 0 ? Median(blend_us[k]) / j : 0, "ratio");
    }
  };
  p.description = "MakeJoinLake 800 tables; SC k=10, |Q| in {10,100,1000}";
  return p;
}

constexpr size_t kMcQueries = 600;

Prepared PrepareMcSeek(const Args& args) {
  Prepared p;
  lakegen::McLakeSpec spec;
  spec.name = "dwtc-like";
  spec.num_tables = 500;
  spec.rows_min = 80;
  spec.rows_max = 200;
  spec.seed = SubSeed(args.seed, 1);
  auto mc_lake = std::make_shared<const lakegen::McLake>(lakegen::MakeMcLake(spec));
  p.lake = &mc_lake->lake;
  p.lake_owner = mc_lake;

  auto queries = std::make_shared<std::vector<std::vector<std::vector<std::string>>>>();
  Rng rng(SubSeed(args.seed, 2));
  for (size_t i = 0; i < kMcQueries; ++i) {
    const int domain = static_cast<int>(i % spec.num_pair_domains);
    queries->push_back(lakegen::MakeMcQuery(spec, domain, 15 + rng.Uniform(10), &rng));
  }
  p.pools.resize(1);
  for (const auto& q : *queries) {
    PoolPlan pp;
    CheckOk(pp.plan.Add("mc", std::make_shared<core::MCSeeker>(q, kTopK)), "Plan::Add");
    pp.replay = ReplaySeeker(pp.plan);
    p.pools[0].push_back(std::move(pp));
  }
  p.setup = [lake = p.lake](SpanLog* log, std::unique_ptr<core::Blend>* blend) {
    return SetupInMemory(lake, log, blend);
  };

  const DataLake* lake = p.lake;
  p.check_reference = [lake, queries](const std::vector<core::TableList>& reference) {
    baselines::Mate mate(lake);
    std::vector<int> bad;
    for (size_t s = 0; s < queries->size(); ++s) {
      if (!MatchesTopK(reference[s], mate.TopK((*queries)[s], -1), kTopK)) {
        bad.push_back(static_cast<int>(s));
      }
    }
    return bad;
  };
  p.baselines = [lake, queries](const Window& w, Outcome* out) {
    baselines::Mate mate(lake);
    std::vector<double> mate_us;
    for (const auto& q : *queries) {
      std::vector<double> reps;
      for (int r = 0; r < 3; ++r) {
        const auto t0 = Clock::now();
        (void)mate.TopK(q, kTopK);
        reps.push_back(SecondsSince(t0) * 1e6);
      }
      mate_us.push_back(Median(reps));
    }
    const double m = Median(mate_us);
    out->Add("baselines.mc_vs_mate", m > 0 ? Median(AllLatencies(w)) / m : 0, "ratio");
  };
  p.description =
      "MakeMcLake dwtc-like 500 tables x 80-200 rows; MC k=10, 15-24 tuples";
  return p;
}

constexpr size_t kTaskClients = 4;
constexpr size_t kTaskInstances = 32;  // per task type

Prepared PrepareTaskServing(const Args& args) {
  Prepared p;
  lakegen::CorrLakeSpec spec;
  spec.name = "corr-composite";
  spec.composite_key = true;
  spec.seed = SubSeed(args.seed, 1);
  auto corr = std::make_shared<const lakegen::CorrLake>(lakegen::MakeCorrLake(spec));
  p.lake = &corr->lake;
  p.lake_owner = corr;

  // Inputs of the mix: data imputation (MC ∩ SC), feature discovery
  // (C − C ∩ MC) and keyword ∪ correlation, kTaskInstances of each.
  struct TaskInput {
    int kind = 0;
    std::vector<std::vector<std::string>> tuples;  // MC examples / key tuples
    std::vector<std::string> keys;                 // SC keys / C join keys / keywords
    std::vector<double> target;
    std::vector<double> feature;
    std::vector<std::string> c_keys;               // KW ∪ C: the C seeker's keys
  };
  std::vector<TaskInput> inputs;
  Rng rng(SubSeed(args.seed, 2));
  auto key_tuples = [&](int domain, size_t n) {
    std::vector<std::vector<std::string>> t;
    for (size_t idx : rng.SampleIndices(spec.keys_per_domain, n)) {
      t.push_back({lakegen::Vocab::Token(domain, idx),
                   lakegen::CompositePartner(domain, idx)});
    }
    return t;
  };
  for (size_t i = 0; i < kTaskInstances; ++i) {
    for (int kind = 0; kind < 3; ++kind) {
      const int domain = static_cast<int>(rng.Uniform(spec.num_key_domains));
      TaskInput in;
      in.kind = kind;
      if (kind == 0) {
        in.tuples = key_tuples(domain, 5);
        for (size_t idx : rng.SampleIndices(spec.keys_per_domain, 8)) {
          in.keys.push_back(lakegen::Vocab::Token(domain, idx));
        }
      } else if (kind == 1) {
        auto q = lakegen::MakeCorrQuery(spec, domain, false, 60, &rng);
        in.keys = q.keys;
        in.target = q.targets;
        for (double t : q.targets) in.feature.push_back(0.9 * t + 0.2 * rng.Normal());
        in.tuples = key_tuples(domain, 10);
      } else {
        for (size_t idx : rng.SampleIndices(spec.keys_per_domain, 3)) {
          in.keys.push_back(lakegen::Vocab::Token(domain, idx));
        }
        auto q = lakegen::MakeCorrQuery(spec, domain, false, 50, &rng);
        in.c_keys = q.keys;
        in.target = q.targets;
      }
      inputs.push_back(std::move(in));
    }
  }
  // Every client owns its Plan and seeker objects: MCSeeker records
  // per-instance stats, so a Plan is not shared across serving threads.
  p.pools.resize(kTaskClients);
  for (auto& pool : p.pools) {
    for (const TaskInput& in : inputs) {
      PoolPlan pp;
      if (in.kind == 0) {
        auto sink = core::tasks::AddDataImputation(&pp.plan, in.tuples, in.keys, kTopK);
        if (!sink.ok()) CheckOk(sink.status(), "AddDataImputation");
      } else if (in.kind == 1) {
        auto sink = core::tasks::AddFeatureDiscovery(&pp.plan, in.keys, in.target,
                                                     {in.feature}, in.tuples, kTopK);
        if (!sink.ok()) CheckOk(sink.status(), "AddFeatureDiscovery");
      } else {
        CheckOk(pp.plan.Add("kw", std::make_shared<core::KWSeeker>(in.keys, kTopK)),
                "Plan::Add");
        CheckOk(pp.plan.Add("corr", std::make_shared<core::CorrelationSeeker>(
                                        in.c_keys, in.target, kTopK)),
                "Plan::Add");
        CheckOk(pp.plan.Add("out", std::make_shared<core::UnionCombiner>(kTopK),
                            {"kw", "corr"}),
                "Plan::Add");
      }
      pp.replay = ReplaySeeker(pp.plan);
      pool.push_back(std::move(pp));
    }
  }

  // Build, save, reopen from the snapshot (the serving index), train. The
  // file is unlinked once mapped; the mapping stays valid.
  p.setup_covers_all_layers = true;
  p.setup = [lake = p.lake, path = SnapshotPath(args), seed = SubSeed(args.seed, 3)](
                SpanLog* log, std::unique_ptr<core::Blend>* blend) {
    blend->reset();
    ScopedSpan setup(log, "setup", -1);
    SetupSample s;
    const auto t0 = Clock::now();
    std::unique_ptr<core::Blend> built;
    {
      ScopedSpan span(log, "index.build", setup.id());
      const auto t = Clock::now();
      built = std::make_unique<core::Blend>(lake);
      s.build = SecondsSince(t);
    }
    {
      ScopedSpan span(log, "index.snapshot_save", setup.id());
      const auto t = Clock::now();
      const Status st = built->SaveSnapshot(path);
      s.save = SecondsSince(t);
      CheckOk(st, "SaveSnapshot");
    }
    built.reset();
    {
      ScopedSpan span(log, "index.snapshot_open", setup.id());
      const auto t = Clock::now();
      auto opened = core::Blend::OpenSnapshot(path, lake, ServingOptions());
      s.open = SecondsSince(t);
      if (!opened.ok()) CheckOk(opened.status(), "OpenSnapshot");
      *blend = opened.take();
    }
    {
      ScopedSpan span(log, "core.cost_model.train", setup.id());
      const auto t = Clock::now();
      const Status st = (*blend)->TrainCostModel(40, seed);
      s.train = SecondsSince(t);
      CheckOk(st, "TrainCostModel");
    }
    s.total = SecondsSince(t0);
    s.snapshot_mb = FileMb(path);
    std::remove(path.c_str());
    return s;
  };
  // The reference is itself the serial single-client run of each plan
  // (filled in Run); the check here is that the concurrent serving
  // matched it, which the window already counted.
  p.check_reference = [](const std::vector<core::TableList>&) {
    return std::vector<int>();
  };
  p.description =
      "MakeCorrLake composite-key 300 tables, snapshot-served, trained cost model; " +
      std::to_string(kTaskClients) + " clients";
  return p;
}

// ---------------------------------------------------------------------------
// Measuring and reporting
// ---------------------------------------------------------------------------

/// Trace-mode probe of the index and cost-model layers an in-memory
/// workload's set-up skips, on its own serving index: SaveSnapshot,
/// OpenSnapshot, then TrainCostModel on the reopened copy, which is returned
/// (its model scores the cost model on this workload's plans).
std::unique_ptr<core::Blend> ProbeSnapshotAndTraining(const core::Blend& serving,
                                                      const DataLake* lake,
                                                      const Args& args, SpanLog* log,
                                                      SetupSample* out) {
  const std::string path = SnapshotPath(args);
  ScopedSpan probe(log, "probe", -1);
  {
    ScopedSpan span(log, "index.snapshot_save", probe.id());
    const auto t = Clock::now();
    CheckOk(serving.SaveSnapshot(path), "SaveSnapshot");
    out->save = SecondsSince(t);
  }
  out->snapshot_mb = FileMb(path);
  std::unique_ptr<core::Blend> opened;
  {
    ScopedSpan span(log, "index.snapshot_open", probe.id());
    const auto t = Clock::now();
    auto r = core::Blend::OpenSnapshot(path, lake, serving.options());
    out->open = SecondsSince(t);
    if (!r.ok()) CheckOk(r.status(), "OpenSnapshot");
    opened = r.take();
  }
  std::remove(path.c_str());
  {
    ScopedSpan span(log, "core.cost_model.train", probe.id());
    const auto t = Clock::now();
    CheckOk(opened->TrainCostModel(40, SubSeed(args.seed, 3)), "TrainCostModel");
    out->train = SecondsSince(t);
  }
  return opened;
}

/// Trace-mode probe of the combiner layer for single-seeker workloads:
/// IntersectCombiner over each pair of consecutive pool results.
void ProbeCombiner(const std::vector<core::TableList>& results, SpanLog* log) {
  const core::IntersectCombiner combiner(kTopK);
  for (size_t i = 0; i + 1 < results.size() && log->HasRoomFor(2); ++i) {
    const int32_t root = log->Open("probe", -1, 0);
    const int32_t span = log->Open("core.combiner", root, 0);
    (void)combiner.Combine({results[i], results[i + 1]});
    log->Close(span);
    log->Close(root);
  }
}

/// `setup` holds the median set-up step times, with the snapshot and training
/// figures from the probe where set-up skips them; `modeled` is the Blend
/// whose cost model rel_error scores.
void AddPerLayerMetrics(const Prepared& p, const SetupSample& setup,
                        const core::Blend& modeled,
                        const std::vector<ClientLog>& traced,
                        const std::map<std::string, SpanStats>& spans, Outcome* out) {
  auto span_p50 = [&](const char* name, bool self) {
    auto it = spans.find(name);
    if (it == spans.end()) return 0.0;
    return Median(self ? it->second.self_us : it->second.dur_us);
  };
  const size_t cells = LakeCells(*p.lake);
  const double build_s = setup.build;
  out->Add("index.build_s", build_s, "s");
  out->Add("index.cells_per_s",
           build_s > 0 ? static_cast<double>(cells) / build_s : 0, "1/s");
  out->Add("index.snapshot_save_s", setup.save, "s");
  out->Add("index.snapshot_open_s", setup.open, "s");
  out->Add("index.snapshot_mb", setup.snapshot_mb, "MB");
  out->Add("index.posting_mb", Mb(PostingBytes(*p.blend)), "MB");
  out->Add("core.cost_model.train_s", setup.train, "s");

  std::vector<double> rel_error, statements, exec_us, seeker_self_us;
  std::vector<double> tokens, sql_kb, rows;
  std::vector<double> blocks, seeks;
  const std::pair<const char*, TraceStage> stage_metrics[] = {
      {"sql.stage.fused_scan_us", TraceStage::kFusedScan},
      {"sql.stage.gallop_intersect_us", TraceStage::kGallopIntersect},
      {"sql.stage.gallop_emit_us", TraceStage::kGallopEmit},
      {"sql.stage.aggregation_us", TraceStage::kAggregation},
      {"sql.stage.queue_wait_us", TraceStage::kQueueWait}};
  std::map<TraceStage, std::vector<double>> stage_us;
  double mc_cand = 0, mc_bloom = 0, mc_valid = 0;
  size_t plans = 0;
  const core::CostModel* model = modeled.cost_model();
  const core::Optimizer optimizer(
      model, &modeled.stats(), core::QueryParallelism(modeled.context().query_options));
  for (const ClientLog& c : traced) {
    for (const PlanObs& o : c.obs) {
      ++plans;
      const QueryTraceSummary& tr = o.trace;
      auto count = [&](TraceCounter counter) {
        return static_cast<double>(tr.CounterValue(counter));
      };
      statements.push_back(count(TraceCounter::kEngineQueries));
      blocks.push_back(count(TraceCounter::kPostingBlocksDecoded));
      seeks.push_back(count(TraceCounter::kGallopSeeks));
      mc_cand += count(TraceCounter::kMcCandidateRows);
      mc_bloom += count(TraceCounter::kMcBloomPassRows);
      mc_valid += count(TraceCounter::kMcValidatedRows);
      for (const auto& [name, stage] : stage_metrics) {
        stage_us[stage].push_back(tr.StageSeconds(stage) * 1e6);
      }
      if (model != nullptr) {
        for (const auto& [seeker, secs] : o.seeker_steps) {
          if (secs <= 0) continue;
          const double predicted = optimizer.PredictedCost(*seeker);
          rel_error.push_back(std::fabs(predicted - secs) / secs);
        }
      }
      if (o.replayed) {
        exec_us.push_back(o.query_us - o.parse_us);
        seeker_self_us.push_back(o.execute_us - o.query_us);
        tokens.push_back(o.tokens);
        sql_kb.push_back(o.sql_bytes / 1e3);
        rows.push_back(o.rows);
      }
    }
  }
  const double n = plans > 0 ? static_cast<double>(plans) : 1.0;
  out->Add("core.optimizer.optimize_us", span_p50("core.optimize", false), "us");
  out->Add("core.cost_model.rel_error", Median(rel_error), "ratio");
  out->Add("core.seeker.generate_sql_us", span_p50("core.seeker.generate_sql", false),
           "us");
  out->Add("core.seeker.sql_kb", Median(sql_kb), "KB");
  out->Add("core.seeker.execute_us", span_p50("core.seeker", false), "us");
  out->Add("core.seeker.self_us", Median(seeker_self_us), "us");
  out->Add("core.combiner_us", span_p50("core.combiner", false), "us");
  out->Add("core.statements_per_plan", Mean(statements), "count");
  out->Add("core.mc.candidate_rows", mc_cand / n, "count");
  out->Add("core.mc.bloom_pass_rows", mc_bloom / n, "count");
  out->Add("core.mc.validated_rows", mc_valid / n, "count");
  out->Add("core.mc.yield", mc_cand > 0 ? mc_valid / mc_cand : 0, "ratio");
  out->Add("core.unattributed_us", span_p50("core.run", true), "us");
  out->Add("sql.lex_us", span_p50("sql.lex", false), "us");
  out->Add("sql.parse_us", span_p50("sql.parse", false), "us");
  out->Add("sql.tokens", Median(tokens), "count");
  out->Add("sql.query_us", span_p50("sql.query", false), "us");
  out->Add("sql.exec_us", Median(exec_us), "us");
  out->Add("sql.rows_per_result", Median(rows), "count");
  for (const auto& [name, stage] : stage_metrics) {
    out->Add(name, Median(stage_us[stage]), "us");
  }
  out->Add("sql.posting_blocks_decoded", Mean(blocks), "count");
  out->Add("sql.gallop_seeks", Mean(seeks), "count");
}

int Run(const Args& args) {
  SpanLog setup_log(1024);
  SpanLog* setup_spans = args.trace ? &setup_log : nullptr;
  Prepared p;
  if (args.workload == "sc-seek") {
    p = PrepareScSeek(args);
  } else if (args.workload == "mc-seek") {
    p = PrepareMcSeek(args);
  } else if (args.workload == "task-serving") {
    p = PrepareTaskServing(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  p.setup_samples = TimeSetupInChild(p);
  p.setup(setup_spans, &p.blend);
  const size_t cells = LakeCells(*p.lake);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d clients=%zu loop=closed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, p.pools.size());
  std::printf("# inputs: %s; %zu tables, %zu cells, %zu plans per client\n",
              p.description.c_str(), p.lake->NumTables(), cells, p.pools[0].size());

  // Warm-up and reference: every plan of the first client's pool once,
  // serially. The result becomes the slot's reference; the oracle checks it
  // after the measured windows and every later run must reproduce it.
  Outcome out;
  for (const PoolPlan& pp : p.pools[0]) {
    auto r = p.blend->Run(pp.plan);
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
      std::fprintf(stderr, "reference run failed: %s\n", r.status().ToString().c_str());
      p.reference.emplace_back();
    } else {
      p.reference.push_back(r.value());
    }
  }

  Window untraced, traced;
  std::vector<SpanLog> logs;
  if (!args.trace) {
    untraced = RunWindow(*p.blend, p.pools, p.reference, args.seconds, nullptr);
  } else {
    // Untraced first (the trace_overhead base), then the traced window.
    untraced = RunWindow(*p.blend, p.pools, p.reference, args.seconds * 0.3, nullptr);
    for (size_t c = 0; c < p.pools.size(); ++c) {
      logs.emplace_back((1u << 17) / p.pools.size());
    }
    traced = RunWindow(*p.blend, p.pools, p.reference, args.seconds * 0.7, &logs);
  }
  const double peak_rss_mb = PeakRssMb();

  // Oracle check of every reference result; a rejected slot fails every run
  // of it.
  const std::vector<int> bad_slots = p.check_reference(p.reference);
  for (int s : bad_slots) std::printf("# ORACLE MISMATCH at pool slot %d\n", s);
  std::vector<uint8_t> bad(p.reference.size(), 0);
  for (int s : bad_slots) bad[static_cast<size_t>(s)] = 1;
  out.failed += bad_slots.size();  // the reference runs themselves
  for (const Window* w : {&untraced, &traced}) {
    for (const ClientLog& c : w->clients) {
      out.attempted += c.slot.size();
      for (size_t i = 0; i < c.slot.size(); ++i) {
        out.failed += !c.ok[i] || bad[static_cast<size_t>(c.slot[i])];
      }
    }
  }
  const double error_rate =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  const std::vector<double> lat = AllLatencies(untraced);
  if (!args.trace) {
    out.Add("plan_p50_us", Median(lat), "us");
    out.Add("plan_p99_us", Quantile(lat, 0.99), "us");
    out.Add("plans_per_s", static_cast<double>(Completed(untraced)) / untraced.wall_s,
            "1/s");
    out.Add("setup_s", SetupMedian(p.setup_samples, &SetupSample::total), "s");
    std::printf("# setup: %zu repetitions in a child process\n",
                p.setup_samples.size());
    out.Add("index_mb", Mb(p.blend->IndexBytes()), "MB");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    std::printf("# samples: %zu plans in %.3f s\n", lat.size(), untraced.wall_s);
  } else {
    SetupSample setup;
    for (double SetupSample::*field :
         {&SetupSample::build, &SetupSample::save, &SetupSample::open,
          &SetupSample::train, &SetupSample::snapshot_mb}) {
      setup.*field = SetupMedian(p.setup_samples, field);
    }
    SpanLog probe_log(p.reference.size() * 2 + 16);
    std::unique_ptr<core::Blend> probed;
    if (!p.setup_covers_all_layers) {
      probed = ProbeSnapshotAndTraining(*p.blend, p.lake, args, &probe_log, &setup);
      ProbeCombiner(p.reference, &probe_log);
    }
    SpanLog all(0);
    all.Absorb(setup_log);
    all.Absorb(probe_log);
    for (const SpanLog& l : logs) all.Absorb(l);
    const auto spans =
        FinishSpans(all, args.out_dir + "/spans-" + args.workload + ".json");
    AddPerLayerMetrics(p, setup, probed != nullptr ? *probed : *p.blend, traced.clients,
                       spans, &out);
    // Each seeker workload compares against its paper baseline; the other
    // baseline ratios read 0 (not measured on this workload).
    if (p.baselines) p.baselines(untraced, &out);
    std::vector<std::string> baseline_names = {"baselines.mc_vs_mate"};
    for (size_t qs : kScQuerySizes) {
      baseline_names.push_back("baselines.sc_vs_josie.q" + std::to_string(qs));
    }
    for (const std::string& name : baseline_names) {
      if (std::none_of(out.metrics.begin(), out.metrics.end(),
                       [&](const Metric& m) { return m.name == name; })) {
        out.Add(name, 0, "ratio");
      }
    }
    const double base = Median(lat);
    const double with_trace = Median(AllLatencies(traced));
    out.Add("trace_overhead", base > 0 ? with_trace / base - 1.0 : 0, "ratio");
    std::printf("# samples: %zu untraced plans in %.3f s, %zu traced plans in %.3f s\n",
                lat.size(), untraced.wall_s, static_cast<size_t>(Completed(traced)),
                traced.wall_s);
  }
  std::printf("# error_rate %.6g ratio (%llu failed of %llu attempted)\n", error_rate,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const Metric& m : out.metrics) {
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", out.metrics[i].value);
    json += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  return Run(args);
}
