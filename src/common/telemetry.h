#pragma once

// Process-wide telemetry: a registry of named counters, gauges, and
// fixed-bucket latency histograms, plus a per-query trace API.
//
// Design constraints, in order:
//   1. The hot path must stay hot. Metric cells are sharded per worker and
//      updated with relaxed atomics; readers merge the shards. A query that
//      carries no trace performs no clock reads in the execution loop.
//   2. Instrumentation must never change results. Traces record what the
//      executor already decided (morsel geometry, merge order are untouched);
//      the determinism suite pins byte-identity with tracing on vs off.
//   3. Everything compiles out. Configuring with -DBLEND_TELEMETRY=OFF
//      defines BLEND_TELEMETRY_OFF and every recording call collapses to a
//      no-op via `if constexpr`, so the ≤2% serving overhead budget can be
//      audited against a true zero baseline.
//
// Timing discipline: this header and common/control.h are the only places
// the query path may read steady_clock (enforced by the `hot-clock` lint
// rule). Operators time themselves through TraceSpan/QueueWaitProbe, and
// serving surfaces observe latency through LatencyTimer.
//
// The export surfaces — RenderPrometheus() and the StatsTimeSeries ring of
// periodic snapshots (ProxySQL-style stats tables) — are what a future
// `blendd` daemon mounts onto its /metrics endpoint.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace blend {

#ifdef BLEND_TELEMETRY_OFF
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

namespace telemetry_internal {

/// Number of per-metric shards. Threads hash to a stable shard, so two pool
/// workers rarely contend on the same cache line. Power of two.
inline constexpr size_t kMetricShards = 16;

/// Stable shard index of the calling thread.
size_t ShardIndex();

/// Stable, process-unique serial id of the calling thread, assigned on first
/// use. Unlike ShardIndex() (which wraps modulo kMetricShards and so maps
/// many threads onto one shard) these never collide, which is what the trace
/// export needs: one timeline track per worker thread.
uint32_t TrackId();

/// A cache-line-isolated atomic cell; one per shard per metric.
struct alignas(64) MetricCell {
  std::atomic<int64_t> v{0};
};

}  // namespace telemetry_internal

/// Monotonic counter. Add() is wait-free: one relaxed fetch_add on the
/// calling thread's shard. Value() merges the shards (approximate while
/// writers are active; exact once they quiesce).
class Counter {
 public:
  void Add(int64_t n) {
    if constexpr (!kTelemetryEnabled) return;
    cells_[telemetry_internal::ShardIndex()].v.fetch_add(n,
                                                         std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<telemetry_internal::MetricCell, telemetry_internal::kMetricShards>
      cells_;
};

/// A gauge tracked as a sum of signed deltas (Add(+1)/Add(-1)), so updates
/// stay sharded and wait-free; Value() merges. Suits occupancy-style gauges
/// (sleeping workers, pool size) where every setter knows its own delta.
class Gauge {
 public:
  void Add(int64_t n) {
    if constexpr (!kTelemetryEnabled) return;
    cells_[telemetry_internal::ShardIndex()].v.fetch_add(n,
                                                         std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<telemetry_internal::MetricCell, telemetry_internal::kMetricShards>
      cells_;
};

/// Histogram geometry: √2-multiplicative bucket upper bounds in seconds,
/// from 1µs to ~380s (58 finite bounds), plus the +Inf bucket. Two buckets
/// per latency octave keeps p99 interpolation error under ~20% anywhere in
/// the range with a fixed, allocation-free layout.
inline constexpr size_t kHistogramFiniteBounds = 58;
inline constexpr size_t kHistogramBuckets = kHistogramFiniteBounds + 1;

/// The shared bucket upper bounds (seconds), ascending.
const std::array<double, kHistogramFiniteBounds>& HistogramBounds();

/// A merged, point-in-time view of a Histogram; also the unit of arithmetic
/// for interval stats (Delta) and percentile estimation (Quantile).
struct HistogramSnapshot {
  /// Per-bucket (non-cumulative) observation counts; [kHistogramBuckets-1]
  /// is the +Inf bucket.
  std::array<int64_t, kHistogramBuckets> buckets{};
  int64_t count = 0;
  double sum_seconds = 0;

  /// This snapshot minus an earlier one: the observations of the interval.
  HistogramSnapshot Delta(const HistogramSnapshot& earlier) const;

  /// Estimated q-quantile (q in [0,1]) in seconds, linearly interpolated
  /// within the containing bucket; 0 when empty. Observations in the +Inf
  /// bucket report the largest finite bound.
  double Quantile(double q) const;
};

/// Fixed-bucket latency histogram over HistogramBounds(). Observe() is
/// wait-free: a bucket lookup plus two relaxed adds on the caller's shard.
class Histogram {
 public:
  void Observe(double seconds);
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kHistogramBuckets> buckets{};
    std::atomic<int64_t> sum_nanos{0};
  };
  std::array<Shard, telemetry_internal::kMetricShards> shards_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's merged value at collection time.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;        // counter / gauge
  HistogramSnapshot hist;   // histogram
};

/// All metrics at one instant, in deterministic (name) order, stamped with
/// the process steady clock so interval rates need no wall-clock agreement.
struct RegistrySnapshot {
  int64_t steady_nanos = 0;
  std::vector<MetricSample> samples;

  const MetricSample* Find(const std::string& name) const;
};

/// Process-wide registry of named metrics. Registration (GetCounter /
/// GetGauge / GetHistogram) takes a mutex and is meant for cold paths —
/// call sites cache the returned pointer, which stays valid for the process
/// lifetime. Re-registering a name returns the existing instrument (the
/// kind must match; mismatches abort, they are build bugs).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help);

  /// Merged values of every registered metric, sorted by name.
  RegistrySnapshot Collect() const;

  /// Prometheus text exposition format (# HELP / # TYPE + samples);
  /// histograms render cumulative `_bucket{le="..."}` series plus `_sum`
  /// and `_count`. Deterministic order.
  std::string RenderPrometheus() const;

  /// The process-wide registry every subsystem records into.
  static MetricsRegistry& Global();

 private:
  struct Entry {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // std::map: deterministic iteration
};

/// Structural validation of a Prometheus text exposition: every line is a
/// comment or a `name[{labels}] value` sample, metric names are legal, no
/// metric is TYPE-declared or sampled twice, and values parse. Used by the
/// stats-mode smoke check so CI pins the scrape surface stays well-formed.
Status ValidatePrometheusText(const std::string& text);

/// A bounded ring of periodic registry snapshots — the ProxySQL-style
/// time-series layer. Sampling and rendering are mutex-guarded (cold path);
/// the metrics themselves stay wait-free.
class StatsTimeSeries {
 public:
  explicit StatsTimeSeries(size_t capacity = 64);

  /// Appends registry.Collect() to the ring, evicting the oldest entry past
  /// capacity.
  void Sample(const MetricsRegistry& registry);

  size_t size() const;
  /// i=0 is the oldest retained snapshot.
  RegistrySnapshot at(size_t i) const;

  /// Human table of per-interval rates between consecutive snapshots:
  /// interval seconds, delta and rate of `counter_name`, and count/p50/p95/
  /// p99 of `histogram_name` over the interval.
  std::string RenderTable(const std::string& counter_name,
                          const std::string& histogram_name) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<RegistrySnapshot> ring_;
};

/// Stages of the online query path a trace can attribute time to. The names
/// double as the QueryControl stage labels inside the SQL executor, so error
/// messages ("deadline exceeded at scan") and trace rows stay in the same
/// vocabulary.
enum class TraceStage : uint8_t {
  kPlanBuild,
  kOptimize,
  kPlanStep,
  kSeeker,
  kScan,
  kJoinBuild,
  kJoinProbe,
  kKeySeek,
  // Never recorded: these two stages stay only because the perfbench harness
  // reports them, and they read 0.
  kGallopIntersect,
  kGallopEmit,
  kFusedScan,
  kFilter,
  kProjection,
  kAggregation,
  kAggregationMerge,
  kMcValidation,
  kQueueWait,
  kNumStages,
};

constexpr size_t kNumTraceStages = static_cast<size_t>(TraceStage::kNumStages);

constexpr const char* TraceStageName(TraceStage s) {
  switch (s) {
    case TraceStage::kPlanBuild: return "plan build";
    case TraceStage::kOptimize: return "optimize";
    case TraceStage::kPlanStep: return "plan step";
    case TraceStage::kSeeker: return "seeker";
    case TraceStage::kScan: return "scan";
    case TraceStage::kJoinBuild: return "join build";
    case TraceStage::kJoinProbe: return "join probe";
    case TraceStage::kKeySeek: return "key seek";
    case TraceStage::kGallopIntersect: return "gallop intersect";
    case TraceStage::kGallopEmit: return "gallop emit";
    case TraceStage::kFusedScan: return "fused scan";
    case TraceStage::kFilter: return "filter";
    case TraceStage::kProjection: return "projection";
    case TraceStage::kAggregation: return "aggregation";
    case TraceStage::kAggregationMerge: return "aggregation merge";
    case TraceStage::kMcValidation: return "mc validation";
    case TraceStage::kQueueWait: return "queue wait";
    case TraceStage::kNumStages: return "?";
  }
  return "?";
}

/// Event tallies a trace carries alongside stage timings.
enum class TraceCounter : uint8_t {
  kEngineQueries,
  // Never recorded: these two counters stay only because the perfbench
  // harness reports them, and they read 0.
  kPostingBlocksDecoded,
  kGallopSeeks,
  kMcCandidateRows,
  kMcBloomPassRows,
  kMcValidatedRows,
  // Join steps served by the key seek instead of a scan of the new relation.
  kKeySeekSteps,
  kNumCounters,
};

constexpr size_t kNumTraceCounters =
    static_cast<size_t>(TraceCounter::kNumCounters);

constexpr const char* TraceCounterName(TraceCounter c) {
  switch (c) {
    case TraceCounter::kEngineQueries: return "engine_queries";
    case TraceCounter::kPostingBlocksDecoded: return "posting_blocks_decoded";
    case TraceCounter::kGallopSeeks: return "gallop_seeks";
    case TraceCounter::kMcCandidateRows: return "mc_candidate_rows";
    case TraceCounter::kMcBloomPassRows: return "mc_bloom_pass_rows";
    case TraceCounter::kMcValidatedRows: return "mc_validated_rows";
    case TraceCounter::kKeySeekSteps: return "key_seek_steps";
    case TraceCounter::kNumCounters: return "?";
  }
  return "?";
}

/// One stage's accumulated totals in a finished trace.
struct StageSummary {
  TraceStage stage = TraceStage::kNumStages;
  double seconds = 0;
  int64_t tasks = 0;
  int64_t rows = 0;
};

/// The finished, copyable form of a trace: what ExecutionReport carries.
/// All fields zeroed by default, so an untraced report is all zeros.
struct QueryTraceSummary {
  std::vector<StageSummary> stages;  // touched stages only, enum order
  std::array<int64_t, kNumTraceCounters> counters{};

  double StageSeconds(TraceStage s) const;
  int64_t StageRows(TraceStage s) const;
  int64_t CounterValue(TraceCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
  /// This summary minus an earlier one of the same trace: the stage totals
  /// and counters accumulated in between (all-zero stages dropped). Lets a
  /// multi-statement run attribute one shared trace to its statements.
  QueryTraceSummary Delta(const QueryTraceSummary& earlier) const;
  /// Human "trace anatomy" table: one row per touched stage, then counters.
  std::string ToString() const;
};

/// One captured morsel-task span: stage, start offset and duration relative
/// to the trace's capture epoch, and the recording thread's track id. Only
/// recorded when span capture is explicitly enabled on the trace.
struct CapturedSpan {
  TraceStage stage = TraceStage::kNumStages;
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;
  uint32_t track = 0;
};

/// A per-query trace: per-stage {nanos, tasks, rows} cells plus event
/// counters, recorded concurrently by morsel tasks with relaxed atomics.
/// The scheduler's group-completion barrier orders all task recordings
/// before Summary() runs, so merged totals are exact. Stack-allocated by
/// the driver (core::Blend, tests, benches) and threaded through
/// QueryOptions::trace; a null trace pointer disables every recording site.
class QueryTrace {
 public:
  QueryTrace();
  ~QueryTrace();
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  void AddStage(TraceStage s, int64_t nanos, int64_t tasks) {
    if constexpr (!kTelemetryEnabled) return;
    auto& cell = stages_[static_cast<size_t>(s)];
    cell.nanos.fetch_add(nanos, std::memory_order_relaxed);
    cell.tasks.fetch_add(tasks, std::memory_order_relaxed);
  }
  void AddRows(TraceStage s, int64_t rows) {
    if constexpr (!kTelemetryEnabled) return;
    stages_[static_cast<size_t>(s)].rows.fetch_add(rows,
                                                   std::memory_order_relaxed);
  }
  void AddCounter(TraceCounter c, int64_t n) {
    if constexpr (!kTelemetryEnabled) return;
    counters_[static_cast<size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  QueryTraceSummary Summary() const;

  /// Opt-in per-span capture for timeline export. Off (the default), span
  /// recording stays the pair of relaxed adds above; on, each finished
  /// TraceSpan also appends a CapturedSpan (mutex-guarded, bounded by
  /// `max_spans`; overflow increments a drop counter instead of growing).
  /// Capture never changes morsel geometry or results — it records what the
  /// executor already decided, like the rest of the trace.
  void EnableSpanCapture(size_t max_spans = 1 << 16);
  bool capturing_spans() const { return capture_ != nullptr; }
  void CaptureSpan(TraceStage stage,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end);
  /// Captured spans in deterministic (start, track, stage) order; clears the
  /// buffer. Empty when capture was never enabled.
  std::vector<CapturedSpan> TakeSpans();
  int64_t DroppedSpans() const;

 private:
  struct StageCell {
    std::atomic<int64_t> nanos{0};
    std::atomic<int64_t> tasks{0};
    std::atomic<int64_t> rows{0};
  };
  struct SpanCapture;  // defined in telemetry.cc

  std::array<StageCell, kNumTraceStages> stages_{};
  std::array<std::atomic<int64_t>, kNumTraceCounters> counters_{};
  std::unique_ptr<SpanCapture> capture_;
};

/// RAII span: attributes its lifetime to one stage of a trace. Used at morsel-task granularity inside the executor and for coarse
/// single-thread stages (optimize, plan step, seeker). Inert — not even a
/// clock read — when `trace` is null or telemetry is compiled out.
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, TraceStage stage) : trace_(trace), stage_(stage) {
    if constexpr (!kTelemetryEnabled) return;
    if (trace_ == nullptr) return;
    start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan() {
    if constexpr (!kTelemetryEnabled) return;
    if (trace_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    trace_->AddStage(
        stage_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count(),
        1);
    if (trace_->capturing_spans()) trace_->CaptureSpan(stage_, start_, end);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_{};
};

/// Measures scheduler dispatch latency for one parallel stage: created
/// before the ParallelFor, the first task to start records the elapsed time
/// as the trace's queue-wait span. One atomic_flag race decides the winner;
/// losers pay a single test_and_set. Inert when `trace` is null.
class QueueWaitProbe {
 public:
  explicit QueueWaitProbe(QueryTrace* trace) : trace_(trace) {
    if constexpr (!kTelemetryEnabled) return;
    if (trace_ == nullptr) return;
    created_ = std::chrono::steady_clock::now();
  }
  QueueWaitProbe(const QueueWaitProbe&) = delete;
  QueueWaitProbe& operator=(const QueueWaitProbe&) = delete;

  void NoteTaskStart() {
    if constexpr (!kTelemetryEnabled) return;
    if (trace_ == nullptr) return;
    if (recorded_.test_and_set(std::memory_order_relaxed)) return;
    const auto now = std::chrono::steady_clock::now();
    trace_->AddStage(
        TraceStage::kQueueWait,
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - created_)
            .count(),
        1);
  }

 private:
  QueryTrace* trace_;
  std::chrono::steady_clock::time_point created_{};
  std::atomic_flag recorded_ = ATOMIC_FLAG_INIT;
};

/// RAII latency observer for registry histograms: the serving surfaces
/// (sql::Engine, core::Blend) time themselves through this instead of raw
/// clock reads. No-op when `hist` is null or telemetry is compiled out.
class LatencyTimer {
 public:
  explicit LatencyTimer(Histogram* hist) : hist_(hist) {
    if constexpr (!kTelemetryEnabled) return;
    if (hist_ == nullptr) return;
    start_ = std::chrono::steady_clock::now();
  }
  ~LatencyTimer() {
    if constexpr (!kTelemetryEnabled) return;
    if (hist_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    hist_->Observe(std::chrono::duration<double>(end - start_).count());
  }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

/// Renders captured spans as a Chrome trace-event JSON document (the format
/// Perfetto and chrome://tracing load): one "X" complete event per span with
/// microsecond ts/dur, one timeline track (tid) per recording worker thread,
/// plus "M" thread_name metadata events. Deterministic for a fixed span list.
std::string RenderChromeTrace(const std::vector<CapturedSpan>& spans);

/// Structural validation of a Chrome trace-event JSON document, mirroring
/// ValidatePrometheusText: the document must be well-formed JSON with a
/// traceEvents array whose every event carries name/ph/pid/tid, "X" events
/// carry ts and dur, and the event count matches the renderer's contract.
/// Used by the --trace-out smoke checks so CI pins the export surface.
Status ValidateChromeTraceJson(const std::string& text);

}  // namespace blend
