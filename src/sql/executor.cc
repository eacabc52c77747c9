#include "sql/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/scheduler.h"
#include "common/str_util.h"
#include "sql/planner.h"

namespace blend::sql {

namespace {

// ---------------------------------------------------------------------------
// Morsel geometry. Constants, not functions of the pool size: the work
// decomposition (and therefore every merge order, including floating-point
// summation order) depends only on input sizes, which is what makes results
// byte-identical for every QueryOptions::scheduler setting.
// ---------------------------------------------------------------------------

/// Records per scan/probe morsel.
constexpr size_t kScanMorselRecords = 8192;
/// Rows per aggregation/projection chunk.
constexpr size_t kAggChunkRows = 16384;
/// Key partitions of the parallel aggregation merge.
constexpr size_t kMergePartitions = 16;

// ---------------------------------------------------------------------------
// Helpers shared by the pipeline stages.
// ---------------------------------------------------------------------------

/// Runs fn(t) for every t in [0, num_tasks) as a task group on the query's
/// scheduler; a null scheduler is the serial configuration and runs inline.
/// Each ParallelFor-era call site keeps its determinism contract unchanged:
/// tasks write only task-indexed slots, merges happen in fixed order.
///
/// This is also the cooperative control point of the scheduler's task loops:
/// the query's QueryControl is checked at every morsel boundary (task entry)
/// and once more after the group completes. Tasks skipped after a trip leave
/// their slots empty, which is safe precisely because the post-group Check
/// fails and the whole query returns a Status — partial buffers are never
/// merged into a result, so a query that completes is byte-identical to an
/// unconstrained run (the control never alters morsel geometry or merge
/// order).
/// Tracing rides the same boundaries: a TraceSpan brackets each task (so
/// stage wall time lands on the stage that caused it) and a QueueWaitProbe
/// records the dispatch latency of the group's first task. Both are inert for a null trace — no clock reads —
/// and neither touches morsel geometry, task order, or merge order.
template <typename Fn>
[[nodiscard]] Status RunTasks(Scheduler* sched, const QueryControl* control,
                              QueryTrace* trace, TraceStage stage,
                              size_t num_tasks, const Fn& fn) {
  const char* label = TraceStageName(stage);
  BLEND_RETURN_NOT_OK(CheckControl(control, label));
  QueueWaitProbe queue_wait(trace);
  if (sched == nullptr) {
    for (size_t t = 0; t < num_tasks; ++t) {
      if (ShouldStop(control)) break;
      queue_wait.NoteTaskStart();
      TraceSpan span(trace, stage);
      fn(t);
    }
  } else {
    sched->ParallelFor(num_tasks, [&](size_t t) {
      if (ShouldStop(control)) return;
      queue_wait.NoteTaskStart();
      TraceSpan span(trace, stage);
      fn(t);
    });
  }
  return CheckControl(control, label);
}

/// Interval (in serial-loop iterations) between control checks inside loops
/// that cannot be morselized (exact-bucket-order hash-table builds).
constexpr size_t kSerialCheckInterval = 64 * 1024;

Binder::RelColumns AllFields(const std::string& alias) {
  Binder::RelColumns rc;
  rc.alias = ToLower(alias);
  for (int i = 0; i < kNumFields; ++i) {
    Field f = static_cast<Field>(i);
    rc.cols.emplace(ToLower(FieldName(f)), f);
  }
  return rc;
}

/// Flat open-addressing uint64 -> uint32 index: one slot array, linear
/// probing from a Fibonacci hash, doubled at half load. Serves every packed
/// group-key lookup (the fused aggregate's per-posting probe, morsel merge
/// and dedup reduction, the generic pipeline's packed aggregation) and
/// TableId IN membership, where a node-based std::unordered_map costs an
/// allocation per key and a pointer chase per probe.
class FlatKeyIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit FlatKeyIndex(size_t expected = 0) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    Reset(cap);
  }

  /// The value mapped to `key`, or kAbsent.
  uint32_t Find(uint64_t key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].value == kAbsent || slots_[i].key == key) {
        return slots_[i].value;
      }
    }
  }

  /// {value mapped to `key`, inserted}: maps `key` to `value` first when it
  /// is new. `value` must not be kAbsent.
  std::pair<uint32_t, bool> FindOrInsert(uint64_t key, uint32_t value) {
    size_t i = Home(key);
    for (; slots_[i].value != kAbsent; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {slots_[i].value, false};
    }
    slots_[i] = {key, value};
    if (2 * ++size_ > slots_.size()) Grow();
    return {value, true};
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kAbsent;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Reset(size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
  }
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    Reset(old.size() * 2);
    for (const Slot& s : old) {
      if (s.value == kAbsent) continue;
      size_t i = Home(s.key);
      while (slots_[i].value != kAbsent) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

/// Three-way SqlValue comparison; NULL sorts first, NaN sorts last. Ordering
/// NaN deterministically (plain `<` answers false both ways) keeps Cmp a
/// strict weak ordering, which std::sort/std::partial_sort require.
int Cmp(const SqlValue& a, const SqlValue& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a.kind == SqlValue::Kind::kInt && b.kind == SqlValue::Kind::kInt) {
    return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
  }
  double x = a.AsDouble(), y = b.AsDouble();
  const bool nx = std::isnan(x), ny = std::isnan(y);
  if (nx || ny) {
    if (nx && ny) return 0;
    return nx ? 1 : -1;
  }
  return x < y ? -1 : (x > y ? 1 : 0);
}

struct AggState {
  int64_t count = 0;
  double dsum = 0;
  int64_t isum = 0;
  bool int_only = true;
  SqlValue minv = SqlValue::Null();
  SqlValue maxv = SqlValue::Null();
  std::unordered_set<int64_t> seen_ints;
  std::unordered_set<uint64_t> seen_doubles;
};

void UpdateAgg(const AggSpec& spec, AggState* st, const SqlValue& v) {
  switch (spec.kind) {
    case AggSpec::Kind::kCountStar:
      ++st->count;
      return;
    case AggSpec::Kind::kCount:
      if (v.is_null()) return;
      if (spec.distinct) {
        if (v.kind == SqlValue::Kind::kInt) {
          st->seen_ints.insert(v.i);
        } else {
          // Canonicalize -0.0 to 0.0 before hashing the bit pattern: `==`
          // treats the two as equal, so DISTINCT must count them once.
          double dv = v.d == 0.0 ? 0.0 : v.d;
          uint64_t bits;
          std::memcpy(&bits, &dv, sizeof(bits));
          st->seen_doubles.insert(bits);
        }
      } else {
        ++st->count;
      }
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      if (v.is_null()) return;
      ++st->count;
      if (v.kind == SqlValue::Kind::kInt && st->int_only) {
        st->isum += v.i;
      } else {
        st->int_only = false;
      }
      st->dsum += v.AsDouble();
      return;
    case AggSpec::Kind::kMin:
      if (v.is_null()) return;
      if (st->minv.is_null() || Cmp(v, st->minv) < 0) st->minv = v;
      return;
    case AggSpec::Kind::kMax:
      if (v.is_null()) return;
      if (st->maxv.is_null() || Cmp(v, st->maxv) > 0) st->maxv = v;
      return;
  }
}

/// Folds `from` (an earlier-finished chunk's state for the same group) into
/// `into`. Kind-agnostic: every field merges associatively, and callers fold
/// chunks in ascending chunk order so double sums reproduce the same rounding
/// for every thread count. Strict `<`/`>` on MIN/MAX keeps the earlier
/// chunk's value on Cmp-ties, matching the serial first-seen rule.
void MergeAggState(AggState* into, AggState* from) {
  into->count += from->count;
  into->isum += from->isum;
  into->dsum += from->dsum;
  into->int_only = into->int_only && from->int_only;
  if (into->seen_ints.empty()) {
    into->seen_ints = std::move(from->seen_ints);
  } else {
    into->seen_ints.insert(from->seen_ints.begin(), from->seen_ints.end());
  }
  if (into->seen_doubles.empty()) {
    into->seen_doubles = std::move(from->seen_doubles);
  } else {
    into->seen_doubles.insert(from->seen_doubles.begin(), from->seen_doubles.end());
  }
  if (!from->minv.is_null() &&
      (into->minv.is_null() || Cmp(from->minv, into->minv) < 0)) {
    into->minv = from->minv;
  }
  if (!from->maxv.is_null() &&
      (into->maxv.is_null() || Cmp(from->maxv, into->maxv) > 0)) {
    into->maxv = from->maxv;
  }
}

SqlValue FinalizeAgg(const AggSpec& spec, const AggState& st) {
  switch (spec.kind) {
    case AggSpec::Kind::kCountStar:
      return SqlValue::Int(st.count);
    case AggSpec::Kind::kCount:
      if (spec.distinct) {
        return SqlValue::Int(static_cast<int64_t>(st.seen_ints.size()) +
                             static_cast<int64_t>(st.seen_doubles.size()));
      }
      return SqlValue::Int(st.count);
    case AggSpec::Kind::kSum:
      if (st.count == 0) return SqlValue::Null();
      return st.int_only ? SqlValue::Int(st.isum) : SqlValue::Double(st.dsum);
    case AggSpec::Kind::kAvg:
      if (st.count == 0) return SqlValue::Null();
      return SqlValue::Double(st.dsum / static_cast<double>(st.count));
    case AggSpec::Kind::kMin:
      return st.minv;
    case AggSpec::Kind::kMax:
      return st.maxv;
  }
  return SqlValue::Null();
}

std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  if (item.expr->kind == ExprKind::kFuncCall) return item.expr->func;
  return "expr";
}

// ---------------------------------------------------------------------------
// Scan: one relation -> physical record positions, morsel-parallel.
// ---------------------------------------------------------------------------

/// One unit of scan work: either a slice of a posting/position list
/// (`from_list`, begin/end are ordinals within `list`) or a contiguous range
/// of physical positions (begin/end are the positions themselves).
struct ScanMorsel {
  std::span<const RecordPos> list;
  bool from_list = false;
  size_t begin = 0;
  size_t end = 0;
};

void AppendListMorsels(std::span<const RecordPos> list,
                       std::vector<ScanMorsel>* morsels) {
  for (size_t b = 0; b < list.size(); b += kScanMorselRecords) {
    morsels->push_back(
        {list, true, b, std::min(list.size(), b + kScanMorselRecords)});
  }
}

void AppendRangeMorsels(size_t begin, size_t end,
                        std::vector<ScanMorsel>* morsels) {
  for (size_t b = begin; b < end; b += kScanMorselRecords) {
    morsels->push_back({{}, false, b, std::min(end, b + kScanMorselRecords)});
  }
}

/// Resolves the IN-list of a CellValue access path to sorted distinct cell
/// ids. Ascending id order is the canonical scan order: it fixes the output
/// position sequence independently of IN-list order and of hash-set iteration
/// quirks, and the fused aggregate walks the same sequence. Each relation's
/// IN-list resolves here once per statement, at planning (ResolveAccess),
/// probing the dictionary once for the whole batch.
std::vector<CellId> ResolveCellIds(const Expr& cell_in, const Dictionary& dict) {
  std::vector<std::string> normalized;
  normalized.reserve(cell_in.in_strings.size());
  for (const auto& s : cell_in.in_strings) normalized.push_back(NormalizeCell(s));
  const std::vector<std::string_view> values(normalized.begin(), normalized.end());
  std::vector<CellId> ids(values.size());
  dict.FindBatch(values, ids.data());
  ids.erase(std::remove(ids.begin(), ids.end(), kInvalidCellId), ids.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Candidate positions of a relation without a CellValue access path, in
/// scan order: the TableId clustered-index ranges (ids ascending, so
/// positions ascend too), the Quadrant partial index, or every record.
struct PositionCandidates {
  const char* access_path = "full scan";
  bool from_list = false;
  std::span<const RecordPos> list;                // from_list
  std::vector<std::pair<size_t, size_t>> ranges;  // otherwise
  size_t count = 0;
};

template <typename Store>
PositionCandidates CandidatesOf(const ScanSpec& spec, const Store& store) {
  PositionCandidates c;
  if (spec.table_in != nullptr) {
    c.access_path = "TableId clustered index";
    std::vector<int64_t> ids(spec.table_in->in_ints.begin(),
                             spec.table_in->in_ints.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (int64_t id : ids) {
      if (id < 0 || static_cast<size_t>(id) >= store.NumTables()) continue;
      auto [b, e] = store.TableRange(static_cast<TableId>(id));
      c.ranges.emplace_back(b, e);
      c.count += e - b;
    }
  } else if (spec.need_quadrant) {
    c.access_path = "Quadrant partial index";
    c.from_list = true;
    c.list = store.QuadrantPositions();
    c.count = c.list.size();
  } else {
    c.ranges.emplace_back(0, store.NumRecords());
    c.count = store.NumRecords();
  }
  return c;
}

/// Scan morsels of `cands`: kScanMorselRecords-sized slices of the list or of
/// each range.
std::vector<ScanMorsel> CandidateMorsels(const PositionCandidates& cands) {
  std::vector<ScanMorsel> morsels;
  if (cands.from_list) {
    AppendListMorsels(cands.list, &morsels);
  } else {
    for (const auto& [b, e] : cands.ranges) AppendRangeMorsels(b, e, &morsels);
  }
  return morsels;
}

/// One relation's access path, resolved once per statement at planning and
/// shared by the key-seek planner, the scan, the seek, the fused aggregate
/// and Describe: the ScanSpec, its residual predicates bound against the
/// base relation, the CellValue IN-list's cells in canonical order
/// (posting-backed) or the candidate positions (otherwise), and the records
/// the path reads — the posting count, O(1) per cell from the CSR offsets,
/// or the candidate count.
struct RelAccess {
  ScanSpec spec;
  std::vector<BoundExprPtr> residual;
  std::vector<CellId> cells;
  PositionCandidates cands;
  size_t records = 0;

  bool posting_backed() const { return spec.cell_in != nullptr; }
};

template <typename Store>
Result<RelAccess> ResolveAccess(const AnalyzedRel& rel, const Store& store,
                                const Dictionary& dict) {
  RelAccess a;
  a.spec = ClassifyScan(rel.scan_pred);
  const Binder binder(&dict, {AllFields("")});
  for (const Expr* c : a.spec.residual) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    a.residual.push_back(std::move(b));
  }
  if (a.posting_backed()) {
    a.cells = ResolveCellIds(*a.spec.cell_in, dict);
    for (CellId id : a.cells) a.records += store.PostingCount(id);
  } else {
    a.cands = CandidatesOf(a.spec, store);
    a.records = a.cands.count;
  }
  return a;
}

/// Scan morsels of `a`'s access path, in scan order: each cell's posting
/// list (cells ascending), or the candidates.
template <typename Store>
std::vector<ScanMorsel> AccessMorsels(const RelAccess& a, const Store& store) {
  if (!a.posting_backed()) return CandidateMorsels(a.cands);
  std::vector<ScanMorsel> morsels;
  for (CellId id : a.cells) AppendListMorsels(store.PostingList(id), &morsels);
  return morsels;
}

/// Per-record filter of one relation's access beyond its access path: the
/// RowId bound, Quadrant IS NOT NULL, the bound residual predicates and, when
/// `filter_tables`, TableId IN membership. With `filter_cells` it also
/// answers CellValue IN membership (CellAllowed) for a key seek, which reads
/// whole record groups instead of postings. Evaluation is read-only and
/// thread-safe; `a` must outlive the filter.
template <typename Store>
class RecordFilter {
 public:
  RecordFilter(const RelAccess& a, const Store& store, bool filter_tables,
               bool filter_cells = false)
      : store_(&store),
        row_lt_(a.spec.row_lt),
        need_quadrant_(a.spec.need_quadrant),
        preds_(&a.residual) {
    if (filter_tables && a.spec.table_in != nullptr) {
      use_table_filter_ = true;
      for (int64_t t : a.spec.table_in->in_ints) {
        table_filter_.FindOrInsert(static_cast<uint64_t>(t), 0);
      }
    }
    if (filter_cells) {
      use_cell_filter_ = true;
      cell_filter_ = FlatKeyIndex(a.cells.size());
      for (CellId id : a.cells) cell_filter_.FindOrInsert(id, 0);
    }
  }

  /// TableId IN membership (true when the filter does not check tables).
  bool TableAllowed(int64_t table) const {
    return !use_table_filter_ ||
           table_filter_.Find(static_cast<uint64_t>(table)) != FlatKeyIndex::kAbsent;
  }

  /// CellValue IN membership (true when the filter was made without cells).
  bool CellAllowed(CellId cell) const {
    return !use_cell_filter_ || cell_filter_.Find(cell) != FlatKeyIndex::kAbsent;
  }

  /// True when Passes checks nothing, so every record passes.
  bool PassesAll() const {
    return !use_table_filter_ && row_lt_ < 0 && !need_quadrant_ && preds_->empty();
  }

  bool Passes(RecordPos p) const {
    if (!TableAllowed(store_->table(p))) return false;
    if (row_lt_ >= 0 && store_->row(p) >= row_lt_) return false;
    if (need_quadrant_ && store_->quadrant(p) == kQuadrantNull) return false;
    for (const auto& pred : *preds_) {
      SqlValue v = EvalExpr(*pred, [&](const BoundExpr& b) {
        return FieldValue(*store_, b.field, p);
      });
      if (!v.IsTruthy()) return false;
    }
    return true;
  }

 private:
  const Store* store_;
  int64_t row_lt_;
  bool need_quadrant_;
  const std::vector<BoundExprPtr>* preds_;
  bool use_table_filter_ = false;
  FlatKeyIndex table_filter_;
  bool use_cell_filter_ = false;
  FlatKeyIndex cell_filter_;
};

/// Calls fn(p) for every position of `mo`, in order.
template <typename Fn>
void ForEachPosition(const ScanMorsel& mo, const Fn& fn) {
  if (!mo.from_list) {
    for (size_t i = mo.begin; i < mo.end; ++i) fn(static_cast<RecordPos>(i));
    return;
  }
  for (size_t i = mo.begin; i < mo.end; ++i) fn(mo.list[i]);
}

/// Scans one relation through its access path: the in-database hash index on
/// CellValue, the clustered index on TableId, the partial index on Quadrant
/// (the correlation seeker's numeric-cell scan), or a full scan. A TableId
/// IN-list that is not the access path acts as a filter.
template <typename Store>
Result<std::vector<RecordPos>> ScanRel(const RelAccess& a, const Store& store,
                                       Scheduler* sched,
                                       const QueryControl* control,
                                       QueryTrace* trace) {
  const RecordFilter<Store> filter(a, store, /*filter_tables=*/a.posting_backed());
  const std::vector<ScanMorsel> morsels = AccessMorsels(a, store);

  // Filter each morsel into its own buffer, then concatenate in morsel order:
  // the output position sequence is identical to a serial scan no matter
  // which worker ran which morsel. Posting-list morsels can be numerous but
  // tiny (one per short list), so the fan-out decision keys on the total
  // record count rather than the morsel count — small scans stay inline
  // instead of paying the pool's enqueue/wakeup cost.
  Scheduler* scan_sched = a.records > kScanMorselRecords ? sched : nullptr;
  std::vector<std::vector<RecordPos>> parts(morsels.size());
  BLEND_RETURN_NOT_OK(RunTasks(scan_sched, control, trace, TraceStage::kScan,
                               morsels.size(), [&](size_t m) {
    std::vector<RecordPos>& out = parts[m];
    ForEachPosition(morsels[m], [&](RecordPos p) {
      if (filter.Passes(p)) out.push_back(p);
    });
  }));

  std::vector<RecordPos> out = ConcatParts(std::move(parts));
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kScan, static_cast<int64_t>(out.size()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Join.
// ---------------------------------------------------------------------------

/// Keys of one join step: fields on the already-joined prefix (qualified by
/// side) matched against fields of the newly joined relation.
struct StepKeys {
  std::vector<std::pair<uint8_t, Field>> left;  // (side < step, field)
  std::vector<Field> right;                     // field on relation `step`
  std::vector<BoundExprPtr> residual;           // non-equi ON conditions
};

Result<StepKeys> ExtractStepKeys(const Expr* join_on, const Binder& binder,
                                 uint8_t step_side) {
  StepKeys keys;
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(join_on, &conjuncts);
  for (const Expr* c : conjuncts) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*c));
    if (b->kind == BKind::kBinary && b->op == BinOp::kEq &&
        b->lhs->kind == BKind::kField && b->rhs->kind == BKind::kField &&
        (b->lhs->side == step_side) != (b->rhs->side == step_side)) {
      const BoundExpr& l = b->lhs->side == step_side ? *b->rhs : *b->lhs;
      const BoundExpr& r = b->lhs->side == step_side ? *b->lhs : *b->rhs;
      keys.left.emplace_back(l.side, l.field);
      keys.right.push_back(r.field);
      continue;
    }
    keys.residual.push_back(std::move(b));
  }
  if (keys.left.empty()) {
    return Status::PlanError("join requires at least one equality key");
  }
  return keys;
}

/// One binary hash-join step: extends the joined prefix `rows` with matches
/// from `scan` (relation index `step_side`). `build_on_scan` picks the build
/// side; callers pass the legacy build-on-the-smaller-input rule
/// `|full filtered scan| <= |rows|`, which fixes the emission order.
/// Parallelism: build-side hashes are precomputed in parallel chunks (the
/// field reads dominate the build), insertion stays serial to preserve exact
/// bucket order, and the probe side is morselized with per-morsel output
/// buffers concatenated in morsel order — emit order is byte-identical to a
/// serial probe loop.
template <typename Store>
Result<std::vector<RowCtx>> HashJoinStep(const Store& store,
                                         const std::vector<RowCtx>& rows,
                                         const std::vector<RecordPos>& scan,
                                         const StepKeys& keys, uint8_t step_side,
                                         bool build_on_scan, Scheduler* sched,
                                         const QueryControl* control,
                                         QueryTrace* trace) {
  auto left_hash = [&](const RowCtx& ctx, bool* has_null) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    *has_null = false;
    for (const auto& [side, f] : keys.left) {
      SqlValue v = FieldValue(store, f, ctx.pos[side]);
      if (v.is_null()) {
        *has_null = true;
        return h;
      }
      h = HashCombine(h, v.Hash());
    }
    return h;
  };
  auto right_hash = [&](RecordPos p, bool* has_null) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    *has_null = false;
    for (Field f : keys.right) {
      SqlValue v = FieldValue(store, f, p);
      if (v.is_null()) {
        *has_null = true;
        return h;
      }
      h = HashCombine(h, v.Hash());
    }
    return h;
  };
  auto keys_equal = [&](const RowCtx& ctx, RecordPos p) {
    for (size_t i = 0; i < keys.left.size(); ++i) {
      SqlValue a = FieldValue(store, keys.left[i].second, ctx.pos[keys.left[i].first]);
      SqlValue b = FieldValue(store, keys.right[i], p);
      if (a.is_null() || b.is_null() || !(a == b)) return false;
    }
    return true;
  };
  auto emit = [&](const RowCtx& ctx, RecordPos p, std::vector<RowCtx>* out) {
    RowCtx extended = ctx;
    extended.pos[step_side] = p;
    for (const auto& pred : keys.residual) {
      SqlValue v = EvalExpr(*pred, [&](const BoundExpr& b) {
        return FieldValue(store, b.field, extended.pos[b.side]);
      });
      if (!v.IsTruthy()) return;
    }
    out->push_back(extended);
  };

  const size_t num_chunks_of = kScanMorselRecords;  // probe morsel rows

  if (build_on_scan) {
    // Build on the new relation, probe with the prefix.
    std::vector<uint64_t> hashes(scan.size());
    std::vector<uint8_t> nulls(scan.size());
    const size_t build_chunks =
        (scan.size() + kScanMorselRecords - 1) / kScanMorselRecords;
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinBuild,
                                 build_chunks, [&](size_t c) {
      const size_t b = c * kScanMorselRecords;
      const size_t e = std::min(scan.size(), b + kScanMorselRecords);
      for (size_t i = b; i < e; ++i) {
        bool has_null;
        hashes[i] = right_hash(scan[i], &has_null);
        nulls[i] = has_null ? 1 : 0;
      }
    }));
    std::unordered_map<uint64_t, std::vector<RecordPos>> ht;
    ht.reserve(scan.size() * 2);
    for (size_t i = 0; i < scan.size(); ++i) {
      if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
        BLEND_RETURN_NOT_OK(CheckControl(control, "join build"));
      }
      if (!nulls[i]) ht[hashes[i]].push_back(scan[i]);
    }
    const size_t probe_chunks = (rows.size() + num_chunks_of - 1) / num_chunks_of;
    std::vector<std::vector<RowCtx>> parts(probe_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinProbe,
                                 probe_chunks, [&](size_t c) {
      const size_t b = c * num_chunks_of;
      const size_t e = std::min(rows.size(), b + num_chunks_of);
      for (size_t i = b; i < e; ++i) {
        bool has_null;
        uint64_t h = left_hash(rows[i], &has_null);
        if (has_null) continue;
        auto it = ht.find(h);
        if (it == ht.end()) continue;
        for (RecordPos p : it->second) {
          if (keys_equal(rows[i], p)) emit(rows[i], p, &parts[c]);
        }
      }
    }));
    std::vector<RowCtx> joined = ConcatParts(std::move(parts));
    if (trace != nullptr) {
      trace->AddRows(TraceStage::kJoinProbe, static_cast<int64_t>(joined.size()));
    }
    return joined;
  }

  // Build on the prefix, probe with the new relation's scan.
  std::vector<uint64_t> hashes(rows.size());
  std::vector<uint8_t> nulls(rows.size());
  const size_t build_chunks =
      (rows.size() + kScanMorselRecords - 1) / kScanMorselRecords;
  BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinBuild,
                               build_chunks, [&](size_t c) {
    const size_t b = c * kScanMorselRecords;
    const size_t e = std::min(rows.size(), b + kScanMorselRecords);
    for (size_t i = b; i < e; ++i) {
      bool has_null;
      hashes[i] = left_hash(rows[i], &has_null);
      nulls[i] = has_null ? 1 : 0;
    }
  }));
  std::unordered_map<uint64_t, std::vector<uint32_t>> ht;
  ht.reserve(rows.size() * 2);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
      BLEND_RETURN_NOT_OK(CheckControl(control, "join build"));
    }
    if (!nulls[i]) ht[hashes[i]].push_back(i);
  }
  const size_t probe_chunks = (scan.size() + num_chunks_of - 1) / num_chunks_of;
  std::vector<std::vector<RowCtx>> parts(probe_chunks);
  BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kJoinProbe,
                               probe_chunks, [&](size_t c) {
    const size_t b = c * num_chunks_of;
    const size_t e = std::min(scan.size(), b + num_chunks_of);
    for (size_t i = b; i < e; ++i) {
      const RecordPos p = scan[i];
      bool has_null;
      uint64_t h = right_hash(p, &has_null);
      if (has_null) continue;
      auto it = ht.find(h);
      if (it == ht.end()) continue;
      for (uint32_t r : it->second) {
        if (keys_equal(rows[r], p)) emit(rows[r], p, &parts[c]);
      }
    }
  }));
  std::vector<RowCtx> joined = ConcatParts(std::move(parts));
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kJoinProbe, static_cast<int64_t>(joined.size()));
  }
  return joined;
}

// ---------------------------------------------------------------------------
// (TableId, RowId) join keys. Records are emitted table-major, row-major, so
// a key's records form one contiguous group and keys ascend with physical
// position: the key-seek join step finds a key's group by binary search.
// ---------------------------------------------------------------------------

/// (TableId, RowId) packed as one 64-bit key, non-decreasing in physical
/// position.
inline uint64_t PackJoinKey(TableId t, int32_t r) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) |
         static_cast<uint32_t>(r);
}

template <typename Store>
uint64_t JoinKeyOf(const Store& store, RecordPos p) {
  return PackJoinKey(store.table(p), store.row(p));
}

/// First physical position whose key is >= `key`: rows ascend within the
/// key's table range, every earlier table's keys are smaller, and a key
/// beyond the table's last row resolves to the next table's first position.
template <typename Store>
RecordPos JoinKeyLowerBound(const Store& store, uint64_t key) {
  const auto t = static_cast<TableId>(key >> 32);
  const auto r = static_cast<int32_t>(key & 0xFFFFFFFFu);
  auto [lo, hi] = store.TableRange(t);
  while (lo < hi) {
    const RecordPos mid = lo + (hi - lo) / 2;
    if (store.row(mid) < r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First position after key `key`'s record group; `from` is any position
/// inside the group.
template <typename Store>
RecordPos JoinKeyGroupEnd(const Store& store, uint64_t key, RecordPos from) {
  const auto t = static_cast<TableId>(key >> 32);
  const auto r = static_cast<int32_t>(key & 0xFFFFFFFFu);
  RecordPos lo = from, hi = store.TableRange(t).second;
  while (lo < hi) {
    const RecordPos mid = lo + (hi - lo) / 2;
    if (store.row(mid) <= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Output assembly (projection, aggregation, ordering).
// ---------------------------------------------------------------------------

/// Sorts rows (pairs of output values + sort key values), applies the
/// engine-side dedup-top-k spec (QueryOptions::dedup_column / dedup_limit),
/// then LIMIT. Shared by the generic projection and aggregation, so dedup
/// semantics cannot diverge between them; the fused aggregate's PackedTopK
/// reproduces it over packed groups.
void SortAndLimit(std::vector<std::vector<SqlValue>>* rows,
                  std::vector<std::vector<SqlValue>>* sort_vals,
                  const std::vector<bool>& desc, int64_t limit,
                  const QueryOptions& options) {
  const bool dedup =
      options.dedup_column >= 0 && !rows->empty() &&
      static_cast<size_t>(options.dedup_column) < (*rows)[0].size();
  if (!sort_vals->empty() && !desc.empty()) {
    std::vector<size_t> idx(rows->size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    auto cmp = [&](size_t a, size_t b) {
      const auto& ka = (*sort_vals)[a];
      const auto& kb = (*sort_vals)[b];
      for (size_t i = 0; i < ka.size(); ++i) {
        int c = Cmp(ka[i], kb[i]);
        if (desc[i]) c = -c;
        if (c != 0) return c < 0;
      }
      // Deterministic tie-break: compare output values, then original index.
      const auto& ra = (*rows)[a];
      const auto& rb = (*rows)[b];
      for (size_t i = 0; i < ra.size(); ++i) {
        int c = Cmp(ra[i], rb[i]);
        if (c != 0) return c < 0;
      }
      return a < b;
    };
    if (!dedup && limit >= 0 && static_cast<size_t>(limit) < idx.size()) {
      std::partial_sort(idx.begin(), idx.begin() + limit, idx.end(), cmp);
      idx.resize(static_cast<size_t>(limit));
    } else {
      // Dedup needs the full order: the k-th distinct value can sit
      // arbitrarily deep in the sorted stream.
      std::sort(idx.begin(), idx.end(), cmp);
    }
    std::vector<std::vector<SqlValue>> out;
    out.reserve(idx.size());
    for (size_t i : idx) out.push_back(std::move((*rows)[i]));
    *rows = std::move(out);
  }
  if (dedup) {
    // Keep, in order, the first row per distinct dedup-column value; stop
    // once dedup_limit distinct values have been kept (< 0 = unbounded).
    const auto col = static_cast<size_t>(options.dedup_column);
    std::vector<SqlValue> distinct;
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    std::vector<std::vector<SqlValue>> kept;
    for (auto& row : *rows) {
      if (options.dedup_limit >= 0 &&
          static_cast<int64_t>(distinct.size()) >= options.dedup_limit) {
        break;
      }
      const SqlValue& v = row[col];
      auto& bucket = buckets[v.Hash()];
      bool seen = false;
      for (uint32_t i : bucket) {
        if (distinct[i] == v) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      bucket.push_back(static_cast<uint32_t>(distinct.size()));
      distinct.push_back(v);
      kept.push_back(std::move(row));
    }
    *rows = std::move(kept);
  }
  if (limit >= 0 && static_cast<size_t>(limit) < rows->size()) {
    rows->resize(static_cast<size_t>(limit));
  }
}

/// Bound ORDER BY: per key, the select-list column a bare name refers to
/// (ref >= 0) or the bound expression (null where ref >= 0), and the
/// direction.
struct SortSpec {
  std::vector<int> ref;
  std::vector<BoundExprPtr> exprs;
  std::vector<bool> desc;
};

/// The sort key values of one output row `vals`.
template <typename LeafFn>
std::vector<SqlValue> SortKeys(const SortSpec& sort, const std::vector<SqlValue>& vals,
                               const LeafFn& leaf) {
  std::vector<SqlValue> sk;
  for (size_t i = 0; i < sort.exprs.size(); ++i) {
    sk.push_back(sort.ref[i] >= 0 ? vals[static_cast<size_t>(sort.ref[i])]
                                  : EvalExpr(*sort.exprs[i], leaf));
  }
  return sk;
}

/// One finalized group ready for projection: group-by key values plus the
/// already-finalized aggregate values (kAggRef / kKeyRef leaves).
struct GroupOut {
  std::vector<SqlValue> keys;
  std::vector<SqlValue> agg_vals;
};

/// Projects finalized groups through the select items, evaluates sort keys,
/// sorts and applies LIMIT.
void EmitGroups(const std::vector<GroupOut>& groups,
                const std::vector<BoundExprPtr>& items, const SortSpec& sort,
                const SelectStmt& stmt, const QueryOptions& options,
                QueryResult* result) {
  std::vector<std::vector<SqlValue>> out_rows;
  std::vector<std::vector<SqlValue>> sort_vals;
  out_rows.reserve(groups.size());
  for (const GroupOut& g : groups) {
    auto leaf = [&](const BoundExpr& b) -> SqlValue {
      if (b.kind == BKind::kAggRef) return g.agg_vals[b.ref];
      if (b.kind == BKind::kKeyRef) return g.keys[b.ref];
      return SqlValue::Null();  // unreachable: fields were rejected at bind
    };
    std::vector<SqlValue> vals;
    vals.reserve(items.size());
    for (const auto& it : items) vals.push_back(EvalExpr(*it, leaf));
    if (!stmt.order_by.empty()) sort_vals.push_back(SortKeys(sort, vals, leaf));
    out_rows.push_back(std::move(vals));
  }
  SortAndLimit(&out_rows, &sort_vals, sort.desc, stmt.limit, options);
  result->rows = std::move(out_rows);
}

// ---------------------------------------------------------------------------
// Fused scan->aggregate operator for the SC/KW seeker shape:
//   SELECT <TableId | ColumnId | COUNT(DISTINCT CellValue)>, ...
//   FROM AllTables WHERE CellValue IN (...) [AND ...]
//   GROUP BY TableId[, ColumnId] [ORDER BY <key | aggregate> ...] [LIMIT n]
// Walks each cell id's posting list and bumps packed-key counters directly:
// no RecordPos materialization, no RowCtx construction, no per-row SqlValue
// boxing. COUNT(DISTINCT CellValue) degenerates to "number of posting lists
// that touch the group", so each list contributes at most 1 per group. Every
// output value and sort key is an int64 of a packed group, so the ORDER BY /
// dedup-top-k / LIMIT tail ranks packed groups and boxes only the rows it
// returns.
// ---------------------------------------------------------------------------

/// One aggregated group of the fused operator.
struct FusedGroup {
  uint64_t key;      // TableId | ColumnId << 32
  size_t first;      // global ordinal of the group's first passing record
  int64_t count;     // COUNT(DISTINCT CellValue)
  CellId last_cell;  // per-posting-list dedup marker
};

/// The int64 columns of a FusedGroup a select item or sort key can name.
enum class PackedCol : uint8_t { kTable, kColumn, kCount };

int64_t PackedValue(const FusedGroup& g, PackedCol c) {
  switch (c) {
    case PackedCol::kTable: return static_cast<uint32_t>(g.key);
    case PackedCol::kColumn: return static_cast<int64_t>(g.key >> 32);
    case PackedCol::kCount: return g.count;
  }
  return 0;
}

const char* PackedColName(PackedCol c) {
  switch (c) {
    case PackedCol::kTable: return "TableId";
    case PackedCol::kColumn: return "ColumnId";
    case PackedCol::kCount: return "COUNT(DISTINCT CellValue)";
  }
  return "?";
}

/// The packed column of a bare group-key or aggregate ref (every aggregate
/// of a fused statement is the one COUNT(DISTINCT CellValue)); nullopt for
/// any other expression, which sends the statement to the generic pipeline.
std::optional<PackedCol> PackedColOf(const BoundExpr& b) {
  if (b.kind == BKind::kAggRef) return PackedCol::kCount;
  if (b.kind == BKind::kKeyRef) {
    return b.ref == 0 ? PackedCol::kTable : PackedCol::kColumn;
  }
  return std::nullopt;
}

/// The fused operator's one tail: ORDER BY, dedup-top-k and LIMIT over
/// packed groups. It ranks with SortAndLimit's exact comparator — sort keys,
/// then the output values ascending, then first appearance (no ORDER BY:
/// first appearance alone) — which is a strict total order because first
/// appearances are distinct. Hence under dedup the row SortAndLimit keeps
/// per dedup value (its first after a full sort) is that value's minimum,
/// and the kept rows come in the order of those minima: reducing to the
/// minima, then partially sorting to min(dedup_limit, LIMIT) selects exactly
/// SortAndLimit's rows.
struct PackedTopK {
  struct SortKey {
    PackedCol col;
    bool desc;
    std::string name;
  };
  std::vector<PackedCol> out;  // select list
  std::vector<SortKey> sort;   // ORDER BY
  int dedup = -1;              // select-list index of the dedup column
  int64_t dedup_limit = -1;
  int64_t limit = -1;

  bool Less(const FusedGroup& a, const FusedGroup& b) const {
    if (!sort.empty()) {
      for (const SortKey& k : sort) {
        const int64_t x = PackedValue(a, k.col), y = PackedValue(b, k.col);
        if (x != y) return k.desc ? x > y : x < y;
      }
      for (PackedCol c : out) {
        const int64_t x = PackedValue(a, c), y = PackedValue(b, c);
        if (x != y) return x < y;
      }
    }
    return a.first < b.first;
  }

  /// Indices into `groups` of the output rows, in output order.
  std::vector<uint32_t> Select(const std::vector<FusedGroup>& groups) const {
    std::vector<uint32_t> idx;
    size_t k = groups.size();
    if (dedup >= 0) {
      const PackedCol col = out[static_cast<size_t>(dedup)];
      FlatKeyIndex slot_of(groups.size());
      for (uint32_t i = 0; i < groups.size(); ++i) {
        const auto v = static_cast<uint64_t>(PackedValue(groups[i], col));
        auto [slot, inserted] =
            slot_of.FindOrInsert(v, static_cast<uint32_t>(idx.size()));
        if (inserted) {
          idx.push_back(i);
        } else if (Less(groups[i], groups[idx[slot]])) {
          idx[slot] = i;
        }
      }
      k = idx.size();
      if (dedup_limit >= 0) k = std::min(k, static_cast<size_t>(dedup_limit));
    } else {
      idx.resize(groups.size());
      for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    }
    if (limit >= 0) k = std::min(k, static_cast<size_t>(limit));
    auto less = [&](uint32_t a, uint32_t b) { return Less(groups[a], groups[b]); };
    const auto kth = idx.begin() + static_cast<ptrdiff_t>(k);
    std::partial_sort(idx.begin(), kth, idx.end(), less);
    idx.resize(k);
    return idx;
  }

  /// The PackedTopK node's detail, e.g. "score DESC; dedup TableId k=10".
  std::string Describe(const std::vector<std::string>& columns) const {
    std::string d = sort.empty() ? "first-appearance order" : "";
    for (size_t i = 0; i < sort.size(); ++i) {
      d += (i == 0 ? "" : ", ") + sort[i].name + (sort[i].desc ? " DESC" : "");
    }
    if (dedup >= 0) {
      d += "; dedup " + columns[static_cast<size_t>(dedup)] + " k=" +
           (dedup_limit < 0 ? std::string("all") : std::to_string(dedup_limit));
    }
    if (limit >= 0) d += "; limit " + std::to_string(limit);
    return d;
  }
};

/// The fused aggregate's plan over its relation's resolved cells, in
/// canonical scan order (cells ascending, postings in list order): base[i]
/// is the global ordinal of cells[i]'s first posting, and each morsel packs
/// consecutive whole cells up to kScanMorselRecords records. A posting list
/// is never split, which the per-list dedup relies on; packing keeps the
/// task count proportional to records, not IN-list size. The `base`
/// ordinals order group discovery exactly like the generic pipeline's
/// first-appearance order, which keeps the two paths byte-identical.
struct FusedAggPlan {
  struct Range {
    size_t begin, end;
  };
  bool with_column = false;  // GROUP BY TableId, ColumnId
  PackedTopK tail;
  std::vector<size_t> base;
  std::vector<Range> morsels;
};

// ---------------------------------------------------------------------------
// Key-seek join step. A join step whose ON equates the new relation's
// (TableId, RowId) with one earlier relation's can skip the relation's
// up-front scan: it seeks each distinct prefix key's contiguous record group
// instead (records are table-major, row-major) and filters it with the
// relation's own ScanSpec — for a posting-backed relation, also with
// membership in its resolved CellValue IN cells. The records found are the
// subsequence of the full filtered scan whose keys can match: a scanned
// record outside it carries a key no prefix row has, so it never passes
// HashJoinStep's key check. Returned in the scan's order (positions
// ascending; for a posting-backed relation cells ascending, then positions)
// and fed to HashJoinStep under the legacy build-side rule, decided on the
// full scan's size, the subsequence reproduces the materialized join's
// emission order byte for byte.
//
// Whether to seek is a plan-time rule over O(1) store and CSR sizes, so
// EXPLAIN and execution decide alike. A relation without a CellValue access
// path (the correlation seeker's numeric-cell side) is always sought. A
// posting-backed relation is sought only when the seek reads fewer records
// than its posting scan: records-per-row × the prefix's key bound < its
// posting count. The key bound is the smallest record count among the
// earlier relations the chain equates on (TableId, RowId) with the key side,
// since every prefix row carries one key for all of them.
// ---------------------------------------------------------------------------

/// Distinct prefix keys per key-seek task. A constant, so the task
/// decomposition depends only on the key count, never on the pool.
constexpr size_t kKeySeekChunkKeys = 1024;

/// The earlier relation whose (TableId, RowId) the step's equality keys
/// equate with the new relation's, or nullopt when the step cannot seek.
/// Further equality keys and residual ON terms stay with HashJoinStep.
std::optional<uint8_t> KeySeekSide(const StepKeys& keys) {
  auto equates = [&](uint8_t side, Field f) {
    for (size_t i = 0; i < keys.left.size(); ++i) {
      if (keys.left[i].first == side && keys.left[i].second == f &&
          keys.right[i] == f) {
        return true;
      }
    }
    return false;
  };
  for (const auto& [side, field] : keys.left) {
    if (equates(side, Field::kTable) && equates(side, Field::kRow)) return side;
  }
  return std::nullopt;
}

/// Key-seek decision of one join step: the prefix side carrying the keys,
/// the two record counts the rule compared, and whether it seeks.
struct KeySeekPlan {
  uint8_t key_side = 0;
  uint64_t seek_records = 0;  // records-per-row × the prefix's key bound
  uint64_t scan_records = 0;  // records of the relation's access path
  bool chosen = false;
};

/// Entry r is engaged when relation r's join step (`steps[r - 1]`) equates
/// (TableId, RowId) with an earlier relation; `chosen` is the rule's
/// decision. Everything is disengaged under `enable_key_seek = false`, the
/// planner override that forces the materialized join.
template <typename Store>
std::vector<std::optional<KeySeekPlan>> PlanKeySeeks(
    const std::vector<StepKeys>& steps, const std::vector<RelAccess>& access,
    const Store& store, const QueryOptions& options) {
  const size_t nrels = access.size();
  std::vector<std::optional<KeySeekPlan>> plans(nrels);
  if (!options.enable_key_seek) return plans;
  // key_class[r]: the first relation of r's (TableId, RowId) equivalence
  // class; class_bound[c]: the smallest record count in class c so far.
  std::vector<size_t> key_class(nrels);
  std::vector<uint64_t> class_bound(nrels);
  for (size_t r = 0; r < nrels; ++r) {
    key_class[r] = r;
    class_bound[r] = access[r].records;
  }
  for (size_t j = 0; j < steps.size(); ++j) {
    const auto side = static_cast<uint8_t>(j + 1);
    const std::optional<uint8_t> key_side = KeySeekSide(steps[j]);
    if (!key_side.has_value()) continue;
    const size_t c = key_class[*key_side];
    KeySeekPlan p;
    p.key_side = *key_side;
    p.seek_records = uint64_t{store.RecordsPerRow()} * class_bound[c];
    p.scan_records = access[side].records;
    p.chosen = !access[side].posting_backed() || p.seek_records < p.scan_records;
    plans[side] = p;
    key_class[side] = c;
    class_bound[c] = std::min<uint64_t>(class_bound[c], access[side].records);
  }
  return plans;
}

/// Whether more than `limit` records of `morsels` (`records` in all) pass
/// `filter`. Counts in the scan's fixed morsels; a morsel starting after
/// `limit` + 1 records have passed is skipped, which cannot change the answer.
template <typename Store>
Result<bool> MorePassThan(const std::vector<ScanMorsel>& morsels, size_t records,
                          const RecordFilter<Store>& filter, size_t limit,
                          Scheduler* sched, const QueryControl* control,
                          QueryTrace* trace) {
  std::atomic<size_t> passed{0};
  BLEND_RETURN_NOT_OK(RunTasks(records > kScanMorselRecords ? sched : nullptr,
                               control, trace, TraceStage::kKeySeek,
                               morsels.size(), [&](size_t m) {
    if (passed.load(std::memory_order_relaxed) > limit) return;
    size_t n = 0;
    ForEachPosition(morsels[m], [&](RecordPos p) { n += filter.Passes(p); });
    passed.fetch_add(n, std::memory_order_relaxed);
  }));
  return passed.load() > limit;
}

/// A join step's new-relation input: its positions and HashJoinStep's build
/// side for them.
struct StepInput {
  std::vector<RecordPos> positions;
  bool build_on_scan = false;
};

/// Seeks relation access `a`'s input to a join step whose prefix side
/// `key_side` carries the (TableId, RowId) keys: each distinct key's record
/// group, filtered by the relation's ScanSpec and cells. Keys outside a
/// TableId IN-list are skipped without a search.
template <typename Store>
Result<StepInput> KeySeek(const RelAccess& a, uint8_t key_side,
                          const std::vector<RowCtx>& rows, const Store& store,
                          Scheduler* sched, const QueryControl* control,
                          QueryTrace* trace) {
  const char* label = TraceStageName(TraceStage::kKeySeek);
  if (trace != nullptr) trace->AddCounter(TraceCounter::kKeySeekSteps, 1);

  // Distinct prefix keys, ascending: ascending keys are ascending positions.
  std::vector<uint64_t> keys;
  {
    TraceSpan span(trace, TraceStage::kKeySeek);
    keys.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      if ((i % kSerialCheckInterval) == kSerialCheckInterval - 1) {
        BLEND_RETURN_NOT_OK(CheckControl(control, label));
      }
      keys.push_back(JoinKeyOf(store, rows[i].pos[key_side]));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  // The TableId IN-list, when present, was the access path of a relation
  // without cells; here it filters.
  const RecordFilter<Store> filter(a, store, /*filter_tables=*/true,
                                  /*filter_cells=*/a.posting_backed());
  const size_t num_tasks = (keys.size() + kKeySeekChunkKeys - 1) / kKeySeekChunkKeys;
  std::vector<std::vector<RecordPos>> parts(num_tasks);
  BLEND_RETURN_NOT_OK(RunTasks(num_tasks > 1 ? sched : nullptr, control, trace,
                               TraceStage::kKeySeek, num_tasks, [&](size_t t) {
    const size_t b = t * kKeySeekChunkKeys;
    const size_t e = std::min(keys.size(), b + kKeySeekChunkKeys);
    for (size_t i = b; i < e; ++i) {
      if (!filter.TableAllowed(static_cast<int64_t>(keys[i] >> 32))) continue;
      const RecordPos lo = JoinKeyLowerBound(store, keys[i]);
      const RecordPos hi = JoinKeyGroupEnd(store, keys[i], lo);
      for (RecordPos p = lo; p < hi; ++p) {
        if (filter.CellAllowed(store.cell(p)) && filter.Passes(p)) {
          parts[t].push_back(p);
        }
      }
    }
  }));
  StepInput in;
  in.positions = ConcatParts(std::move(parts));
  if (a.cells.size() > 1) {
    // A posting scan walks cells ascending, then positions: one row's
    // records under two query cells come back in cell order, not position
    // order.
    TraceSpan span(trace, TraceStage::kKeySeek);
    std::vector<uint64_t> order(in.positions.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = (uint64_t{store.cell(in.positions[i])} << 32) | in.positions[i];
    }
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < order.size(); ++i) {
      in.positions[i] = static_cast<RecordPos>(order[i]);
    }
  }
  if (trace != nullptr) {
    trace->AddRows(TraceStage::kKeySeek, static_cast<int64_t>(in.positions.size()));
  }

  // Legacy build-side rule on the full filtered scan's size F: build on the
  // new relation iff F <= |prefix|. The seek found R <= F records, so R >
  // |prefix| settles it; an empty R joins nothing either way. F is at most
  // the access path's record count, and exactly that when the filter passes
  // every record. Otherwise count F, stopping past |prefix|.
  if (in.positions.size() > rows.size()) {
    in.build_on_scan = false;
  } else if (in.positions.empty() || a.records <= rows.size()) {
    in.build_on_scan = true;
  } else if (filter.PassesAll()) {
    in.build_on_scan = false;
  } else {
    BLEND_ASSIGN_OR_RETURN(const bool more,
                           MorePassThan(AccessMorsels(a, store), a.records, filter,
                                        rows.size(), sched, control, trace));
    in.build_on_scan = !more;
  }
  return in;
}

// ---------------------------------------------------------------------------
// Plan rendering. Describe reads the planned statement only — scan metadata,
// the key-seek decisions and chunk-size constants — and never scans, joins,
// or charges budgets.
// ---------------------------------------------------------------------------

/// Filter suffix of a scan node's detail: the RowId bound and residual count.
std::string FilterDetail(const ScanSpec& spec) {
  std::string out;
  if (spec.row_lt >= 0) out += "; RowId < " + std::to_string(spec.row_lt);
  if (!spec.residual.empty()) {
    out += "; " + std::to_string(spec.residual.size()) + " residual preds";
  }
  return out;
}

/// "seek N < scan M records" (sought) or "seek N >= scan M records"
/// (scanned): the comparison the key-seek rule made for a posting-backed
/// relation.
std::string SeekRuleDetail(const KeySeekPlan& p) {
  return "seek " + std::to_string(p.seek_records) + (p.chosen ? " < " : " >= ") +
         "scan " + std::to_string(p.scan_records) + " records";
}

/// Plan node for one generic-pipeline relation scan, mirroring ScanRel's
/// access-path choice and exact morsel geometry without touching postings.
template <typename Store>
PlanNode DescribeScanNode(const RelAccess& a, const Store& store, int depth) {
  PlanNode node;
  node.depth = depth;
  node.op = "Scan";
  node.stage = TraceStage::kScan;
  size_t tasks = 0;
  if (a.posting_backed()) {
    for (CellId id : a.cells) {
      tasks += (store.PostingCount(id) + kScanMorselRecords - 1) / kScanMorselRecords;
    }
    node.detail = "CellValue index: " + std::to_string(a.cells.size()) + " cells";
    if (a.spec.table_in != nullptr) node.detail += "; TableId filter";
  } else {
    tasks = CandidateMorsels(a.cands).size();
    node.detail = a.cands.access_path;
    if (a.spec.table_in != nullptr) {
      node.detail += ": " + std::to_string(a.cands.ranges.size()) + " tables";
    }
  }
  node.detail += FilterDetail(a.spec);
  node.detail += "; morsel=" + std::to_string(kScanMorselRecords) + " records";
  node.est_rows = static_cast<int64_t>(a.records);
  node.planned_tasks = static_cast<int64_t>(tasks);
  return node;
}

/// Plan node for a relation a key-seek join step serves: the prefix relation
/// carrying the keys, the relation's own filters and, for a posting-backed
/// relation, its cell count and the rule's comparison. Rows and tasks follow
/// the prefix, so both stay unknown.
PlanNode DescribeKeySeekNode(const RelAccess& a, size_t r, const KeySeekPlan& p,
                             int depth) {
  PlanNode node;
  node.depth = depth;
  node.op = "KeySeek";
  node.stage = TraceStage::kKeySeek;
  node.detail = "rel " + std::to_string(r) + ": seeks rel " +
                std::to_string(p.key_side) + "'s (TableId, RowId) groups";
  if (a.posting_backed()) {
    node.detail += "; CellValue filter: " + std::to_string(a.cells.size()) +
                   " cells; " + SeekRuleDetail(p);
  }
  if (a.spec.table_in != nullptr) node.detail += "; TableId filter";
  node.detail += FilterDetail(a.spec);
  if (a.spec.need_quadrant) node.detail += "; Quadrant IS NOT NULL";
  node.detail += "; " + std::to_string(kKeySeekChunkKeys) + " keys/task";
  return node;
}

}  // namespace

/// The planned statement: everything PlanSelect bound and resolved, and the
/// root it chose — the fused aggregate when `fused` is engaged, else the
/// generic pipeline (scans or key seeks, the join chain, the residual WHERE,
/// then projection or aggregation into the shared SortAndLimit tail).
template <typename Store>
struct PlannedSelect<Store>::Impl {
  Impl(const SelectStmt& s, const Store& st, const Dictionary& d, const QueryOptions& o)
      : stmt(s), store(st), dict(d), options(o) {}

  const SelectStmt& stmt;
  const Store& store;
  const Dictionary& dict;
  const QueryOptions options;

  AnalyzedQuery q;
  std::vector<RelAccess> access;  // one per relation
  std::vector<StepKeys> steps;    // steps[j] joins relation j + 1
  std::vector<std::optional<KeySeekPlan>> seeks;
  BoundExprPtr residual_where;    // null when the WHERE was pushed into scans
  bool has_agg = false;
  std::vector<std::string> columns;
  std::vector<BoundExprPtr> items;
  std::vector<BoundExprPtr> keys;  // GROUP BY
  std::vector<AggSpec> aggs;
  SortSpec sort;
  std::optional<FusedAggPlan> fused;

  Status Bind();
  std::optional<FusedAggPlan> PlanFusedAgg() const;
  PlanDescription Describe() const;
  Result<QueryResult> RunFusedAgg() const;
  Result<QueryResult> RunGeneric() const;
};

/// Resolves every relation's access path, binds the join keys, residual
/// WHERE, select list, group keys, aggregates and ORDER BY keys, and plans
/// the key seeks. Bind errors surface here, before anything runs.
template <typename Store>
Status PlannedSelect<Store>::Impl::Bind() {
  for (const auto& rel : q.rels) {
    BLEND_ASSIGN_OR_RETURN(RelAccess a, ResolveAccess(rel, store, dict));
    access.push_back(std::move(a));
  }
  std::vector<Binder::RelColumns> rel_cols;
  for (const auto& rel : q.rels) rel_cols.push_back(rel.visible);
  const Binder binder(&dict, std::move(rel_cols));
  for (size_t j = 0; j < q.join_ons.size(); ++j) {
    BLEND_ASSIGN_OR_RETURN(
        StepKeys k, ExtractStepKeys(q.join_ons[j], binder, static_cast<uint8_t>(j + 1)));
    steps.push_back(std::move(k));
  }
  seeks = PlanKeySeeks(steps, access, store, options);
  if (q.residual_where != nullptr) {
    BLEND_ASSIGN_OR_RETURN(residual_where, binder.BindRowExpr(*q.residual_where));
  }

  has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (Binder::ContainsAggregate(*item.expr)) has_agg = true;
  }
  auto bind = [&](const Expr& e) {
    return has_agg ? binder.BindAggExpr(e, keys, &aggs) : binder.BindRowExpr(e);
  };
  if (stmt.select_star) {
    if (has_agg) return Status::PlanError("SELECT * with GROUP BY is not supported");
    // Expose canonical fields; prefix with the alias in a join.
    for (size_t s = 0; s < q.rels.size(); ++s) {
      for (int fi = 0; fi < kNumFields; ++fi) {
        Field f = static_cast<Field>(fi);
        auto b = std::make_unique<BoundExpr>();
        b->kind = BKind::kField;
        b->side = static_cast<uint8_t>(s);
        b->field = f;
        std::string name = FieldName(f);
        if (q.rels.size() == 2) {
          std::string prefix =
              q.rels[s].visible.alias.empty() ? ("t" + std::to_string(s))
                                              : q.rels[s].visible.alias;
          name = prefix + "." + name;
        }
        columns.push_back(std::move(name));
        items.push_back(std::move(b));
      }
    }
  }
  for (const auto& g : stmt.group_by) {
    BLEND_ASSIGN_OR_RETURN(auto b, binder.BindRowExpr(*g));
    keys.push_back(std::move(b));
  }
  for (const auto& item : stmt.items) {
    BLEND_ASSIGN_OR_RETURN(auto b, bind(*item.expr));
    columns.push_back(ItemName(item));
    items.push_back(std::move(b));
  }
  // ORDER BY: a bare name of an output column refers to it; anything else
  // binds in the select list's context.
  for (const auto& oi : stmt.order_by) {
    int ref = -1;
    if (oi.expr->kind == ExprKind::kColumnRef && oi.expr->table_alias.empty()) {
      for (size_t i = 0; i < columns.size() && ref < 0; ++i) {
        if (ToLower(columns[i]) == ToLower(oi.expr->column)) ref = static_cast<int>(i);
      }
    }
    sort.ref.push_back(ref);
    sort.desc.push_back(oi.desc);
    if (ref >= 0) {
      sort.exprs.push_back(nullptr);
      continue;
    }
    BLEND_ASSIGN_OR_RETURN(auto b, bind(*oi.expr));
    sort.exprs.push_back(std::move(b));
  }
  return Status::OK();
}

/// The fused aggregate's plan when the bound statement has its shape — one
/// posting-backed relation without a Quadrant predicate or residual WHERE,
/// grouped by TableId[, ColumnId], every select item and sort key a group
/// key or an aggregate, every aggregate COUNT(DISTINCT CellValue) — else
/// nullopt.
template <typename Store>
std::optional<FusedAggPlan> PlannedSelect<Store>::Impl::PlanFusedAgg() const {
  if (access.size() != 1 || residual_where != nullptr || stmt.select_star ||
      keys.empty() || keys.size() > 2) {
    return std::nullopt;
  }
  const RelAccess& a = access[0];
  if (!a.posting_backed() || a.spec.need_quadrant) return std::nullopt;
  auto is_field = [&](size_t k, Field f) {
    return keys[k]->kind == BKind::kField && keys[k]->field == f;
  };
  if (!is_field(0, Field::kTable) || (keys.size() == 2 && !is_field(1, Field::kColumn))) {
    return std::nullopt;
  }
  // Every aggregate (select list and sort keys) must be COUNT(DISTINCT
  // CellValue) for the per-posting-list dedup to be the whole aggregation.
  for (const AggSpec& s : aggs) {
    if (s.kind != AggSpec::Kind::kCount || !s.distinct || s.arg == nullptr ||
        s.arg->kind != BKind::kField || s.arg->field != Field::kCell) {
      return std::nullopt;
    }
  }
  FusedAggPlan f;
  f.with_column = keys.size() == 2;
  for (const auto& item : items) {
    const auto col = PackedColOf(*item);
    if (!col.has_value()) return std::nullopt;
    f.tail.out.push_back(*col);
  }
  for (size_t i = 0; i < sort.desc.size(); ++i) {
    if (sort.ref[i] >= 0) {
      const auto ref = static_cast<size_t>(sort.ref[i]);
      f.tail.sort.push_back({f.tail.out[ref], sort.desc[i], columns[ref]});
      continue;
    }
    const auto col = PackedColOf(*sort.exprs[i]);
    if (!col.has_value()) return std::nullopt;
    f.tail.sort.push_back({*col, sort.desc[i], PackedColName(*col)});
  }
  if (options.dedup_column >= 0 &&
      static_cast<size_t>(options.dedup_column) < f.tail.out.size()) {
    f.tail.dedup = options.dedup_column;
    f.tail.dedup_limit = options.dedup_limit;
  }
  f.tail.limit = stmt.limit;

  const std::vector<CellId>& cells = a.cells;
  f.base.assign(cells.size() + 1, 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    f.base[i + 1] = f.base[i] + store.PostingCount(cells[i]);
  }
  size_t mb = 0;
  while (mb < cells.size()) {
    size_t me = mb + 1;
    while (me < cells.size() && f.base[me + 1] - f.base[mb] <= kScanMorselRecords) {
      ++me;
    }
    f.morsels.push_back({mb, me});
    mb = me;
  }
  return f;
}

/// The operator tree: the fused aggregate over its posting scan and packed
/// tail, or the generic pipeline's root, tail, filter, join steps and one
/// scan or key seek per relation. Task counts that follow the joined row
/// count (filter/projection/aggregation chunks) stay unknown (-1) with the
/// chunk size in the detail text; scans report their exact morsel counts.
template <typename Store>
PlanDescription PlannedSelect<Store>::Impl::Describe() const {
  PlanDescription d;
  if (fused.has_value()) {
    const RelAccess& a = access[0];
    d.pipeline = "fused-scan-agg";
    PlanNode root;
    root.op = "FusedScanAgg";
    root.detail = std::string("COUNT(DISTINCT CellValue) GROUP BY TableId") +
                  (fused->with_column ? ", ColumnId" : "") + "; whole-cell morsels <= " +
                  std::to_string(kScanMorselRecords) + " records";
    root.stage = TraceStage::kFusedScan;
    root.planned_tasks = static_cast<int64_t>(fused->morsels.size());
    d.nodes.push_back(std::move(root));
    PlanNode scan;
    scan.depth = 1;
    scan.op = "PostingScan";
    scan.detail = std::to_string(a.cells.size()) + " cells";
    if (a.spec.table_in != nullptr) scan.detail += "; TableId filter";
    scan.detail += FilterDetail(a.spec);
    scan.est_rows = static_cast<int64_t>(fused->base.back());
    d.nodes.push_back(std::move(scan));
    PlanNode top;
    top.depth = 1;
    top.op = "PackedTopK";
    top.detail = fused->tail.Describe(columns);
    top.stage = TraceStage::kAggregationMerge;
    d.nodes.push_back(std::move(top));
    return d;
  }

  d.pipeline = "generic";
  PlanNode root;
  if (has_agg) {
    root.op = "Aggregate";
    root.stage = TraceStage::kAggregation;
    root.detail = std::to_string(stmt.group_by.size()) + " group keys; " +
                  std::to_string(kAggChunkRows) + "-row chunks, " +
                  std::to_string(kMergePartitions) + " merge partitions";
  } else {
    root.op = "Project";
    root.stage = TraceStage::kProjection;
    root.detail = (stmt.select_star
                       ? std::string("SELECT *")
                       : std::to_string(stmt.items.size()) + " items") +
                  "; " + std::to_string(kAggChunkRows) + "-row chunks";
  }
  d.nodes.push_back(std::move(root));
  // SortAndLimit applies the dedup spec only to a column the rows have.
  const bool dedup = options.dedup_column >= 0 &&
                     static_cast<size_t>(options.dedup_column) < columns.size();
  if (!stmt.order_by.empty() || stmt.limit >= 0 || dedup) {
    PlanNode tail;
    tail.depth = 1;
    tail.op = "SortLimit";
    tail.detail = std::to_string(stmt.order_by.size()) + " sort keys" +
                  (stmt.limit >= 0 ? "; limit " + std::to_string(stmt.limit)
                                   : std::string()) +
                  (dedup
                       ? "; dedup col " + std::to_string(options.dedup_column) +
                             " top " + std::to_string(options.dedup_limit)
                       : std::string());
    d.nodes.push_back(std::move(tail));
  }
  if (residual_where != nullptr) {
    PlanNode filter;
    filter.depth = 1;
    filter.op = "Filter";
    filter.stage = TraceStage::kFilter;
    filter.detail =
        "residual WHERE; " + std::to_string(kAggChunkRows) + "-row chunks";
    d.nodes.push_back(std::move(filter));
  }
  for (size_t j = 0; j < steps.size(); ++j) {
    PlanNode join;
    join.depth = 1;
    join.op = "HashJoin";
    join.stage = TraceStage::kJoinProbe;
    join.detail = "step " + std::to_string(j + 1) +
                  "; build side chosen by size at run time; probe chunk=" +
                  std::to_string(kScanMorselRecords) + " rows";
    d.nodes.push_back(std::move(join));
    PlanNode build;
    build.depth = 2;
    build.op = "HashBuild";
    build.stage = TraceStage::kJoinBuild;
    build.detail = "smaller input of step " + std::to_string(j + 1);
    d.nodes.push_back(std::move(build));
  }
  const int scan_depth = access.size() > 1 ? 2 : 1;
  for (size_t r = 0; r < access.size(); ++r) {
    if (seeks[r].has_value() && seeks[r]->chosen) {
      d.nodes.push_back(DescribeKeySeekNode(access[r], r, *seeks[r], scan_depth));
      continue;
    }
    PlanNode scan = DescribeScanNode(access[r], store, scan_depth);
    scan.detail = "rel " + std::to_string(r) + ": " + scan.detail;
    if (seeks[r].has_value()) {
      scan.detail += "; key seek declined: " + SeekRuleDetail(*seeks[r]);
    }
    d.nodes.push_back(std::move(scan));
  }
  return d;
}

// ---------------------------------------------------------------------------
// The fused scan->aggregate operator's run (see FusedGroup).
// ---------------------------------------------------------------------------

template <typename Store>
Result<QueryResult> PlannedSelect<Store>::Impl::RunFusedAgg() const {
  const FusedAggPlan& f = *fused;
  const std::vector<CellId>& cells = access[0].cells;
  // The TableId IN filter, RowId bound and residual scan predicates (e.g.
  // the optimizer's `TableId NOT IN (...)` rewrite) are evaluated per record
  // without materializing anything.
  const RecordFilter<Store> filter(access[0], store, /*filter_tables=*/true);

  std::vector<std::vector<FusedGroup>> parts(f.morsels.size());
  BLEND_RETURN_NOT_OK(RunTasks(options.scheduler, options.control, options.trace,
                               TraceStage::kFusedScan, f.morsels.size(),
                               [&](size_t m) {
    FlatKeyIndex index;
    std::vector<FusedGroup>& groups_m = parts[m];
    for (size_t ci = f.morsels[m].begin; ci < f.morsels[m].end; ++ci) {
      const CellId cell = cells[ci];
      // The packed counters read the posting list in place: the fused path
      // never materializes positions.
      const std::span<const RecordPos> list = store.PostingList(cell);
      for (size_t j = 0; j < list.size(); ++j) {
        const RecordPos p = list[j];
        if (!filter.Passes(p)) continue;
        const uint64_t key =
            static_cast<uint64_t>(static_cast<uint32_t>(store.table(p))) |
            (f.with_column ? static_cast<uint64_t>(
                                 static_cast<uint32_t>(store.column(p)))
                                 << 32
                           : 0);
        auto [gi, inserted] =
            index.FindOrInsert(key, static_cast<uint32_t>(groups_m.size()));
        if (inserted) {
          groups_m.push_back({key, f.base[ci] + j, 1, cell});
        } else {
          FusedGroup& g = groups_m[gi];
          if (g.last_cell != cell) {
            ++g.count;
            g.last_cell = cell;
          }
        }
      }
    }
  }));

  // The tail: merge morsel-local groups in morsel order (group counts are
  // bounded by tables x columns), rank them packed, and box only the
  // selected rows.
  TraceSpan tail_span(options.trace, TraceStage::kAggregationMerge);
  FlatKeyIndex index(parts.empty() ? 0 : parts[0].size());
  std::vector<FusedGroup> merged;
  for (const auto& part : parts) {
    for (const FusedGroup& g : part) {
      auto [gi, inserted] =
          index.FindOrInsert(g.key, static_cast<uint32_t>(merged.size()));
      if (inserted) {
        merged.push_back(g);
        continue;
      }
      FusedGroup& into = merged[gi];
      into.count += g.count;
      into.first = std::min(into.first, g.first);
    }
  }
  QueryResult result;
  result.columns = columns;
  const std::vector<uint32_t> selected = f.tail.Select(merged);
  result.rows.reserve(selected.size());
  for (uint32_t i : selected) {
    std::vector<SqlValue>& row = result.rows.emplace_back();
    row.reserve(f.tail.out.size());
    for (PackedCol c : f.tail.out) {
      row.push_back(SqlValue::Int(PackedValue(merged[i], c)));
    }
  }
  if (options.trace != nullptr) {
    options.trace->AddRows(TraceStage::kFusedScan,
                           static_cast<int64_t>(merged.size()));
    options.trace->AddRows(TraceStage::kAggregationMerge,
                           static_cast<int64_t>(result.rows.size()));
  }
  return result;
}

/// The generic pipeline: scans or key seeks, the join chain, the residual
/// WHERE, then projection or aggregation into the shared SortAndLimit tail.
template <typename Store>
Result<QueryResult> PlannedSelect<Store>::Impl::RunGeneric() const {
  Scheduler* sched = options.scheduler;
  const QueryControl* control = options.control;
  QueryTrace* trace = options.trace;

  // Budget accounting covers the pipeline's dominant materializations (scan
  // position vectors, the joined row stream); the estimates are peak live
  // bytes, released when the query finishes.
  ScopedMemoryCharge mem(control);

  // 1. Scans. A relation the planner seeks is not scanned up front; its
  // step seeks it once the prefix is known.
  auto sought = [&](size_t r) { return seeks[r].has_value() && seeks[r]->chosen; };
  std::vector<std::vector<RecordPos>> scans(q.rels.size());
  int64_t scan_bytes = 0;
  for (size_t r = 0; r < q.rels.size(); ++r) {
    if (sought(r)) continue;
    BLEND_ASSIGN_OR_RETURN(scans[r], ScanRel(access[r], store, sched, control, trace));
    scan_bytes += static_cast<int64_t>(scans[r].size() * sizeof(RecordPos));
    BLEND_RETURN_NOT_OK(mem.ChargeTo(scan_bytes));
  }

  // 2. Join chain (or single-relation row stream).
  std::vector<RowCtx> rows;
  rows.reserve(scans[0].size());
  for (RecordPos p : scans[0]) {
    RowCtx ctx;
    ctx.pos[0] = p;
    rows.push_back(ctx);
  }
  BLEND_RETURN_NOT_OK(
      mem.ChargeTo(scan_bytes + static_cast<int64_t>(rows.size() * sizeof(RowCtx))));
  for (size_t j = 0; j < steps.size(); ++j) {
    const uint8_t step_side = static_cast<uint8_t>(j + 1);
    std::vector<RecordPos>& scan = scans[step_side];
    bool build_on_scan = scan.size() <= rows.size();
    if (sought(step_side)) {
      BLEND_ASSIGN_OR_RETURN(
          StepInput in,
          KeySeek(access[step_side], seeks[step_side]->key_side, rows, store,
                  sched, control, trace));
      scan = std::move(in.positions);
      build_on_scan = in.build_on_scan;
      scan_bytes += static_cast<int64_t>(scan.size() * sizeof(RecordPos));
      BLEND_RETURN_NOT_OK(mem.ChargeTo(
          scan_bytes + static_cast<int64_t>(rows.size() * sizeof(RowCtx))));
    }
    BLEND_ASSIGN_OR_RETURN(rows, HashJoinStep(store, rows, scan, steps[j], step_side,
                                              build_on_scan, sched, control, trace));
    BLEND_RETURN_NOT_OK(mem.ChargeTo(
        scan_bytes + static_cast<int64_t>(rows.size() * sizeof(RowCtx))));
  }

  // 3. Residual WHERE, chunk-parallel: per-chunk surviving-row buffers
  // concatenated in chunk order keep the row stream identical to a serial
  // filter loop.
  if (residual_where != nullptr) {
    const BoundExpr& pred = *residual_where;
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<RowCtx>> parts(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kFilter,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      std::vector<RowCtx>& kept = parts[c];
      for (size_t i = b; i < e; ++i) {
        const RowCtx& ctx = rows[i];
        SqlValue v = EvalExpr(pred, [&](const BoundExpr& bx) {
          return FieldValue(store, bx.field, ctx.pos[bx.side]);
        });
        if (v.IsTruthy()) kept.push_back(ctx);
      }
    }));
    rows = ConcatParts(std::move(parts));
  }

  QueryResult result;
  result.columns = columns;
  auto row_leaf = [&](const RowCtx& ctx) {
    return [this, ctx](const BoundExpr& b) {
      return FieldValue(store, b.field, ctx.pos[b.side]);
    };
  };

  if (!has_agg) {
    // Chunk-parallel projection: per-chunk buffers concatenated in chunk
    // order reproduce the serial row order exactly.
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<std::vector<SqlValue>>> row_parts(num_chunks);
    std::vector<std::vector<std::vector<SqlValue>>> sort_parts(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kProjection,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      row_parts[c].reserve(e - b);
      for (size_t r = b; r < e; ++r) {
        auto leaf = row_leaf(rows[r]);
        std::vector<SqlValue> vals;
        vals.reserve(items.size());
        for (const auto& it : items) vals.push_back(EvalExpr(*it, leaf));
        if (!stmt.order_by.empty()) sort_parts[c].push_back(SortKeys(sort, vals, leaf));
        row_parts[c].push_back(std::move(vals));
      }
    }));
    std::vector<std::vector<SqlValue>> out_rows;
    std::vector<std::vector<SqlValue>> sort_vals;
    out_rows.reserve(n);
    for (size_t c = 0; c < num_chunks; ++c) {
      for (auto& v : row_parts[c]) out_rows.push_back(std::move(v));
      for (auto& v : sort_parts[c]) sort_vals.push_back(std::move(v));
    }
    SortAndLimit(&out_rows, &sort_vals, sort.desc, stmt.limit, options);
    result.rows = std::move(out_rows);
    return result;
  }

  // Aggregation.
  struct Group {
    std::vector<SqlValue> keys;
    std::vector<AggState> states;
  };
  std::vector<Group> groups;

  auto update_states = [&](std::vector<AggState>& states, const RowCtx& ctx) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      SqlValue v = SqlValue::Null();
      if (aggs[a].arg != nullptr) {
        if (aggs[a].arg->kind == BKind::kField) {
          v = FieldValue(store, aggs[a].arg->field, ctx.pos[aggs[a].arg->side]);
        } else {
          v = EvalExpr(*aggs[a].arg, row_leaf(ctx));
        }
      }
      UpdateAgg(aggs[a], &states[a], v);
    }
  };

  // Fast path: when every group key is a narrow integer field (the common
  // seeker shapes: (TableId, ColumnId), (TableId), (TableId, ColumnId,
  // ColumnId)), keys pack into one uint64 and the per-row work avoids any
  // allocation.
  struct PackedField {
    uint8_t side;
    Field field;
    int shift;
    int width;
  };
  std::vector<PackedField> packed;
  bool packable = !keys.empty();
  {
    int shift = 0;
    for (const auto& ke : keys) {
      int width = 0;
      if (ke->kind == BKind::kField) {
        switch (ke->field) {
          case Field::kColumn: width = 16; break;
          case Field::kTable:
          case Field::kRow:
          case Field::kCell: width = 32; break;
          default: width = 0;  // SuperKey too wide, Quadrant nullable
        }
      }
      if (width == 0 || shift + width > 64) {
        packable = false;
        break;
      }
      packed.push_back({ke->side, ke->field, shift, width});
      shift += width;
    }
  }

  bool fast_done = false;
  if (packable) {
    // Partitioned parallel hash aggregation: chunk-local flat maps keyed by
    // the packed uint64, then a radix-partitioned merge where each worker
    // owns a disjoint key partition and folds chunks in ascending chunk
    // order. Group output order is restored to first-appearance order (the
    // serial order) by sorting on each group's first global row index.
    struct LocalGroup {
      uint64_t key;
      size_t first;
      std::vector<SqlValue> keys;
      std::vector<AggState> states;
    };
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<LocalGroup>> chunk_groups(num_chunks);
    std::vector<uint8_t> overflowed(num_chunks, 0);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kAggregation,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      FlatKeyIndex index;
      std::vector<LocalGroup>& groups_c = chunk_groups[c];
      for (size_t r = b; r < e; ++r) {
        const RowCtx& ctx = rows[r];
        uint64_t key = 0;
        bool fits = true;
        for (const auto& pf : packed) {
          SqlValue v = FieldValue(store, pf.field, ctx.pos[pf.side]);
          uint64_t raw = static_cast<uint64_t>(v.i);
          if (pf.width < 64 && (raw >> pf.width) != 0) {
            fits = false;
            break;
          }
          key |= raw << pf.shift;
        }
        if (!fits) {  // a value overflowed its packed width: redo generically
          overflowed[c] = 1;
          groups_c.clear();
          return;
        }
        auto [gi, inserted] =
            index.FindOrInsert(key, static_cast<uint32_t>(groups_c.size()));
        if (inserted) {
          LocalGroup g;
          g.key = key;
          g.first = r;
          g.keys.reserve(packed.size());
          for (const auto& pf : packed) {
            g.keys.push_back(FieldValue(store, pf.field, ctx.pos[pf.side]));
          }
          g.states.resize(aggs.size());
          groups_c.push_back(std::move(g));
        }
        update_states(groups_c[gi].states, ctx);
      }
    }));
    bool any_overflow = false;
    for (uint8_t f : overflowed) any_overflow = any_overflow || f != 0;
    if (!any_overflow) {
      fast_done = true;
      std::vector<std::vector<LocalGroup>> part_groups(kMergePartitions);
      BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace,
                                   TraceStage::kAggregationMerge,
                                   kMergePartitions, [&](size_t part) {
        FlatKeyIndex part_index;
        std::vector<LocalGroup>& merged = part_groups[part];
        for (size_t c = 0; c < num_chunks; ++c) {
          for (LocalGroup& g : chunk_groups[c]) {
            if ((Mix64(g.key) & (kMergePartitions - 1)) != part) continue;
            auto [gi, inserted] =
                part_index.FindOrInsert(g.key, static_cast<uint32_t>(merged.size()));
            if (inserted) {
              merged.push_back(std::move(g));
              continue;
            }
            LocalGroup& into = merged[gi];
            into.first = std::min(into.first, g.first);
            for (size_t a = 0; a < aggs.size(); ++a) {
              MergeAggState(&into.states[a], &g.states[a]);
            }
          }
        }
      }));
      std::vector<LocalGroup> all;
      for (auto& pg : part_groups) {
        for (auto& g : pg) all.push_back(std::move(g));
      }
      std::sort(all.begin(), all.end(),
                [](const LocalGroup& a, const LocalGroup& b) {
                  return a.first < b.first;
                });
      groups.reserve(all.size());
      for (auto& g : all) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    }
  }

  if (!fast_done) {
    // Generic aggregation (non-packable keys, GROUP BY-less global
    // aggregates, or a packed-width overflow): the same chunk-local +
    // radix-partitioned merge scheme as the packed fast path, with arbitrary
    // SqlValue key vectors matched by hash then equality. Chunks and merge
    // order depend only on the row count, and the final sort on each group's
    // first global row index restores first-appearance order, so the result
    // is byte-identical for every pool size.
    struct GenGroup {
      uint64_t hash;
      size_t first;
      std::vector<SqlValue> keys;
      std::vector<AggState> states;
    };
    const size_t n = rows.size();
    const size_t num_chunks = (n + kAggChunkRows - 1) / kAggChunkRows;
    std::vector<std::vector<GenGroup>> chunk_groups(num_chunks);
    BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace, TraceStage::kAggregation,
                                 num_chunks, [&](size_t c) {
      const size_t b = c * kAggChunkRows;
      const size_t e = std::min(n, b + kAggChunkRows);
      std::unordered_map<uint64_t, std::vector<uint32_t>> index;
      std::vector<GenGroup>& groups_c = chunk_groups[c];
      for (size_t r = b; r < e; ++r) {
        const RowCtx& ctx = rows[r];
        auto leaf = row_leaf(ctx);
        std::vector<SqlValue> key;
        key.reserve(keys.size());
        uint64_t h = 0x13198A2E03707344ULL;
        for (const auto& ke : keys) {
          key.push_back(EvalExpr(*ke, leaf));
          h = HashCombine(h, key.back().Hash());
        }
        uint32_t gi = UINT32_MAX;
        auto& bucket = index[h];
        for (uint32_t cand : bucket) {
          if (groups_c[cand].keys == key) {
            gi = cand;
            break;
          }
        }
        if (gi == UINT32_MAX) {
          gi = static_cast<uint32_t>(groups_c.size());
          GenGroup g;
          g.hash = h;
          g.first = r;
          g.keys = std::move(key);
          g.states.resize(aggs.size());
          groups_c.push_back(std::move(g));
          bucket.push_back(gi);
        }
        update_states(groups_c[gi].states, ctx);
      }
    }));
    if (num_chunks == 1) {
      // Single chunk: already in first-appearance order; skip the merge.
      groups.reserve(chunk_groups[0].size());
      for (GenGroup& g : chunk_groups[0]) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    } else if (num_chunks > 1) {
      // Merge with each worker owning a disjoint hash partition, folding
      // chunks in ascending chunk order (the double-sum rounding order).
      std::vector<std::vector<GenGroup>> part_groups(kMergePartitions);
      BLEND_RETURN_NOT_OK(RunTasks(sched, control, trace,
                                   TraceStage::kAggregationMerge,
                                   kMergePartitions, [&](size_t part) {
        std::unordered_map<uint64_t, std::vector<uint32_t>> part_index;
        std::vector<GenGroup>& merged = part_groups[part];
        for (size_t c = 0; c < num_chunks; ++c) {
          for (GenGroup& g : chunk_groups[c]) {
            if ((Mix64(g.hash) & (kMergePartitions - 1)) != part) continue;
            uint32_t gi = UINT32_MAX;
            auto& bucket = part_index[g.hash];
            for (uint32_t cand : bucket) {
              if (merged[cand].keys == g.keys) {
                gi = cand;
                break;
              }
            }
            if (gi == UINT32_MAX) {
              bucket.push_back(static_cast<uint32_t>(merged.size()));
              merged.push_back(std::move(g));
              continue;
            }
            GenGroup& into = merged[gi];
            into.first = std::min(into.first, g.first);
            for (size_t a = 0; a < aggs.size(); ++a) {
              MergeAggState(&into.states[a], &g.states[a]);
            }
          }
        }
      }));
      std::vector<GenGroup> all;
      for (auto& pg : part_groups) {
        for (auto& g : pg) all.push_back(std::move(g));
      }
      std::sort(all.begin(), all.end(),
                [](const GenGroup& a, const GenGroup& b) { return a.first < b.first; });
      groups.reserve(all.size());
      for (auto& g : all) {
        groups.push_back({std::move(g.keys), std::move(g.states)});
      }
    }
  }

  // Global aggregate over zero rows still yields one group.
  if (stmt.group_by.empty() && groups.empty()) {
    Group g;
    g.states.resize(aggs.size());
    groups.push_back(std::move(g));
  }

  if (trace != nullptr) {
    trace->AddRows(TraceStage::kAggregation, static_cast<int64_t>(groups.size()));
  }

  std::vector<GroupOut> out_groups;
  out_groups.reserve(groups.size());
  for (Group& g : groups) {
    GroupOut og;
    og.keys = std::move(g.keys);
    og.agg_vals.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      og.agg_vals[a] = FinalizeAgg(aggs[a], g.states[a]);
    }
    out_groups.push_back(std::move(og));
  }
  EmitGroups(out_groups, items, sort, stmt, options, &result);
  return result;
}

template <typename Store>
PlannedSelect<Store>::PlannedSelect(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
template <typename Store>
PlannedSelect<Store>::PlannedSelect(PlannedSelect&&) noexcept = default;
template <typename Store>
PlannedSelect<Store>::~PlannedSelect() = default;

template <typename Store>
PlanDescription PlannedSelect<Store>::Describe() const {
  return impl_->Describe();
}

template <typename Store>
Result<QueryResult> PlannedSelect<Store>::Execute() const {
  return impl_->fused.has_value() ? impl_->RunFusedAgg() : impl_->RunGeneric();
}

template <typename Store>
Result<PlannedSelect<Store>> PlanSelect(const SelectStmt& stmt, const Store& store,
                                        const Dictionary& dict,
                                        const QueryOptions& options) {
  using Impl = typename PlannedSelect<Store>::Impl;
  auto plan = std::make_unique<Impl>(stmt, store, dict, options);
  BLEND_ASSIGN_OR_RETURN(plan->q, Analyze(stmt));
  BLEND_RETURN_NOT_OK(CheckControl(options.control, "query start"));
  BLEND_RETURN_NOT_OK(plan->Bind());
  if (options.enable_fused_scan_agg) plan->fused = plan->PlanFusedAgg();
  return PlannedSelect<Store>(std::move(plan));
}

template class PlannedSelect<RowStore>;
template class PlannedSelect<ColumnStore>;
template Result<PlannedSelect<RowStore>> PlanSelect(const SelectStmt&, const RowStore&,
                                                    const Dictionary&,
                                                    const QueryOptions&);
template Result<PlannedSelect<ColumnStore>> PlanSelect(const SelectStmt&,
                                                       const ColumnStore&,
                                                       const Dictionary&,
                                                       const QueryOptions&);

}  // namespace blend::sql
