#include "baselines/mate.h"

#include <unordered_set>

#include "common/str_util.h"
#include "common/xash.h"

namespace blend::baselines {

Mate::Mate(const DataLake* lake) : lake_(lake) {
  super_keys_.resize(lake->NumTables());
  for (TableId t = 0; t < static_cast<TableId>(lake->NumTables()); ++t) {
    const Table& table = lake->table(t);
    auto& keys = super_keys_[static_cast<size_t>(t)];
    keys.resize(table.NumRows());
    std::vector<std::string> normalized(table.NumColumns());
    std::vector<std::string_view> views;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      views.clear();
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        normalized[c] = NormalizeCell(table.At(r, c));
        if (normalized[c].empty()) continue;
        views.push_back(normalized[c]);
        postings_[normalized[c]].push_back(
            (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) |
            static_cast<uint32_t>(r));
      }
      keys[r] = Xash::SuperKey(views);
    }
  }
}

namespace {

bool AlignTuple(const std::vector<std::string>& row_cells,
                const std::vector<std::string>& tuple, size_t vi,
                std::vector<bool>* used) {
  if (vi == tuple.size()) return true;
  for (size_t c = 0; c < row_cells.size(); ++c) {
    if ((*used)[c] || row_cells[c] != tuple[vi]) continue;
    (*used)[c] = true;
    if (AlignTuple(row_cells, tuple, vi + 1, used)) return true;
    (*used)[c] = false;
  }
  return false;
}

}  // namespace

core::TableList Mate::TopK(const std::vector<std::vector<std::string>>& tuples, int k,
                           Stats* stats) const {
  Stats local;
  // Normalize tuples, keeping those with the first kept tuple's arity; MATE
  // probes the index with ONE key column: pick the one with the smallest
  // total posting volume (its frequency-aware choice).
  std::vector<std::vector<std::string>> norm;
  for (const auto& t : tuples) {
    if (t.empty() || (!norm.empty() && t.size() != norm[0].size())) continue;
    std::vector<std::string> n;
    bool ok = true;
    for (const auto& v : t) {
      std::string nv = NormalizeCell(v);
      if (nv.empty()) {
        ok = false;
        break;
      }
      n.push_back(std::move(nv));
    }
    if (ok) norm.push_back(std::move(n));
  }
  if (norm.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  const size_t cols = norm[0].size();
  size_t probe_col = 0;
  size_t best_volume = SIZE_MAX;
  for (size_t c = 0; c < cols; ++c) {
    size_t vol = 0;
    std::unordered_set<std::string> distinct;
    for (const auto& t : norm) {
      if (!distinct.insert(t[c]).second) continue;
      auto it = postings_.find(t[c]);
      if (it != postings_.end()) vol += it->second.size();
    }
    if (vol < best_volume) {
      best_volume = vol;
      probe_col = c;
    }
  }

  // Candidate rows: every row containing any probe-column value.
  std::unordered_set<RowKey> candidates;
  {
    std::unordered_set<std::string> distinct;
    for (const auto& t : norm) {
      if (!distinct.insert(t[probe_col]).second) continue;
      auto it = postings_.find(t[probe_col]);
      if (it == postings_.end()) continue;
      candidates.insert(it->second.begin(), it->second.end());
    }
  }
  local.candidate_rows = candidates.size();

  // Query tuple super keys.
  std::vector<uint64_t> tuple_hashes;
  tuple_hashes.reserve(norm.size());
  for (const auto& t : norm) {
    std::vector<std::string_view> views(t.begin(), t.end());
    tuple_hashes.push_back(Xash::SuperKey(views));
  }

  std::unordered_map<TableId, double> scores;
  std::vector<std::string> row_cells;
  for (RowKey rk : candidates) {
    TableId t = static_cast<TableId>(rk >> 32);
    size_t r = static_cast<size_t>(rk & 0xFFFFFFFFu);
    uint64_t super = super_keys_[static_cast<size_t>(t)][r];

    std::vector<size_t> surviving;
    for (size_t i = 0; i < norm.size(); ++i) {
      if (Xash::MayContain(super, tuple_hashes[i])) surviving.push_back(i);
    }
    if (surviving.empty()) continue;
    ++local.bloom_pass_rows;

    // Application-level exact validation (the expensive loop).
    const Table& table = lake_->table(t);
    row_cells.clear();
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      row_cells.push_back(NormalizeCell(table.At(r, c)));
    }
    bool validated = false;
    for (size_t i : surviving) {
      std::vector<bool> used(row_cells.size(), false);
      if (AlignTuple(row_cells, norm[i], 0, &used)) {
        validated = true;
        break;
      }
    }
    if (validated) {
      ++local.true_positives;
      scores[t] += 1.0;
    } else {
      ++local.false_positives;
    }
  }

  core::TableList out;
  out.reserve(scores.size());
  for (const auto& [t, s] : scores) out.push_back({t, s});
  core::SortDesc(&out);
  core::TruncateK(&out, k);
  if (stats != nullptr) *stats = local;
  return out;
}

size_t Mate::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& [tok, rows] : postings_) {
    bytes += tok.size() + sizeof(std::vector<RowKey>) + rows.size() * sizeof(RowKey);
  }
  for (const auto& keys : super_keys_) {
    bytes += sizeof(std::vector<uint64_t>) + keys.size() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace blend::baselines
