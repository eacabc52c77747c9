#include "storage/dictionary.h"

#include <algorithm>
#include <vector>

#include "common/hashing.h"
#include "common/status.h"

namespace blend {

Dictionary::Dictionary() {
  offsets_.Own({0});
  hash_slots_.Own({kInvalidCellId});
}

CellId Dictionary::Intern(std::string_view normalized) {
  BLEND_CHECK(!offsets_.is_view(),
              "Intern into a dictionary served from a snapshot mapping");
  const size_t mask = hash_slots_.size() - 1;
  size_t idx = Fnv1a64(normalized) & mask;
  for (CellId id = hash_slots_[idx]; id != kInvalidCellId; id = hash_slots_[idx]) {
    if (Value(id) == normalized) return id;
    idx = (idx + 1) & mask;
  }
  const auto id = static_cast<CellId>(Size());
  BLEND_CHECK(id != kInvalidCellId, "dictionary id space exhausted");
  blob_.Mutate([&](std::vector<char>& blob) {
    blob.insert(blob.end(), normalized.begin(), normalized.end());
  });
  offsets_.Mutate([&](std::vector<uint64_t>& offsets) {
    offsets.push_back(blob_.size());
  });
  if (hash_slots_.size() < 2 * Size() + 1) {
    Rehash();
  } else {
    // Same slot a fresh id-order rebuild would pick: every earlier id was
    // placed before this one, exactly as in the rebuild.
    hash_slots_.Mutate([&](std::vector<CellId>& slots) { slots[idx] = id; });
  }
  return id;
}

void Dictionary::Rehash() {
  const size_t n = Size();
  size_t table_size = hash_slots_.size();
  while (table_size < 2 * n + 1) table_size <<= 1;
  std::vector<CellId> slots(table_size, kInvalidCellId);
  const size_t mask = table_size - 1;
  for (size_t id = 0; id < n; ++id) {
    size_t idx = Fnv1a64(Value(static_cast<CellId>(id))) & mask;
    while (slots[idx] != kInvalidCellId) idx = (idx + 1) & mask;
    slots[idx] = static_cast<CellId>(id);
  }
  hash_slots_.Own(std::move(slots));
}

CellId Dictionary::ProbeFrom(std::string_view normalized, size_t idx) const {
  // A built table always has an empty slot, but a loaded one is only
  // validated to be larger than the value count; the probe count is capped
  // anyway so even an adversarial table terminates.
  const size_t mask = hash_slots_.size() - 1;
  for (size_t probes = 0; probes < hash_slots_.size(); ++probes) {
    const CellId id = hash_slots_[idx];
    if (id == kInvalidCellId) return kInvalidCellId;
    if (Value(id) == normalized) return id;
    idx = (idx + 1) & mask;
  }
  return kInvalidCellId;
}

CellId Dictionary::Find(std::string_view normalized) const {
  return ProbeFrom(normalized, Fnv1a64(normalized) & (hash_slots_.size() - 1));
}

void Dictionary::FindBatch(std::span<const std::string_view> values,
                           CellId* out) const {
  // Small enough that every stage's prefetched lines are still in L1 when
  // the next stage reads them.
  constexpr size_t kBatch = 32;
  const size_t mask = hash_slots_.size() - 1;
  size_t slot[kBatch];
  for (size_t b = 0; b < values.size(); b += kBatch) {
    const size_t n = std::min(kBatch, values.size() - b);
    const std::string_view* v = values.data() + b;
    CellId* o = out + b;
    for (size_t i = 0; i < n; ++i) {
      slot[i] = Fnv1a64(v[i]) & mask;
      __builtin_prefetch(hash_slots_.data() + slot[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      o[i] = hash_slots_[slot[i]];
      if (o[i] != kInvalidCellId) __builtin_prefetch(offsets_.data() + o[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (o[i] != kInvalidCellId) {
        __builtin_prefetch(blob_.data() + offsets_[o[i]]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      o[i] = o[i] == kInvalidCellId ? kInvalidCellId : ProbeFrom(v[i], slot[i]);
    }
  }
}

size_t Dictionary::ApproxBytes() const {
  return offsets_.size() * sizeof(uint64_t) + blob_.size() +
         hash_slots_.size() * sizeof(CellId);
}

}  // namespace blend
