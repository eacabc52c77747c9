#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/array_ref.h"

namespace blend {

class SnapshotCodec;

/// Identifier of an interned (normalized) cell value.
using CellId = uint32_t;

/// Sentinel for "value not present in the lake".
constexpr CellId kInvalidCellId = 0xFFFFFFFFu;

/// Interns normalized cell strings into dense CellIds. The AllTables index
/// stores CellIds instead of strings: this is both the dictionary encoding a
/// column store would apply to a low-cardinality nvarchar column and the key
/// space of the in-database hash index on CellValue.
///
/// One physical form, three fixed-width arrays: CSR offsets, the
/// concatenated value blob (values in id order), and a power-of-two
/// open-addressing table of CellIds (empty slots hold kInvalidCellId) keyed
/// by FNV-1a with linear probing. The builder's Intern appends to the arrays
/// directly; the table keeps at least 2n+1 slots, grows only when a value is
/// inserted and rehashes in id order, so it is a pure function of the value
/// sequence. That is also the snapshot file form: a snapshot stages these
/// arrays as they are, and loading serves them back (zero-copy views for
/// OpenSnapshot, heap copies for ReadSnapshot) with no interning or hashing.
/// A view-backed dictionary is immutable: Intern on it dies via BLEND_CHECK.
class Dictionary {
 public:
  Dictionary();

  /// Interns `normalized` (caller must have applied NormalizeCell).
  CellId Intern(std::string_view normalized);

  /// Looks up without interning; kInvalidCellId when absent.
  CellId Find(std::string_view normalized) const;

  /// Find over a whole batch: out[i] = Find(values[i]). Hashes the batch
  /// first and prefetches each probe's slot, then its offsets, then its blob
  /// bytes, and only then compares, so the cache misses of a long IN-list
  /// overlap instead of serializing.
  void FindBatch(std::span<const std::string_view> values, CellId* out) const;

  /// The interned string for an id.
  std::string_view Value(CellId id) const {
    const uint64_t begin = offsets_[id];
    return {blob_.data() + begin, static_cast<size_t>(offsets_[id + 1] - begin)};
  }

  size_t Size() const { return offsets_.size() - 1; }

  /// Footprint in bytes of the three arrays.
  size_t ApproxBytes() const;

 private:
  friend class SnapshotCodec;

  /// Linear probe for `normalized` starting at slot `idx`.
  CellId ProbeFrom(std::string_view normalized, size_t idx) const;
  /// Doubles the table until it has at least 2 * Size() + 1 slots and
  /// reinserts every id in id order.
  void Rehash();

  PodArray<uint64_t> offsets_;  // Size() + 1
  PodArray<char> blob_;
  PodArray<CellId> hash_slots_;
};

}  // namespace blend
