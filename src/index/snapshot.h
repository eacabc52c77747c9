#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/scheduler.h"
#include "common/status.h"
#include "index/builder.h"

namespace blend {

/// Persistent index snapshots: the offline build (paper Fig. 2e) runs once,
/// the resulting IndexBundle is written as a versioned, sectioned,
/// checksummed binary artifact, and any number of serving processes load it
/// instead of re-indexing the lake.
///
/// On-disk layout (all integers native-endian; the header records an
/// endianness marker and loading a foreign-endian file is a checked error):
///
///   FileHeader          magic "BLENDSNP", format version, endian marker,
///                       layout, flags, record/table/cell counts, section
///                       count, and checksums over the header and the
///                       section table.
///   SectionEntry[n]     (id, offset, size, checksum) per section; payload
///                       offsets are 8-byte aligned so every fixed-width
///                       array can be served in place from a mapping.
///   payloads            raw little-structured arrays, zero-padded between
///                       sections.
///
/// Sections: dictionary (CSR offsets + string blob), the active store's
/// primary arrays (the row layout's IndexRecord array, or the column
/// layout's six SoA arrays), the shared secondary indexes (CSR postings,
/// table ranges, quadrant positions), and — for shuffled builds — the CSR
/// row maps. Unknown trailing section ids are ignored on load, so the
/// version only needs to bump when existing sections change shape.
///
/// Versioning policy: `kSnapshotVersion` is the single format version.
/// Readers accept exactly that version and the row-map header flag (bit 0);
/// any other version or flag bit is rejected. Additive changes (new trailing
/// sections) do not bump the version, incompatible changes do.
///
/// Two load paths share all validation:
///   - `ReadSnapshot` materializes every array onto the process heap; the
///     bundle is independent of the file afterwards.
///   - `OpenSnapshot` mmaps the file and binds the fixed-width arrays
///     (records/columns, postings, table ranges, row positions, and the
///     dictionary's offsets/blob/precomputed hash table) as zero-copy views
///     into the mapping; only the per-table row maps of shuffled builds are
///     materialized on the heap. The bundle keeps the mapping alive.
///
/// Every malformed input — short file, bad magic, future version, foreign
/// endianness, misaligned or out-of-bounds section, checksum mismatch,
/// layout/section inconsistency — returns a descriptive error Status; no
/// input bytes can cause undefined behavior.

/// The snapshot format version (see the policy above).
inline constexpr uint32_t kSnapshotVersion = 2;

/// Owns the raw bytes of a loaded snapshot: either a heap buffer
/// (ReadSnapshot) or a file mapping (OpenSnapshot). View-mode bundles hold a
/// shared_ptr to keep the bytes alive for as long as any store array views
/// them.
class SnapshotStorage {
 public:
  virtual ~SnapshotStorage() = default;
  SnapshotStorage(const SnapshotStorage&) = delete;
  SnapshotStorage& operator=(const SnapshotStorage&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Reads the whole file into a heap buffer.
  static Result<std::shared_ptr<SnapshotStorage>> ReadFile(
      const std::string& path);
  /// Memory-maps the file (read-only). Falls back to a checked error on
  /// platforms without mmap.
  static Result<std::shared_ptr<SnapshotStorage>> MapFile(
      const std::string& path);

 protected:
  SnapshotStorage() = default;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Execution knobs shared by the write and load paths.
struct SnapshotOptions {
  /// Pool for the per-section checksum / validation task groups; null
  /// selects the process-wide default pool.
  Scheduler* scheduler = nullptr;
};

/// Serializes `bundle` to `path`, replacing any existing file. Section
/// checksums run as task groups on the scheduler.
[[nodiscard]] Status WriteSnapshot(const IndexBundle& bundle, const std::string& path,
                     const SnapshotOptions& options = {});

/// Loads a snapshot onto the heap: the returned bundle owns every array and
/// does not reference the file after the call.
[[nodiscard]] Result<IndexBundle> ReadSnapshot(const std::string& path,
                                 const SnapshotOptions& options = {});

/// Opens a snapshot zero-copy: the file is mmapped, fixed-width arrays are
/// served directly from the mapping, and the bundle keeps the mapping alive.
[[nodiscard]] Result<IndexBundle> OpenSnapshot(const std::string& path,
                                 const SnapshotOptions& options = {});

/// Size in bytes the snapshot of `bundle` would occupy on disk (header,
/// section table, aligned payloads) — the on-disk counterpart of
/// IndexBundle::ApproxBytes.
size_t SnapshotBytes(const IndexBundle& bundle);

namespace internal {
/// The checksum protecting the header and section table. Exposed so
/// corruption tests can forge a self-consistent header (e.g. a wrong layout
/// with a matching checksum) and exercise the validation layers behind it.
uint64_t SnapshotChecksum(const uint8_t* data, size_t size);

/// Runs the full ReadSnapshot validation + materialization pipeline over an
/// in-memory byte buffer instead of a file. This is the fuzzing entry point:
/// harnesses feed arbitrary bytes here without touching the filesystem. The
/// buffer is copied; the returned bundle does not reference `data`.
Result<IndexBundle> LoadSnapshotFromBuffer(const uint8_t* data, size_t size,
                                           const SnapshotOptions& options = {});
}  // namespace internal

}  // namespace blend
