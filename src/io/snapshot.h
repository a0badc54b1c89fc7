// Binary snapshot of a full pipeline run (query/snapshot.h): one file
// captures the annotated fabric, pinning, alias sets, and stage metrics,
// and serves queries straight out of a read-only mapping.
//
// Byte layout (all integers little-endian, fixed width; full spec in
// DESIGN.md §7 and §11):
//
//   header   magic "CMSNAP" (6 bytes) | u16 format version (= 3)
//            | u32 section count
//   table    section count × { u32 section id, u64 payload offset (from
//            file start), u64 payload size, u32 CRC-32 of the payload }
//   payloads concatenated in table order
//
// Sections (ids are stable; readers skip unknown ids so additive sections
// do not need a version bump): 1 meta (seed, threads, subject, zero-padded
// to 20 bytes), 7 flat fabric (io/snapshot_v3.h), 8 optional hazard
// provenance. The meta padding puts the flat payload at an 8-aligned file
// offset, where the mmap path (io/mapped_snapshot.h) casts its records in
// place. CRC-32 is the zlib polynomial (0xEDB88320), so
// tools/diff_snapshots.py verifies with Python's zlib.crc32.
//
// Versions 1 and 2 (the fabric as per-field sections 2–6) are refused with
// a diagnostic naming their version.
//
// One parser, parse_snapshot(), reads the container for both loaders — the
// copying load_snapshot() and the zero-copy MappedSnapshot::open() — so the
// CLI and the serve daemon accept exactly the same files.
//
// Determinism contract: save_snapshot() canonicalizes collection order, and
// every index array in the flat fabric derives deterministically from the
// canonical segments, so save → load → save produces byte-identical files
// (enforced in CI). A corrupted or truncated file is rejected with a
// diagnostic — never a crash or a silent partial load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/snapshot.h"

namespace cloudmap {

inline constexpr std::uint16_t kSnapshotFormatVersion = 3;

enum class SnapshotSection : std::uint32_t {
  kMeta = 1,
  kFlatFabric = 7,  // the zero-copy blob (io/snapshot_v3.h)
  // Optional hazard provenance (scenario/hazard.h): the profile spec string
  // plus name→double scorecard metrics. Written only when the snapshot
  // carries a non-empty profile.
  kHazard = 8,
};

// Serialize (canonicalizing collection order first; see query/snapshot.h).
void save_snapshot(std::ostream& out, const RunSnapshot& snapshot);
bool save_snapshot_file(const std::string& path, const RunSnapshot& snapshot,
                        std::string* error = nullptr);

// One parsed and fully validated snapshot file. `blob` points into the
// parsed bytes, so the container is only valid while they are.
struct SnapshotContainer {
  std::uint64_t seed = 0;
  std::int32_t threads = 0;
  std::uint8_t subject = 0;
  const unsigned char* blob = nullptr;  // flat fabric, 8-byte aligned
  std::size_t blob_size = 0;
  std::string hazard_profile;  // empty: no hazard section
  std::vector<std::pair<std::string, double>> hazard_metrics;
};

// Parse and validate a whole file held in memory at an 8-byte aligned
// `data`: magic, version, section-table bounds, every section CRC, the meta
// section, the 8-aligned flat fabric (snapv3::validate_flat_fabric), the
// hazard section, and that no byte trails the last payload. Returns
// nullopt (and a one-line diagnostic in *error, when given) on any
// violation.
std::optional<SnapshotContainer> parse_snapshot(const unsigned char* data,
                                                std::size_t size,
                                                std::string* error = nullptr);

// Copy a parsed container out into a RunSnapshot.
RunSnapshot decode_snapshot(const SnapshotContainer& container);

// parse_snapshot() + decode_snapshot() over a stream or a file.
std::optional<RunSnapshot> load_snapshot(std::istream& in,
                                         std::string* error = nullptr);
std::optional<RunSnapshot> load_snapshot_file(const std::string& path,
                                              std::string* error = nullptr);

// CRC-32 over a byte buffer: the zlib polynomial and values (zlib.crc32),
// computed eight bytes at a step. Exposed for tests.
std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size);

}  // namespace cloudmap
