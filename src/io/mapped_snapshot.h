// Zero-copy loader for snapshot files: mmap the file read-only, run the
// same container parser as the copying loader (parse_snapshot in
// io/snapshot.h, which also validates the flat-fabric blob), then hand out
// a pointer straight into the mapping. Nothing per-segment is decoded or
// allocated — a FabricView (query/fabric_view.h) built over blob() serves
// queries out of the page cache, which is what makes daemon hot-swaps
// cheap: opening a new snapshot costs one validation pass, not a rebuild.
//
// The parser requires the blob at an 8-aligned file offset and the mapping
// itself is page-aligned, so the in-place record casts in V3View are always
// aligned.
//
// The object owns the mapping: move-only, unmapped on destruction. Keep it
// alive as long as any view into blob() is in use (serve/server.h bundles
// the two in one ServedSnapshot for exactly this reason).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "io/snapshot.h"

namespace cloudmap {

class MappedSnapshot {
 public:
  // Map and parse `path`. Returns nullopt (and a one-line diagnostic in
  // *error, when given) if the file cannot be mapped or parse_snapshot
  // refuses it.
  static std::optional<MappedSnapshot> open(const std::string& path,
                                            std::string* error = nullptr);

  MappedSnapshot() = default;
  ~MappedSnapshot();
  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  // The parsed file: run meta, hazard provenance, and the blob location.
  const SnapshotContainer& container() const { return container_; }
  // The validated flat-fabric blob inside the mapping (8-byte aligned).
  const unsigned char* blob() const { return container_.blob; }
  std::size_t blob_size() const { return container_.blob_size; }

 private:
  void reset() noexcept;

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  SnapshotContainer container_;
};

}  // namespace cloudmap
