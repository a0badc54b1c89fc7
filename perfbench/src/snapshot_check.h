// The output check on a written snapshot file, shared by every workload
// that writes one: full v3 validation, byte-stable reload, and a digest of
// the result sections.
#pragma once

#include <cstddef>
#include <string>

namespace cloudmap {
struct RunSnapshot;
}

namespace perfbench {

// FNV-1a over the result sections of a snapshot (segments, pins, regional
// pins, alias sets), as 16 hex digits; stage metrics hold wall times and
// are left out, so two runs of the same job give the same digest.
std::string result_digest(const cloudmap::RunSnapshot& snap);

// Opens `path` with MappedSnapshot::open (full v3 validation), reloads it
// with load_snapshot_file and requires the re-encoded bytes to equal the
// file. Returns the result digest and, when asked, the segment count;
// throws std::runtime_error on any failure.
std::string check_snapshot_file(const std::string& path,
                                std::size_t* segments = nullptr);

}  // namespace perfbench
