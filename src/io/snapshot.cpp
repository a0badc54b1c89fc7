// lint: hot-path
#include "io/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "io/snapshot_v3.h"
#include "io/wire.h"

namespace cloudmap {

namespace {

constexpr char kMagic[6] = {'C', 'M', 'S', 'N', 'A', 'P'};
constexpr std::size_t kHeaderSize = 6 + 2 + 4;
constexpr std::size_t kTableEntrySize = 4 + 8 + 8 + 4;

// Little-endian append helpers and the bounds-checked read cursor live in
// io/wire.h (shared with the v3 flat blob and the serve protocol). Each
// fixed-width field is appended in one capacity-checked call, and the
// encoders below reserve each section's exact payload size up front, so
// building a section performs no reallocation at all.
using wire::Cursor;
using wire::put_f64;
using wire::put_i32;
using wire::put_string;
using wire::put_u16;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

// --- section payloads -----------------------------------------------------

// Meta, zero-padded to 20 bytes: the flat payload that follows then lands
// at file offset 12 + n×24 + 20, a multiple of 8 for any section count n,
// and the mmap path casts it to its record structs in place.
std::string encode_meta(const RunSnapshot& s) {
  std::string out;
  put_u64(out, s.seed);
  put_i32(out, s.threads);
  put_u8(out, s.subject);
  out.append(7, '\0');
  return out;
}

// Optional hazard-provenance section (id 8): profile spec string + sorted
// name→double scorecard metrics. Only written when the profile is
// non-empty, so hazard-free snapshots keep their exact pre-hazard bytes.
std::string encode_hazard(const RunSnapshot& s) {
  std::string out;
  std::size_t payload = 4 + s.hazard_profile.size() + 4;
  for (const auto& [name, value] : s.hazard_metrics)
    payload += 4 + name.size() + 8;
  out.reserve(payload);
  put_string(out, s.hazard_profile);
  put_u32(out, static_cast<std::uint32_t>(s.hazard_metrics.size()));
  for (const auto& [name, value] : s.hazard_metrics) {
    put_string(out, name);
    put_f64(out, value);
  }
  return out;
}

// --- section decoders (each over its own bounds-checked cursor) -----------

// The meta payload is padded to 20 bytes for alignment; the reserved bytes
// must be zero so they stay available for future fields.
bool decode_meta(Cursor& in, SnapshotContainer& c) {
  c.seed = in.u64();
  c.threads = in.i32();
  c.subject = in.u8();
  for (int i = 0; i < 7; ++i)
    if (in.u8() != 0) return false;
  return in.at_end();
}

bool decode_hazard(Cursor& in, SnapshotContainer& c) {
  c.hazard_profile = in.str();
  // The writer omits the section for an empty profile; a present-but-empty
  // one would not re-save byte-identically, so it is malformed.
  if (c.hazard_profile.empty()) return false;
  // 12 = u32 name length (empty name) + f64 value.
  const std::uint32_t metric_count = wire::bounded_count(in, 12);
  for (std::uint32_t i = 0; i < metric_count && !in.failed; ++i) {
    std::string name = in.str();
    const double value = in.f64();
    c.hazard_metrics.emplace_back(std::move(name), value);
  }
  return in.at_end();
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::uint32_t snapshot_crc32(const unsigned char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void canonicalize(RunSnapshot& snapshot) {
  std::sort(snapshot.segments.begin(), snapshot.segments.end(),
            [](const SnapshotSegment& a, const SnapshotSegment& b) {
              if (a.abi != b.abi) return a.abi < b.abi;
              return a.cbi < b.cbi;
            });
  for (SnapshotSegment& seg : snapshot.segments) {
    std::sort(seg.regions.begin(), seg.regions.end());
    std::sort(seg.dest_slash24s.begin(), seg.dest_slash24s.end());
  }
  std::sort(snapshot.pins.begin(), snapshot.pins.end(),
            [](const SnapshotPin& a, const SnapshotPin& b) {
              return a.address < b.address;
            });
  std::sort(snapshot.regional.begin(), snapshot.regional.end());
  for (std::vector<std::uint32_t>& set : snapshot.alias_sets)
    std::sort(set.begin(), set.end());
  std::sort(snapshot.alias_sets.begin(), snapshot.alias_sets.end());
  std::sort(snapshot.stage_reports.begin(), snapshot.stage_reports.end(),
            [](const StageReport& a, const StageReport& b) {
              return stage_index(a.id) < stage_index(b.id);
            });
  for (StageReport& report : snapshot.stage_reports)
    std::sort(report.tallies.begin(), report.tallies.end());
  std::sort(snapshot.hazard_metrics.begin(), snapshot.hazard_metrics.end());
}

void save_snapshot(std::ostream& out, const RunSnapshot& snapshot) {
  RunSnapshot canonical = snapshot;
  canonicalize(canonical);

  struct Section {
    SnapshotSection id;
    std::string payload;
  };
  std::vector<Section> sections = {
      {SnapshotSection::kMeta, encode_meta(canonical)},
      {SnapshotSection::kFlatFabric, snapv3::encode_flat_fabric(canonical)},
  };
  if (!canonical.hazard_profile.empty())
    sections.push_back({SnapshotSection::kHazard, encode_hazard(canonical)});

  // Assemble header, table, and payloads into one buffer so the stream sees
  // a single write (the bytes are identical to writing section by section).
  std::size_t total = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& section : sections) total += section.payload.size();
  std::string file;
  file.reserve(total);
  file.append(kMagic, sizeof(kMagic));
  put_u16(file, kSnapshotFormatVersion);
  put_u32(file, static_cast<std::uint32_t>(sections.size()));
  std::uint64_t offset = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& section : sections) {
    put_u32(file, static_cast<std::uint32_t>(section.id));
    put_u64(file, offset);
    put_u64(file, section.payload.size());
    put_u32(file,
            snapshot_crc32(
                reinterpret_cast<const unsigned char*>(section.payload.data()),
                section.payload.size()));
    offset += section.payload.size();
  }
  for (const Section& section : sections) file.append(section.payload);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
}

bool save_snapshot_file(const std::string& path, const RunSnapshot& snapshot,
                        std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return fail(error, "cannot open " + path + " for writing");
  save_snapshot(out, snapshot);
  out.flush();
  if (!out) return fail(error, "write to " + path + " failed");
  return true;
}

std::optional<SnapshotContainer> parse_snapshot(const unsigned char* data,
                                                std::size_t size,
                                                std::string* error) {
  const auto reject = [&](const std::string& message)
      -> std::optional<SnapshotContainer> {
    fail(error, "snapshot: " + message);
    return std::nullopt;
  };

  if (size < kHeaderSize) return reject("file shorter than header");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    return reject("bad magic (not a cloudmap snapshot)");
  Cursor header{data, size, sizeof(kMagic)};
  const std::uint16_t version = header.u16();
  if (version != kSnapshotFormatVersion)
    return reject("unsupported format version " + std::to_string(version) +
                  " (only version " + std::to_string(kSnapshotFormatVersion) +
                  " is read)");
  const std::uint32_t section_count = header.u32();
  if (section_count > 1024) return reject("implausible section count");
  if (!header.need(std::size_t{section_count} * kTableEntrySize))
    return reject("truncated section table");

  SnapshotContainer out;
  bool seen[9] = {};
  // Every byte must be owned by the header, the table, or a payload: a file
  // with unaccounted trailing bytes would not re-save byte-identically.
  std::uint64_t end_of_payloads =
      kHeaderSize + std::uint64_t{section_count} * kTableEntrySize;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = header.u32();
    const std::uint64_t offset = header.u64();
    const std::uint64_t payload_size = header.u64();
    const std::uint32_t crc = header.u32();
    const std::string name = "section " + std::to_string(id);
    if (offset > size || payload_size > size - offset)
      return reject(name + " extends past end of file");
    end_of_payloads = std::max(end_of_payloads, offset + payload_size);
    if (snapshot_crc32(data + offset, payload_size) != crc)
      return reject(name + " CRC mismatch");
    if (id != 1 && id != 7 && id != 8) continue;  // unknown: forward compat
    if (seen[id]) return reject("duplicate " + name);
    seen[id] = true;
    Cursor body{data + offset, static_cast<std::size_t>(payload_size), 0};
    bool ok = false;
    switch (static_cast<SnapshotSection>(id)) {
      case SnapshotSection::kMeta: ok = decode_meta(body, out); break;
      case SnapshotSection::kFlatFabric: {
        if (offset % 8 != 0)
          return reject("flat fabric section is not 8-byte aligned");
        std::string flat_error;
        if (!snapv3::validate_flat_fabric(data + offset, body.size,
                                          &flat_error))
          return reject(flat_error);
        out.blob = data + offset;
        out.blob_size = body.size;
        ok = true;
        break;
      }
      case SnapshotSection::kHazard: ok = decode_hazard(body, out); break;
    }
    if (!ok)
      return reject(name + " is malformed (bad field or trailing bytes)");
  }
  if (!seen[1]) return reject("missing required section 1");
  if (!seen[7]) return reject("missing required section 7");
  if (end_of_payloads != size)
    return reject("trailing bytes past the last section");
  return out;
}

RunSnapshot decode_snapshot(const SnapshotContainer& container) {
  RunSnapshot snapshot;
  snapshot.seed = container.seed;
  snapshot.threads = container.threads;
  snapshot.subject = container.subject;
  snapv3::decode_flat_fabric(container.blob, snapshot);
  snapshot.hazard_profile = container.hazard_profile;
  snapshot.hazard_metrics = container.hazard_metrics;
  return snapshot;
}

std::optional<RunSnapshot> load_snapshot(std::istream& in,
                                         std::string* error) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  // An 8-aligned copy, so the flat fabric validates in place exactly as it
  // does inside a page-aligned mapping.
  std::vector<std::uint64_t> aligned((bytes.size() + 7) / 8);
  if (!bytes.empty()) std::memcpy(aligned.data(), bytes.data(), bytes.size());
  const std::optional<SnapshotContainer> container = parse_snapshot(
      reinterpret_cast<const unsigned char*>(aligned.data()), bytes.size(),
      error);
  if (!container) return std::nullopt;
  return decode_snapshot(*container);
}

std::optional<RunSnapshot> load_snapshot_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  return load_snapshot(in, error);
}

}  // namespace cloudmap
