// Format-v3 snapshot hardening: the flat blob round-trips byte-identically
// through save/load/save, the zero-copy loader (io/mapped_snapshot.h)
// rejects truncation, byte flips, and v1/v2 files, both loaders give the
// same verdict on every corpus file and forgery, and a FabricView over the
// mapping reports each segment as saved — without copying a byte out of
// the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fixtures.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "io/snapshot_v3.h"
#include "query/fabric_view.h"

namespace cloudmap {
namespace {

const RunSnapshot& shared_snapshot() {
  return testfx::small_pipeline().run_snapshot();
}

std::string v3_bytes() {
  std::ostringstream out;
  save_snapshot(out, shared_snapshot());
  return out.str();
}

// Writes `bytes` to a fresh temp file and returns its path.
std::string write_temp(const std::string& bytes, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(SnapshotV3, SaveLoadSaveIsByteIdentical) {
  const std::string first = v3_bytes();
  std::istringstream in(first);
  std::string error;
  const auto reloaded = load_snapshot(in, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  std::ostringstream out;
  save_snapshot(out, *reloaded);
  EXPECT_EQ(first, out.str());
}

TEST(SnapshotV3, DefaultSaveIsVersion3WithFlatSection) {
  const std::string bytes = v3_bytes();
  ASSERT_GT(bytes.size(), 80u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), 3u);  // version field
  // The flat blob starts at file offset 80 with the "CMF3" magic.
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data() + 80, sizeof(magic));
  EXPECT_EQ(magic, snapv3::kFlatFabricMagic);
}

TEST(SnapshotV3, MappedOpenExposesMetaAndValidBlob) {
  const std::string path = write_temp(v3_bytes(), "v3_meta.snap");
  std::string error;
  const auto mapped = MappedSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_EQ(mapped->container().seed, shared_snapshot().seed);
  EXPECT_EQ(mapped->container().threads, shared_snapshot().threads);
  EXPECT_EQ(mapped->container().subject,
            static_cast<std::uint8_t>(shared_snapshot().subject));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->blob()) % 8, 0u);
  EXPECT_TRUE(snapv3::validate_flat_fabric(mapped->blob(),
                                           mapped->blob_size(), &error))
      << error;
  std::remove(path.c_str());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

const std::filesystem::path kSnapshotCorpus =
    std::filesystem::path(CLOUDMAP_CORPUS_DIR) / "snapshot";

TEST(SnapshotV3, MappedOpenRejectsV1AndV2Files) {
  // Neither loader reads the retired layouts; both name the version.
  for (const int version : {1, 2}) {
    std::string name = "v";
    name += std::to_string(version);
    name += ".snap";
    const std::string bytes = read_file(kSnapshotCorpus / name);
    ASSERT_GT(bytes.size(), 7u);
    ASSERT_EQ(bytes[6], version);
    const testfx::LoaderVerdicts v = testfx::both_loaders(bytes);
    EXPECT_FALSE(v.loaded) << version;
    EXPECT_FALSE(v.mapped) << version;
    const std::string named = "version " + std::to_string(version);
    EXPECT_NE(v.load_error.find(named), std::string::npos) << v.load_error;
    EXPECT_NE(v.map_error.find(named), std::string::npos) << v.map_error;
  }
}

TEST(SnapshotV3, LoadersAgreeOnEveryCorpusFileAndForgery) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const auto& entry :
       std::filesystem::directory_iterator(kSnapshotCorpus))
    inputs.emplace_back(entry.path().filename().string(),
                        read_file(entry.path()));
  std::sort(inputs.begin(), inputs.end());
  for (const char* regress :
       {"regress-malformed-hazard.snap", "regress-duplicate-hazard.snap"})
    EXPECT_TRUE(std::any_of(
        inputs.begin(), inputs.end(),
        [&](const auto& input) { return input.first == regress; }))
        << regress << " missing from the corpus";

  // The flat section one byte further into the file, behind a gap byte:
  // every CRC still holds, but the blob is no longer 8-aligned.
  std::string odd = v3_bytes();
  ASSERT_EQ(static_cast<unsigned char>(odd[36]), 7u);  // table entry 1
  odd.insert(80, 1, '\0');
  const std::uint64_t odd_offset = 81;
  std::memcpy(odd.data() + 36 + 4, &odd_offset, 8);
  EXPECT_NE(testfx::both_loaders(odd).load_error.find("8-byte aligned"),
            std::string::npos);
  inputs.emplace_back("odd-offset flat section", odd);

  for (const auto& [name, bytes] : inputs) {
    const testfx::LoaderVerdicts v = testfx::both_loaders(bytes);
    EXPECT_EQ(v.loaded, v.mapped) << name << ": loader '" << v.load_error
                                  << "', mapper '" << v.map_error << "'";
    EXPECT_EQ(v.load_error, v.map_error) << name;
    // Seeds are valid files; regressions and retired layouts are not.
    const bool valid = name == "v3.snap" || name == "v3-hazard.snap" ||
                       name == "empty.snap";
    EXPECT_EQ(v.loaded, valid) << name << ": " << v.load_error;
  }
}

TEST(SnapshotV3, MappedOpenRejectsEveryTruncation) {
  const std::string good = v3_bytes();
  // Every prefix at a stride, plus all the header/table boundaries.
  std::vector<std::size_t> cuts = {0, 1, 6, 11, 12, 35, 59, 60, 79, 80,
                                   good.size() - 1};
  for (std::size_t cut = 81; cut < good.size(); cut += 97)
    cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    const std::string path =
        write_temp(good.substr(0, cut), "v3_trunc.snap");
    std::string error;
    EXPECT_FALSE(MappedSnapshot::open(path, &error).has_value())
        << "truncated at " << cut << " parsed";
    std::remove(path.c_str());
  }
}

TEST(SnapshotV3, MappedOpenRejectsByteFlipsEverywhere) {
  const std::string good = v3_bytes();
  // Flip every byte of the header and section table, then sweep the
  // payloads at a prime stride (CRC-32 catches any single-byte change, so
  // the stride only bounds runtime, not coverage class).
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 60 && i < good.size(); ++i) offsets.push_back(i);
  for (std::size_t i = 60; i < good.size(); i += 131) offsets.push_back(i);
  offsets.push_back(good.size() - 1);
  for (const std::size_t at : offsets) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    const std::string path = write_temp(bad, "v3_flip.snap");
    EXPECT_FALSE(MappedSnapshot::open(path).has_value())
        << "flip at byte " << at << " parsed";
    std::remove(path.c_str());
  }
}

TEST(SnapshotV3, ValidateRejectsBadDirectoryWithValidCrc) {
  // Corrupt the flat blob *before* the container CRC is computed, so the
  // file-level checks pass and only validate_flat_fabric stands between a
  // hostile directory and an out-of-bounds read.
  const std::string good = v3_bytes();
  const auto blob_size = static_cast<std::uint32_t>(good.size() - 80);
  auto rewrite_u32 = [&](std::size_t blob_off, std::uint32_t value) {
    std::vector<unsigned char> blob(good.begin() + 80, good.end());
    std::memcpy(blob.data() + blob_off, &value, sizeof(value));
    return blob;
  };
  // Directory fields (io/snapshot_v3.h): blob_size at 4, segments_off at 8,
  // segment_count at 12 — each rewritten to lie about the blob's bounds.
  const std::vector<std::vector<unsigned char>> bad_blobs = {
      rewrite_u32(4, blob_size + 8),   // directory blob_size too large
      rewrite_u32(8, blob_size),       // segments offset out of range
      rewrite_u32(12, 1u << 30),       // segment count overflows blob
  };
  for (std::size_t i = 0; i < bad_blobs.size(); ++i) {
    // Re-align: validate takes the blob directly, 8-aligned.
    std::vector<std::uint64_t> aligned((bad_blobs[i].size() + 7) / 8);
    std::memcpy(aligned.data(), bad_blobs[i].data(), bad_blobs[i].size());
    std::string error;
    EXPECT_FALSE(snapv3::validate_flat_fabric(
        reinterpret_cast<const unsigned char*>(aligned.data()),
        bad_blobs[i].size(), &error))
        << "bad directory " << i << " validated";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotV3, FabricViewSegmentMatchesSnapshotFieldByField) {
  const std::string path = write_temp(v3_bytes(), "v3_view.snap");
  std::string error;
  const auto mapped = MappedSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  const FabricView view(mapped->blob());
  const RunSnapshot& snap = shared_snapshot();

  ASSERT_EQ(view.segment_count(), snap.segments.size());
  for (std::uint32_t i = 0; i < view.segment_count(); ++i) {
    const SegmentFacts a = view.segment(i);
    const SnapshotSegment& b = snap.segments[i];
    EXPECT_EQ(a.abi, b.abi.value()) << i;
    EXPECT_EQ(a.cbi, b.cbi.value()) << i;
    EXPECT_EQ(a.peer_asn, b.peer_asn.value) << i;
    EXPECT_EQ(a.peer_org, b.peer_org.value) << i;
    EXPECT_EQ(a.confirmation, static_cast<std::uint8_t>(b.confirmation)) << i;
    EXPECT_EQ(a.group, b.group) << i;
    EXPECT_EQ(a.ixp, b.ixp) << i;
    EXPECT_EQ(a.vpi, b.vpi) << i;
    EXPECT_EQ(a.confidence, b.confidence) << i;
  }
  EXPECT_EQ(view.counts().pinned_interfaces, snap.pins.size());
  EXPECT_EQ(view.counts().regional_only, snap.regional.size());
  std::remove(path.c_str());
}

TEST(SnapshotV3, FabricViewIsZeroCopyIntoTheMapping) {
  const std::string path = write_temp(v3_bytes(), "v3_zero.snap");
  std::string error;
  const auto mapped = MappedSnapshot::open(path, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  const FabricView view(mapped->blob());
  const auto* lo = mapped->blob();
  const auto* hi = mapped->blob() + mapped->blob_size();

  // Every span the view hands out must point INTO the mapped file, not at
  // freshly allocated copies.
  auto in_mapping = [&](Span32 span) {
    if (span.empty()) return true;
    const auto* data = reinterpret_cast<const unsigned char*>(span.values);
    return data >= lo && data + span.count * sizeof(std::uint32_t) <= hi;
  };
  EXPECT_TRUE(in_mapping(view.asn_list()));
  EXPECT_TRUE(in_mapping(view.vpi_list()));
  EXPECT_TRUE(in_mapping(view.metro_list()));
  ASSERT_FALSE(view.asn_list().empty());
  EXPECT_TRUE(in_mapping(view.peer_segments(view.asn_list()[0])));
  const SegmentFacts facts = view.segment(0);
  const auto hit = view.find(Ipv4(facts.abi));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(in_mapping(hit->segments));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudmap
