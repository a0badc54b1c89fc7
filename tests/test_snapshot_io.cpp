// Binary snapshot codec (io/snapshot.h): round trips, byte-determinism,
// and the corruption contract — a damaged file is rejected with a
// diagnostic, never a crash or a silent partial load.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.h"
#include "io/snapshot.h"
#include "io/snapshot_v3.h"
#include "query/snapshot.h"

namespace cloudmap {
namespace {

// A small snapshot exercising every section and optional field, built in
// deliberately non-canonical order so the tests also cover canonicalize().
RunSnapshot sample_snapshot() {
  RunSnapshot snap;
  snap.seed = 424242;
  snap.threads = 3;
  snap.subject = 0;  // kAmazon

  SnapshotSegment b;
  b.abi = Ipv4(10, 0, 0, 2);
  b.cbi = Ipv4(203, 0, 113, 9);
  b.prior_abi = Ipv4(10, 0, 0, 1);
  b.post_cbi = Ipv4(203, 0, 113, 10);
  b.first_round = 2;
  b.confirmation = Confirmation::kReachability;
  b.shifted = true;
  b.ixp = true;
  b.peer_asn = Asn{64512};
  b.peer_org = OrgId{7};
  b.group = 1;
  b.regions = {5, 1, 3};            // descending on purpose
  b.dest_slash24s = {0xCB007100u, 0xC0000200u};
  b.observations = 7;
  b.rounds_mask = 0b11;
  b.hop_density = 0.875;
  b.confidence = 0.625;

  SnapshotSegment a;
  a.abi = Ipv4(10, 0, 0, 1);
  a.cbi = Ipv4(198, 51, 100, 4);
  a.confirmation = Confirmation::kIxpClient;
  a.vpi = true;
  a.owner_hint = Asn{64500};
  a.observations = 1;
  a.rounds_mask = 0b01;
  a.hop_density = 1.0;
  a.confidence = 0.75;

  snap.segments = {b, a};  // reversed vs canonical (ABI, CBI) order

  snap.pins.push_back({0xCB007109u, 4, 1, 2, 1});
  snap.pins.push_back({0x0A000001u, 2, 0, 1, 0});
  snap.regional = {{0xC6336404u, 9}};
  snap.alias_sets = {{0xCB007109u, 0x0A000002u}};

  StageReport report;
  report.id = StageId::kRound1;
  report.threads = 3;
  report.workers = 2;
  report.wall_ms = 12.5;
  report.targets = 100;
  report.traceroutes = 99;
  report.probes = 1234;
  report.bgp_cache_hits = 7;
  report.bgp_cache_misses = 2;
  report.retries = 11;
  report.backoff_waits = 11;
  report.backoff_ticks = 704;
  report.recovered_targets = 5;
  report.worker_utilization = 0.75;
  report.tallies = {{"left_cloud", 42.0}};
  snap.stage_reports = {report};
  return snap;
}

std::string save_to_string(const RunSnapshot& snap) {
  std::ostringstream out;
  save_snapshot(out, snap);
  return out.str();
}

TEST(SnapshotIo, HandBuiltRoundTrip) {
  const RunSnapshot original = sample_snapshot();
  const std::string bytes = save_to_string(original);

  std::istringstream in(bytes);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  EXPECT_EQ(loaded->seed, 424242u);
  EXPECT_EQ(loaded->threads, 3);
  EXPECT_EQ(loaded->subject, 0);
  ASSERT_EQ(loaded->segments.size(), 2u);
  // Canonical order: ascending (ABI, CBI), so segment `a` comes first.
  EXPECT_EQ(loaded->segments[0].cbi, Ipv4(198, 51, 100, 4));
  EXPECT_TRUE(loaded->segments[0].vpi);
  EXPECT_EQ(loaded->segments[0].owner_hint, Asn{64500});
  const SnapshotSegment& seg = loaded->segments[1];
  EXPECT_EQ(seg.abi, Ipv4(10, 0, 0, 2));
  EXPECT_EQ(seg.prior_abi, Ipv4(10, 0, 0, 1));
  EXPECT_EQ(seg.post_cbi, Ipv4(203, 0, 113, 10));
  EXPECT_EQ(seg.first_round, 2);
  EXPECT_EQ(seg.confirmation, Confirmation::kReachability);
  EXPECT_TRUE(seg.shifted);
  EXPECT_TRUE(seg.ixp);
  EXPECT_FALSE(seg.vpi);
  EXPECT_EQ(seg.peer_asn, Asn{64512});
  EXPECT_EQ(seg.peer_org, OrgId{7});
  EXPECT_EQ(seg.group, 1);
  EXPECT_EQ(seg.regions, (std::vector<std::uint32_t>{1, 3, 5}));
  // Confidence fields round-trip bit for bit.
  EXPECT_EQ(loaded->segments[0].observations, 1u);
  EXPECT_EQ(loaded->segments[0].rounds_mask, 0b01u);
  EXPECT_DOUBLE_EQ(loaded->segments[0].hop_density, 1.0);
  EXPECT_DOUBLE_EQ(loaded->segments[0].confidence, 0.75);
  EXPECT_EQ(seg.observations, 7u);
  EXPECT_EQ(seg.rounds_mask, 0b11u);
  EXPECT_DOUBLE_EQ(seg.hop_density, 0.875);
  EXPECT_DOUBLE_EQ(seg.confidence, 0.625);
  ASSERT_EQ(loaded->pins.size(), 2u);
  EXPECT_EQ(loaded->pins[0].address, 0x0A000001u);  // sorted by address
  EXPECT_EQ(loaded->pins[1].metro, 4u);
  EXPECT_EQ(loaded->pins[1].rule, 1);
  EXPECT_EQ(loaded->pins[1].anchor_source, 2);
  ASSERT_EQ(loaded->regional.size(), 1u);
  EXPECT_EQ(loaded->regional[0].second, 9u);
  ASSERT_EQ(loaded->alias_sets.size(), 1u);
  EXPECT_EQ(loaded->alias_sets[0],
            (std::vector<std::uint32_t>{0x0A000002u, 0xCB007109u}));
  ASSERT_EQ(loaded->stage_reports.size(), 1u);
  EXPECT_EQ(loaded->stage_reports[0].id, StageId::kRound1);
  EXPECT_DOUBLE_EQ(loaded->stage_reports[0].wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(loaded->stage_reports[0].worker_utilization, 0.75);
  ASSERT_EQ(loaded->stage_reports[0].tallies.size(), 1u);
  EXPECT_EQ(loaded->stage_reports[0].tallies[0].first, "left_cloud");
  EXPECT_EQ(loaded->stage_reports[0].retries, 11u);
  EXPECT_EQ(loaded->stage_reports[0].backoff_ticks, 704u);
  EXPECT_EQ(loaded->stage_reports[0].recovered_targets, 5u);
}

// The saved sample with `size` bytes at offset `field` of the flat
// fabric's first segment record (io/snapshot_v3.h V3Segment) overwritten
// and the section CRC re-stamped, so only the blob validator can refuse it.
std::string forge_first_segment(std::size_t field, const void* value,
                                std::size_t size) {
  std::string bytes = save_to_string(sample_snapshot());
  // Section 7 is table entry 1; its payload starts at file offset 80, and
  // the directory's segments_off sits at blob offset 8.
  std::uint32_t segments_off = 0;
  std::memcpy(&segments_off, bytes.data() + 80 + 8, 4);
  std::memcpy(bytes.data() + 80 + segments_off + field, value, size);
  testfx::restamp_crc(bytes, 1);
  return bytes;
}

TEST(SnapshotIo, RejectsConfidenceOutOfRangeWithValidCrc) {
  const double bad_score = 2.0;
  const testfx::LoaderVerdicts v = testfx::both_loaders(
      forge_first_segment(offsetof(snapv3::V3Segment, confidence),
                          &bad_score, sizeof(bad_score)));
  EXPECT_FALSE(v.loaded);
  EXPECT_FALSE(v.mapped);
  EXPECT_NE(v.load_error.find("confidence out of"), std::string::npos)
      << v.load_error;
  EXPECT_EQ(v.map_error, v.load_error);
}

TEST(SnapshotIo, SaveLoadSaveIsByteIdentical) {
  const std::string first = save_to_string(sample_snapshot());
  std::istringstream in(first);
  const auto loaded = load_snapshot(in);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(save_to_string(*loaded), first);
}

TEST(SnapshotIo, EmptySnapshotRoundTrips) {
  const std::string bytes = save_to_string(RunSnapshot{});
  std::istringstream in(bytes);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->segments.empty());
  EXPECT_EQ(save_to_string(*loaded), bytes);
}

TEST(SnapshotIo, PipelineSnapshotRoundTrips) {
  const RunSnapshot& snap = testfx::small_pipeline().run_snapshot();
  ASSERT_FALSE(snap.segments.empty());
  ASSERT_FALSE(snap.stage_reports.empty());
  const std::string first = save_to_string(snap);
  std::istringstream in(first);
  std::string error;
  const auto loaded = load_snapshot(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->segments.size(), snap.segments.size());
  EXPECT_EQ(loaded->pins.size(), snap.pins.size());
  EXPECT_EQ(loaded->alias_sets.size(), snap.alias_sets.size());
  EXPECT_EQ(loaded->stage_reports.size(), snap.stage_reports.size());
  EXPECT_EQ(save_to_string(*loaded), first);
}

// --- corruption contract ---------------------------------------------------

std::optional<RunSnapshot> load_bytes(std::string bytes, std::string* error) {
  std::istringstream in(std::move(bytes));
  return load_snapshot(in, error);
}

TEST(SnapshotIo, RejectsBadMagic) {
  std::string bytes = save_to_string(sample_snapshot());
  bytes[0] = 'X';
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SnapshotIo, RejectsUnknownVersion) {
  // The retired layouts and any future one alike.
  for (const int version : {1, 2, kSnapshotFormatVersion + 1}) {
    std::string bytes = save_to_string(sample_snapshot());
    bytes[6] = static_cast<char>(version);
    std::string error;
    EXPECT_FALSE(load_bytes(bytes, &error).has_value()) << version;
    EXPECT_NE(error.find("version " + std::to_string(version)),
              std::string::npos)
        << error;
  }
}

TEST(SnapshotIo, CrcCatchesEveryPayloadByteFlip) {
  const std::string good = save_to_string(sample_snapshot());
  // Payloads start after the header and the section table; read the section
  // count from the file so the sweep covers every payload byte.
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, good.data() + 8, 4);
  const std::size_t payload_start = 12 + section_count * std::size_t{24};
  ASSERT_LT(payload_start, good.size());
  // Flip one bit of every payload byte in turn: each must be caught by the
  // section CRC (or a downstream range check), never crash, never load.
  for (std::size_t i = payload_start; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    std::string error;
    EXPECT_FALSE(load_bytes(bytes, &error).has_value())
        << "flip at byte " << i << " was accepted";
    EXPECT_FALSE(error.empty());
  }
}

// The CRC as a plain bytewise table loop, one lookup per byte: the oracle
// the eight-bytes-at-a-step snapshot_crc32 must agree with everywhere.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t size) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// Deterministic filler bytes (a 64-bit LCG's high byte).
std::vector<unsigned char> filler_bytes(std::size_t size) {
  std::vector<unsigned char> bytes(size);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (unsigned char& byte : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

TEST(SnapshotIo, Crc32MatchesKnownAnswersAndBytewiseLoop) {
  // The CRC-32 check value (the zlib/PKZIP parameters), and the empty input.
  const std::string check = "123456789";
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const unsigned char*>(
                               check.data()),
                           check.size()),
            0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const unsigned char*>(
                               check.data()),
                           0),
            0u);
  // Every length up to 300 from each of 8 start offsets: every tail length
  // behind the eight-byte steps, at every alignment.
  const std::vector<unsigned char> small = filler_bytes(300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 300; ++length)
      ASSERT_EQ(snapshot_crc32(small.data() + offset, length),
                bytewise_crc32(small.data() + offset, length))
          << "offset " << offset << " length " << length;
  // One buffer of a few MB, the size of a real snapshot section.
  const std::vector<unsigned char> big = filler_bytes((3u << 20) + 5);
  EXPECT_EQ(snapshot_crc32(big.data(), big.size()),
            bytewise_crc32(big.data(), big.size()));
}

TEST(SnapshotIo, RejectsTruncationAtEveryLength) {
  const std::string good = save_to_string(sample_snapshot());
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::string error;
    EXPECT_FALSE(load_bytes(good.substr(0, len), &error).has_value())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(SnapshotIo, RejectsTrailingGarbage) {
  std::string bytes = save_to_string(sample_snapshot());
  bytes += "extra";
  std::string error;
  EXPECT_FALSE(load_bytes(bytes, &error).has_value());
}

TEST(SnapshotIo, RejectsOutOfRangeEnumWithValidCrc) {
  const std::uint8_t bad_confirmation = 9;  // Confirmation only goes to 4
  const testfx::LoaderVerdicts v = testfx::both_loaders(
      forge_first_segment(offsetof(snapv3::V3Segment, confirmation),
                          &bad_confirmation, sizeof(bad_confirmation)));
  EXPECT_FALSE(v.loaded);
  EXPECT_FALSE(v.mapped);
  EXPECT_NE(v.load_error.find("bad confirmation"), std::string::npos)
      << v.load_error;
  EXPECT_EQ(v.map_error, v.load_error);
}

TEST(SnapshotIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "cloudmap_snapshot_test.snap";
  ASSERT_TRUE(save_snapshot_file(path, sample_snapshot()));
  std::string error;
  const auto loaded = load_snapshot_file(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->segments.size(), 2u);
  EXPECT_FALSE(load_snapshot_file(path + ".missing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cloudmap
