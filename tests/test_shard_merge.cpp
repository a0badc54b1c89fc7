// The sharded-campaign determinism invariant (io/shard.h): splitting the
// campaign across N shard processes and merging their parts produces a
// snapshot byte-identical to a single-process run, at any shard count and
// any thread count — plus the merge-side rejection of truncated, duplicate,
// and inconsistent parts.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fixtures.h"
#include "io/shard.h"
#include "io/snapshot.h"

namespace cloudmap {
namespace {

constexpr std::uint64_t kDigest = 0x5EEDD16E57ull;

PipelineOptions shard_test_options(int threads) {
  PipelineOptions options;
  // Byte-identity is asserted on snapshot files, so every wall-clock and
  // execution-environment metrics field must be normalized away.
  options.deterministic_metrics = true;
  options.campaign.threads = threads;
  return options;
}

// Run one round's shard process in-process: probe the owned work items and
// stream them to a part file, exactly like `cloudmap_cli campaign --shard`.
void run_shard_round(const World& world, const PipelineOptions& base,
                     int round, int index, int count,
                     const std::string& prefix) {
  PipelineOptions options = base;
  options.campaign.shard_index = index;
  options.campaign.shard_count = count;
  Pipeline pipeline(world, options);
  Campaign& campaign = pipeline.mutable_campaign();

  if (round == 2) {
    // Round 2 derives targets from the round-1 fabric: absorb the merged
    // round-1 parts first, as every shard process does.
    std::vector<std::string> paths;
    for (int s = 0; s < count; ++s)
      paths.push_back(shard_part_path(prefix, 1, s, count));
    ShardMerge merged;
    std::string error;
    ASSERT_TRUE(merged.open(paths, &error)) << error;
    campaign.absorb_round1(
        [&merged](Campaign::SweepChunkResult& r) { return merged.next(r); });
  }

  Annotator annotator = pipeline.annotator();
  annotator.set_snapshot(round == 1 ? &pipeline.snapshot_round1()
                                    : &pipeline.snapshot_round2());
  const std::vector<Ipv4> targets =
      round == 1 ? campaign.round1_targets() : campaign.expansion_targets();

  ShardPartHeader header;
  header.config_digest = kDigest;
  header.round = static_cast<std::uint32_t>(round);
  header.shard_index = static_cast<std::uint32_t>(index);
  header.shard_count = static_cast<std::uint32_t>(count);
  header.total_items = campaign.sweep_item_count(targets.size());
  header.target_count = targets.size();

  ShardPartWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(shard_part_path(prefix, round, index, count),
                          header, &error))
      << error;
  const Campaign::ShardSink sink =
      [&](std::uint64_t item, const Campaign::SweepChunkResult& result) {
        EXPECT_TRUE(writer.append(item, result, &error)) << error;
      };
  if (round == 1)
    campaign.run_round1_shard(annotator, sink);
  else
    campaign.run_round2_shard(annotator, sink);
  ASSERT_TRUE(writer.finish(&error)) << error;
}

std::vector<std::string> part_paths(const std::string& prefix, int round,
                                    int count) {
  std::vector<std::string> paths;
  for (int s = 0; s < count; ++s)
    paths.push_back(shard_part_path(prefix, round, s, count));
  return paths;
}

// The whole protocol: N round-1 shards, N round-2 shards, one merge process
// running the remaining stages. Returns the merged snapshot's bytes.
std::string sharded_snapshot_bytes(const World& world, int count, int threads,
                                   const std::string& prefix) {
  const PipelineOptions base = shard_test_options(threads);
  for (int i = 0; i < count; ++i)
    run_shard_round(world, base, 1, i, count, prefix);
  for (int i = 0; i < count; ++i)
    run_shard_round(world, base, 2, i, count, prefix);

  ShardMerge round1_parts;
  ShardMerge round2_parts;
  std::string error;
  EXPECT_TRUE(round1_parts.open(part_paths(prefix, 1, count), &error))
      << error;
  EXPECT_TRUE(round2_parts.open(part_paths(prefix, 2, count), &error))
      << error;
  Pipeline merged(world, shard_test_options(threads));
  merged.set_absorb_sources(
      [&round1_parts](Campaign::SweepChunkResult& r) {
        return round1_parts.next(r);
      },
      [&round2_parts](Campaign::SweepChunkResult& r) {
        return round2_parts.next(r);
      });
  std::ostringstream out;
  save_snapshot(out, merged.run_snapshot());
  return out.str();
}

std::string single_process_snapshot_bytes(const World& world, int threads) {
  Pipeline pipeline(world, shard_test_options(threads));
  std::ostringstream out;
  save_snapshot(out, pipeline.run_snapshot());
  return out.str();
}

// The tentpole invariant, the full matrix the issue names: shards in
// {1, 2, 4} × threads in {1, 4}, every combination byte-identical to the
// single-process single-threaded snapshot.
TEST(ParallelCampaignShard, MergedSnapshotMatchesSingleProcessByteForByte) {
  const World& world = testfx::small_world();
  const std::string baseline = single_process_snapshot_bytes(world, 1);
  ASSERT_FALSE(baseline.empty());
  // Thread-count identity of the single-process path (the normalized stage
  // metrics are what make this hold for snapshot BYTES, not just results).
  EXPECT_EQ(single_process_snapshot_bytes(world, 4), baseline);

  for (const int count : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      const std::string prefix = testing::TempDir() + "shardcamp_n" +
                                 std::to_string(count) + "_t" +
                                 std::to_string(threads);
      const std::string merged =
          sharded_snapshot_bytes(world, count, threads, prefix);
      EXPECT_EQ(merged, baseline)
          << "sharded run diverged at " << count << " shards, " << threads
          << " threads";
    }
  }
}

// --- merge-side rejection ------------------------------------------------

// Produce a valid 2-shard round-1 part set once for the rejection tests.
// Each case writes under its own prefix: ctest runs the cases as concurrent
// processes, and a shared prefix lets one case rewrite another's part files
// while that case reads them.
class ShardMergeRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = testing::TempDir() + "shardrej_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const World& world = testfx::small_world();
    const PipelineOptions base = shard_test_options(1);
    run_shard_round(world, base, 1, 0, 2, prefix_);
    run_shard_round(world, base, 1, 1, 2, prefix_);
  }
  std::string prefix_;
};

TEST_F(ShardMergeRejection, DuplicatePartIsRejected) {
  const std::string part0 = shard_part_path(prefix_, 1, 0, 2);
  ShardMerge merge;
  std::string error;
  EXPECT_FALSE(merge.open({part0, part0}, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST_F(ShardMergeRejection, MissingPartIsRejected) {
  ShardMerge merge;
  std::string error;
  // One part of a two-shard set: the declared shard count disagrees with
  // the number of parts offered.
  EXPECT_FALSE(merge.open({shard_part_path(prefix_, 1, 0, 2)}, &error));
  EXPECT_NE(error.find("declare"), std::string::npos) << error;
}

TEST_F(ShardMergeRejection, UnfinishedPartIsRejected) {
  // A part whose writer never ran finish() keeps record_count = 0 in the
  // header (with the CRC the writer stamped at open) — the coverage check
  // must refuse it up front.
  const std::string path = shard_part_path(prefix_, 1, 0, 2);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 56u);
  for (std::size_t i = 44; i < 52; ++i) bytes[i] = '\0';  // record count
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()), 52);
  for (std::size_t i = 0; i < 4; ++i)
    bytes[52 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  const std::string broken = prefix_ + ".unfinished.part";
  std::ofstream out(broken, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  ShardMerge merge;
  std::string error;
  EXPECT_FALSE(
      merge.open({broken, shard_part_path(prefix_, 1, 1, 2)}, &error));
  EXPECT_NE(error.find("truncated or unfinished"), std::string::npos)
      << error;
}

TEST_F(ShardMergeRejection, TruncatedPartFailsWithDiagnostic) {
  // Chop the tail off a finished part: the header still promises the full
  // record count, so the failure surfaces as a mid-stream read error with
  // the part path and record position in the message.
  const std::string path = shard_part_path(prefix_, 1, 1, 2);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 100u);
  bytes.resize(bytes.size() - 37);
  const std::string broken = prefix_ + ".truncated.part";
  std::ofstream out(broken, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  ShardMerge merge;
  std::string error;
  ASSERT_TRUE(
      merge.open({shard_part_path(prefix_, 1, 0, 2), broken}, &error))
      << error;
  Campaign::SweepChunkResult result;
  try {
    while (merge.next(result)) {
    }
    FAIL() << "truncated part was consumed without a diagnostic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(broken), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardMergeRejection, CorruptRecordFailsCrc) {
  const std::string path = shard_part_path(prefix_, 1, 0, 2);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 80u);
  bytes[70] = static_cast<char>(bytes[70] ^ 0x40);  // flip a payload bit
  const std::string broken = prefix_ + ".corrupt.part";
  std::ofstream out(broken, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  ShardPartReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(broken, &error)) << error;
  std::uint64_t item = 0;
  Campaign::SweepChunkResult result;
  try {
    while (reader.next(item, result)) {
    }
    FAIL() << "corrupt record passed CRC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardMergeRejection, MismatchedHeadersAreRejected) {
  // A round-2 part offered alongside a round-1 part: same digest, same
  // world — still refused, the headers disagree.
  const World& world = testfx::small_world();
  run_shard_round(world, shard_test_options(1), 2, 0, 2, prefix_);
  ShardMerge merge;
  std::string error;
  EXPECT_FALSE(merge.open({shard_part_path(prefix_, 1, 0, 2),
                           shard_part_path(prefix_, 2, 0, 2)},
                          &error));
  EXPECT_NE(error.find("disagrees"), std::string::npos) << error;
}

}  // namespace
}  // namespace cloudmap
