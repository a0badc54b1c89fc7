// Shared, lazily-built test fixtures. World generation and full pipeline
// runs are the expensive part of the suite; building each once and sharing
// across test files keeps the suite fast without sacrificing integration
// coverage.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "query/fabric_view.h"
#include "topology/generator.h"

namespace cloudmap::testfx {

// A small world with every structural feature (seed-fixed).
inline const World& small_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::small();
    config.seed = 42;
    return generate_world(config);
  }();
  return world;
}

// A fully-run pipeline over the small world.
inline Pipeline& small_pipeline() {
  static Pipeline* pipeline = [] {
    auto* p = new Pipeline(small_world());
    p->run_all();
    return p;
  }();
  return *pipeline;
}

// The small pipeline's snapshot, saved and parsed in place from an 8-aligned
// buffer: the same blob a serve daemon maps from the file, held in memory so
// concurrently running test processes share no scratch file.
inline const FabricView& small_view() {
  static const FabricView* view = [] {
    std::ostringstream out;
    save_snapshot(out, small_pipeline().run_snapshot());
    const std::string bytes = out.str();
    auto* words = new std::vector<std::uint64_t>((bytes.size() + 7) / 8);
    std::memcpy(words->data(), bytes.data(), bytes.size());
    const auto file = parse_snapshot(
        reinterpret_cast<const unsigned char*>(words->data()), bytes.size());
    return new FabricView(file->blob);
  }();
  return *view;
}

// A paper-shape world (larger; used by the heavier integration tests).
inline const World& paper_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::paper_shape();
    config.seed = 1;
    return generate_world(config);
  }();
  return world;
}

inline Pipeline& paper_pipeline() {
  static Pipeline* pipeline = [] {
    auto* p = new Pipeline(paper_world());
    p->run_all();
    return p;
  }();
  return *pipeline;
}

// --- snapshot forgeries ------------------------------------------------------

// Re-stamp the CRC of section-table entry `entry` over its (possibly forged)
// payload, so a forgery passes the container checks and reaches the field
// validators behind them.
inline void restamp_crc(std::string& bytes, std::size_t entry) {
  const std::size_t at = 12 + entry * 24;  // header, then 24-byte entries
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::memcpy(&offset, bytes.data() + at + 4, 8);
  std::memcpy(&size, bytes.data() + at + 12, 8);
  const std::uint32_t crc = snapshot_crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()) + offset, size);
  std::memcpy(bytes.data() + at + 20, &crc, 4);
}

// Both loaders' verdicts on the same bytes: load_snapshot over a stream, and
// MappedSnapshot::open over a temp file private to the running test (ctest
// runs test cases as concurrent processes).
struct LoaderVerdicts {
  bool loaded = false;
  bool mapped = false;
  std::string load_error;
  std::string map_error;
};

inline LoaderVerdicts both_loaders(const std::string& bytes) {
  LoaderVerdicts v;
  std::istringstream in(bytes);
  v.loaded = load_snapshot(in, &v.load_error).has_value();
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "verdict_" +
                           test->test_suite_name() + "_" + test->name() +
                           ".snap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  v.mapped = MappedSnapshot::open(path, &v.map_error).has_value();
  std::remove(path.c_str());
  return v;
}

}  // namespace cloudmap::testfx
