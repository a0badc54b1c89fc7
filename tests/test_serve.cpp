// The serve daemon end to end (src/serve/): the frame codec round-trips and
// rejects every single-byte corruption (the same sweep contract as
// tests/test_serialize_corrupt.cpp and the snapshot container), the payload
// codecs are lossless for every QueryResponse shape, a loopback server
// answers each query class identically to a local engine, refuses clients
// past max_clients, and — the RCU claim — hot-swaps snapshots under
// concurrent load with zero dropped or torn queries. Suite name matches the
// CI TSan filter, so the reader/swapper races here run under the sanitizer.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "io/snapshot.h"
#include "query/engine.h"
#include "query/request.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace cloudmap {
namespace {

// Save a pipeline snapshot (format v3) to a temp file, returning the path.
std::string write_snapshot(Pipeline& pipeline, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  save_snapshot(out, pipeline.run_snapshot());
  return path;
}

// --- frame codec -----------------------------------------------------------

TEST(Serve, FrameRoundTripsEveryType) {
  for (const serve::MsgType type :
       {serve::MsgType::kQuery, serve::MsgType::kSwap, serve::MsgType::kPing,
        serve::MsgType::kStats, serve::MsgType::kStop, serve::MsgType::kReply,
        serve::MsgType::kError}) {
    const std::string payload = "payload for type " +
                                std::to_string(static_cast<int>(type));
    std::string wire;
    serve::encode_frame(wire, type, payload);
    serve::Frame frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(serve::decode_frame(
                  reinterpret_cast<const unsigned char*>(wire.data()),
                  wire.size(), frame, consumed, &error),
              serve::FrameStatus::kOk)
        << error;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(Serve, FrameDecodeIsIncrementalOnPartialInput) {
  std::string wire;
  serve::encode_frame(wire, serve::MsgType::kQuery, "hello");
  serve::Frame frame;
  std::size_t consumed = 0;
  for (std::size_t cut = 0; cut < wire.size(); ++cut)
    EXPECT_EQ(serve::decode_frame(
                  reinterpret_cast<const unsigned char*>(wire.data()), cut,
                  frame, consumed, nullptr),
              serve::FrameStatus::kIncomplete)
        << "prefix of " << cut << " bytes";
  // Two frames back to back decode one at a time.
  std::string two = wire;
  serve::encode_frame(two, serve::MsgType::kPing, "");
  ASSERT_EQ(serve::decode_frame(
                reinterpret_cast<const unsigned char*>(two.data()), two.size(),
                frame, consumed, nullptr),
            serve::FrameStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.payload, "hello");
}

TEST(Serve, FrameCrcCatchesEveryByteFlip) {
  std::string wire;
  serve::encode_frame(wire, serve::MsgType::kQuery,
                      "the quick brown fox jumps over the lazy dog");
  for (std::size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    serve::Frame frame;
    std::size_t consumed = 0;
    std::string error;
    const serve::FrameStatus status = serve::decode_frame(
        reinterpret_cast<const unsigned char*>(bad.data()), bad.size(), frame,
        consumed, &error);
    // A flip in the length prefix may also present as a short read
    // (kIncomplete); anything that decodes as a whole frame must be caught
    // by the CRC.
    EXPECT_NE(status, serve::FrameStatus::kOk) << "flip at byte " << at;
  }
}

TEST(Serve, FrameRejectsAbsurdLength) {
  // length = 256 MiB: refused before any allocation.
  const unsigned char wire[] = {0x00, 0x00, 0x00, 0x10, 0x01};
  serve::Frame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(serve::decode_frame(wire, sizeof(wire), frame, consumed, &error),
            serve::FrameStatus::kCorrupt);
  EXPECT_FALSE(error.empty());
}

// --- payload codecs --------------------------------------------------------

TEST(Serve, QueryRequestPayloadRoundTrips) {
  QueryRequest request;
  request.kind = QueryKind::kPeersOf;
  request.asn = 64512;
  request.metro = 7;
  request.address = 0x0A000001u;
  request.min_confidence = 0.625;
  request.want_briefs = true;
  QueryRequest reread;
  ASSERT_TRUE(serve::decode_query_request(serve::encode_query_request(request),
                                          reread));
  EXPECT_EQ(reread.kind, request.kind);
  EXPECT_EQ(reread.asn, request.asn);
  EXPECT_EQ(reread.metro, request.metro);
  EXPECT_EQ(reread.address, request.address);
  EXPECT_DOUBLE_EQ(reread.min_confidence, request.min_confidence);
  EXPECT_EQ(reread.want_briefs, request.want_briefs);

  EXPECT_FALSE(serve::decode_query_request("short", reread));
}

TEST(Serve, QueryResponsePayloadRoundTripsEveryShape) {
  // One response per kind, served by a real engine so every optional
  // section (counts, histogram, briefs, lookup fields) is exercised.
  const FabricView& view = testfx::small_view();
  const QueryEngine engine(view);
  std::vector<QueryRequest> requests(kQueryKindCount);
  for (std::uint8_t k = 0; k < kQueryKindCount; ++k) {
    requests[k].kind = static_cast<QueryKind>(k);
    requests[k].want_briefs = true;
  }
  ASSERT_FALSE(view.asn_list().empty());
  requests[static_cast<int>(QueryKind::kPeersOf)].asn = view.asn_list()[0];
  requests[static_cast<int>(QueryKind::kLookup)].address = view.segment(0).abi;
  requests[static_cast<int>(QueryKind::kMinConfidence)].min_confidence = 0.5;

  for (const QueryRequest& request : requests) {
    const QueryResponse response = engine.execute(request);
    QueryResponse reread;
    ASSERT_TRUE(serve::decode_query_response(
        serve::encode_query_response(response), reread))
        << static_cast<int>(request.kind);
    EXPECT_EQ(reread.status, response.status);
    EXPECT_EQ(reread.kind, response.kind);
    EXPECT_EQ(reread.error, response.error);
    EXPECT_EQ(reread.items, response.items);
    ASSERT_EQ(reread.briefs.size(), response.briefs.size());
    for (std::size_t i = 0; i < reread.briefs.size(); ++i) {
      EXPECT_EQ(reread.briefs[i].index, response.briefs[i].index);
      EXPECT_EQ(reread.briefs[i].abi, response.briefs[i].abi);
      EXPECT_EQ(reread.briefs[i].peer_asn, response.briefs[i].peer_asn);
      EXPECT_DOUBLE_EQ(reread.briefs[i].confidence,
                       response.briefs[i].confidence);
    }
    ASSERT_EQ(reread.counts.has_value(), response.counts.has_value());
    if (response.counts) {
      EXPECT_EQ(reread.counts->segments, response.counts->segments);
      EXPECT_EQ(reread.counts->by_confirmation,
                response.counts->by_confirmation);
      EXPECT_EQ(reread.counts->group_segments, response.counts->group_segments);
    }
    ASSERT_EQ(reread.histogram.has_value(), response.histogram.has_value());
    if (response.histogram) {
      EXPECT_EQ(reread.histogram->bins, response.histogram->bins);
      EXPECT_DOUBLE_EQ(reread.histogram->mean, response.histogram->mean);
    }
    EXPECT_EQ(reread.found, response.found);
    EXPECT_EQ(reread.prefix_network, response.prefix_network);
    EXPECT_EQ(reread.prefix_length, response.prefix_length);
    EXPECT_EQ(reread.is_interface, response.is_interface);
    EXPECT_EQ(reread.role_abi, response.role_abi);
    EXPECT_EQ(reread.role_cbi, response.role_cbi);
  }
}

TEST(Serve, StatsAndTextPayloadsRoundTrip) {
  serve::ServerStats stats;
  stats.served = 12345678901ull;
  stats.failed = 7;
  stats.swaps = 42;
  stats.clients = 3;
  serve::ServerStats reread;
  ASSERT_TRUE(serve::decode_stats(serve::encode_stats(stats), reread));
  EXPECT_EQ(reread.served, stats.served);
  EXPECT_EQ(reread.failed, stats.failed);
  EXPECT_EQ(reread.swaps, stats.swaps);
  EXPECT_EQ(reread.clients, stats.clients);
  EXPECT_FALSE(serve::decode_stats("xx", reread));

  std::string text;
  ASSERT_TRUE(serve::decode_text(serve::encode_text("/path/to/b.snap"), text));
  EXPECT_EQ(text, "/path/to/b.snap");
  ASSERT_TRUE(serve::decode_text(serve::encode_text(""), text));
  EXPECT_TRUE(text.empty());
  EXPECT_FALSE(serve::decode_text("\xff\xff\xff\xff", text));
}

// --- loopback server -------------------------------------------------------

TEST(Serve, LoopbackServerAnswersEveryQueryClass) {
  const std::string path =
      write_snapshot(testfx::small_pipeline(), "serve_loop.snap");
  serve::Server server({/*port=*/0, /*max_clients=*/8});
  std::string error;
  ASSERT_TRUE(server.start(path, &error)) << error;

  auto client = serve::Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(client.has_value()) << error;
  EXPECT_TRUE(client->ping(&error)) << error;

  // Remote answers must equal local ones over the same snapshot.
  const FabricView& view = testfx::small_view();
  const QueryEngine local(view);
  for (std::uint8_t k = 0; k < kQueryKindCount; ++k) {
    QueryRequest request;
    request.kind = static_cast<QueryKind>(k);
    request.want_briefs = true;
    if (request.kind == QueryKind::kPeersOf)
      request.asn = view.asn_list()[0];
    if (request.kind == QueryKind::kLookup)
      request.address = view.segment(0).abi;
    if (request.kind == QueryKind::kMinConfidence)
      request.min_confidence = 0.5;
    QueryResponse remote;
    ASSERT_TRUE(client->query(request, remote, &error))
        << error << " kind " << static_cast<int>(k);
    const QueryResponse expected = local.execute(request);
    EXPECT_EQ(remote.status, QueryStatus::kOk);
    EXPECT_EQ(remote.items, expected.items) << "kind " << static_cast<int>(k);
    EXPECT_EQ(remote.briefs.size(), expected.briefs.size());
    if (expected.counts) {
      ASSERT_TRUE(remote.counts.has_value());
      EXPECT_EQ(remote.counts->segments, expected.counts->segments);
    }
  }

  serve::ServerStats stats;
  ASSERT_TRUE(client->stats(stats, &error)) << error;
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.served, static_cast<std::uint64_t>(kQueryKindCount));
  EXPECT_TRUE(client->stop_server(&error)) << error;
  server.stop();
  std::remove(path.c_str());
}

TEST(Serve, ServerRefusesClientsPastMaxAndSurfacesErrors) {
  const std::string path =
      write_snapshot(testfx::small_pipeline(), "serve_full.snap");
  serve::Server server({/*port=*/0, /*max_clients=*/1});
  std::string error;
  ASSERT_TRUE(server.start(path, &error)) << error;

  auto first = serve::Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(first.has_value()) << error;
  ASSERT_TRUE(first->ping(&error)) << error;  // fully admitted

  // The second connection is refused with a kError frame.
  auto second = serve::Client::connect("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(second.has_value()) << error;  // TCP connects...
  QueryResponse response;
  QueryRequest request;
  EXPECT_FALSE(second->query(request, response, &error));  // ...then refused
  EXPECT_NE(error.find("full"), std::string::npos) << error;

  // A swap to a nonexistent path fails loudly but keeps serving.
  EXPECT_FALSE(first->swap("/nonexistent/no.snap", &error));
  EXPECT_TRUE(first->query(request, response, &error)) << error;
  EXPECT_EQ(response.status, QueryStatus::kOk);
  server.stop();
  std::remove(path.c_str());
}

TEST(Serve, ManyShortLivedConnectionsKeepStateBounded) {
  // Regression: the daemon used to push one thread object and one fd entry
  // per connection, never reclaimed, so a churny client population grew the
  // server's bookkeeping without bound. Slots are now reused: cycling far
  // more connections than max_clients must leave at most max_clients slots.
  const std::string path =
      write_snapshot(testfx::small_pipeline(), "serve_churn.snap");
  constexpr int kMaxClients = 4;
  constexpr int kConnections = 60;
  serve::Server server({/*port=*/0, /*max_clients=*/kMaxClients});
  std::string error;
  ASSERT_TRUE(server.start(path, &error)) << error;

  for (int i = 0; i < kConnections; ++i) {
    auto client = serve::Client::connect("127.0.0.1", server.port(), &error);
    ASSERT_TRUE(client.has_value()) << error << " connection " << i;
    ASSERT_TRUE(client->ping(&error)) << error << " connection " << i;
    // client destructor closes the connection; the serving thread finishes
    // and its slot becomes reusable.
  }

  EXPECT_LE(server.client_slots(), static_cast<std::size_t>(kMaxClients))
      << "per-connection state grew with connection count";
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 0u);
  server.stop();
  std::remove(path.c_str());
}

// --- hot swap under load ---------------------------------------------------

TEST(Serve, HotSwapUnderLoadDropsNothing) {
  // Two snapshots with different content; readers hammer the server while
  // the main thread swaps back and forth. Every reply must be internally
  // consistent with exactly one of the two snapshots — never torn, never
  // failed. TSan (CI filter "Serve") checks the swap itself for races.
  Pipeline& pipeline_a = testfx::small_pipeline();
  GeneratorConfig config = GeneratorConfig::small();
  config.seed = 43;
  const World world_b = generate_world(config);
  Pipeline pipeline_b(world_b);
  pipeline_b.run_all();
  const std::string path_a = write_snapshot(pipeline_a, "serve_swap_a.snap");
  const std::string path_b = write_snapshot(pipeline_b, "serve_swap_b.snap");

  const std::size_t segments_a =
      pipeline_a.run_snapshot().segments.size();
  const std::size_t segments_b =
      pipeline_b.run_snapshot().segments.size();
  ASSERT_NE(segments_a, segments_b)
      << "worlds too similar to distinguish snapshots";

  serve::Server server({/*port=*/0, /*max_clients=*/8});
  std::string error;
  ASSERT_TRUE(server.start(path_a, &error)) << error;

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 60;
  std::array<std::uint64_t, kReaders> failures{};
  std::vector<std::thread> readers;  // lint: thread-ok(test)
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {  // lint: thread-ok(test)
      std::string reader_error;
      auto client =
          serve::Client::connect("127.0.0.1", server.port(), &reader_error);
      if (!client) {
        failures[r] = kQueriesPerReader;
        return;
      }
      for (int i = 0; i < kQueriesPerReader; ++i) {
        QueryRequest request;
        request.kind = QueryKind::kCounts;
        QueryResponse response;
        if (!client->query(request, response, &reader_error) ||
            response.status != QueryStatus::kOk || !response.counts) {
          ++failures[r];
          continue;
        }
        // The reply must match one snapshot exactly: a torn read across a
        // swap would show a segment count from neither.
        const std::size_t got = response.counts->segments;
        if (got != segments_a && got != segments_b) ++failures[r];
      }
    });
  }

  std::string swap_error;
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(server.swap(s % 2 == 0 ? path_b : path_a, &swap_error))
        << swap_error;
  }
  for (std::thread& reader : readers) reader.join();

  for (int r = 0; r < kReaders; ++r)
    EXPECT_EQ(failures[r], 0u) << "reader " << r;
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.swaps, 6u);
  EXPECT_EQ(stats.served,
            static_cast<std::uint64_t>(kReaders) * kQueriesPerReader);
  server.stop();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace cloudmap
