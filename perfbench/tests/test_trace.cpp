// Self time, interval coverage and unattributed time of the span recorder.
#include <gtest/gtest.h>

#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  return Span{name, start, end, parent, 0};
}

TEST(CoveredNs, MergesOverlapsAndClips) {
  EXPECT_EQ(covered_ns({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(covered_ns({{0, 10}, {2, 4}}, 0, 100), 10);
  EXPECT_EQ(covered_ns({{-5, 5}, {95, 120}}, 0, 100), 10);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
}

TEST(SelfTime, SubtractsChildren) {
  const std::vector<Span> spans = {
      span("core.job", 0, 100, -1),
      span("infer.a", 10, 30, 0),
      span("infer.b", 40, 70, 0),
      span("io.c", 50, 60, 2),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 50);  // 100 - 20 - 30
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);  // 30 - 10
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children timed on two threads overlap; the parent loses their union.
  const std::vector<Span> spans = {
      span("serve.loop", 0, 100, -1),
      span("serve.rtt.lookup", 10, 60, 0),
      span("serve.rtt.counts", 40, 80, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 30);
}

TEST(SelfTime, ChildOutsideItsParentIsClipped) {
  const std::vector<Span> spans = {
      span("a.x", 0, 10, -1),
      span("b.y", 5, 20, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 5);
}

TEST(LayerOf, IsThePrefixBeforeTheFirstDot) {
  EXPECT_EQ(layer_of("infer.round1.merge"), "infer");
  EXPECT_EQ(layer_of("topology"), "topology");
}

TEST(Tracer, NestsSpansAndAggregatesLayers) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "core.outer", 7);
    { ScopedSpan inner(tracer, "io.inner"); }
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[0].request, 7u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  const auto layers = tracer.layer_self_seconds();
  EXPECT_EQ(layers.size(), 2u);
  EXPECT_GE(layers.at("core"), 0.0);
  EXPECT_GE(layers.at("io"), 0.0);
}

TEST(Tracer, UnattributedIsTheJobMinusRootSpans) {
  Tracer tracer(true);
  tracer.add("a.one", 10, 40, -1);
  tracer.add("a.child", 15, 20, 0);
  tracer.add("b.two", 30, 60, -1);
  EXPECT_DOUBLE_EQ(tracer.unattributed_seconds(0, 100), 50e-9);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan s(tracer, "core.x"); }
  tracer.add("core.y", 0, 1, -1);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Report, RefusesMalformedAndRepeatedNames) {
  Report report;
  report.metric("p50_us", 1.0, "us");
  EXPECT_THROW(report.metric("p50_us", 2.0, "us"), std::invalid_argument);
  EXPECT_THROW(report.metric("bad name", 2.0, "us"), std::invalid_argument);
  EXPECT_TRUE(report.correct());
  report.check_failed("example");
  EXPECT_FALSE(report.correct());
}

}  // namespace
}  // namespace perfbench
