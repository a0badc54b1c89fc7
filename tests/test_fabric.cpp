// Fabric: segment dedup, adjacency tracking, shift/advance edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "infer/fabric.h"
#include "util/rng.h"

namespace cloudmap {
namespace {

CandidateSegment make_candidate(std::uint32_t prior, std::uint32_t abi,
                                std::uint32_t cbi, std::uint32_t post,
                                std::uint32_t dst = 0x14000001) {
  CandidateSegment c;
  c.prior_abi = Ipv4(prior);
  c.abi = Ipv4(abi);
  c.cbi = Ipv4(cbi);
  c.post_cbi = Ipv4(post);
  c.destination = Ipv4(dst);
  c.region = RegionId{0};
  return c;
}

TEST(Fabric, DeduplicatesByAbiCbiPair) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4), 1);
  fabric.add_segment(make_candidate(1, 2, 3, 4, 0x14000002), 2);
  fabric.add_segment(make_candidate(1, 2, 5, 4), 1);
  EXPECT_EQ(fabric.segments().size(), 2u);
  EXPECT_EQ(fabric.unique_abis().size(), 1u);
  EXPECT_EQ(fabric.unique_cbis().size(), 2u);
  // First-round provenance is kept.
  EXPECT_EQ(fabric.segments()[0].first_round, 1);
  EXPECT_EQ(fabric.segments()[0].dest_slash24s.size(), 1u);  // same /24
}

TEST(Fabric, TracksDestinationSlash24s) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4, 0x14000001), 1);
  fabric.add_segment(make_candidate(1, 2, 3, 4, 0x14000101), 1);
  EXPECT_EQ(fabric.segments()[0].dest_slash24s.size(), 2u);
}

TEST(Fabric, SampleDestinationsAreCapped) {
  Fabric fabric;
  for (std::uint32_t i = 0; i < 10; ++i)
    fabric.add_segment(make_candidate(1, 2, 3, 4, 0x14000001 + i * 7), 1);
  EXPECT_EQ(fabric.segments()[0].sample_destinations.size(),
            Fabric::kMaxSampleDests);
}

TEST(Fabric, AdjacencyAccumulates) {
  Fabric fabric;
  fabric.add_adjacency(Ipv4(1), Ipv4(2));
  fabric.add_adjacency(Ipv4(1), Ipv4(3));
  fabric.add_adjacency(Ipv4(1), Ipv4(2));
  const auto successors = fabric.successors_of(Ipv4(1));
  EXPECT_EQ(std::set<std::uint32_t>(successors.begin(), successors.end()),
            (std::set<std::uint32_t>{2, 3}));
  EXPECT_TRUE(fabric.successors_of(Ipv4(9)).empty());
}

TEST(Fabric, ShiftRewritesSegment) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4), 1);
  ASSERT_TRUE(fabric.shift_segment(0, Confirmation::kHybrid));
  const InferredSegment& segment = fabric.segments()[0];
  EXPECT_EQ(segment.abi, Ipv4(1));
  EXPECT_EQ(segment.cbi, Ipv4(2));
  EXPECT_EQ(segment.post_cbi, Ipv4(3));
  EXPECT_TRUE(segment.shifted);
  EXPECT_EQ(segment.confirmation, Confirmation::kHybrid);
}

TEST(Fabric, ShiftWithoutPriorFails) {
  Fabric fabric;
  fabric.add_segment(make_candidate(0, 2, 3, 4), 1);
  EXPECT_FALSE(fabric.shift_segment(0, Confirmation::kHybrid));
}

TEST(Fabric, ShiftMergesIntoExistingSegment) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4), 1);   // will shift to (1,2)
  fabric.add_segment(make_candidate(0, 1, 2, 3), 1);   // already (1,2)
  ASSERT_TRUE(fabric.shift_segment(0, Confirmation::kHybrid));
  fabric.compact();
  EXPECT_EQ(fabric.segments().size(), 1u);
  EXPECT_EQ(fabric.segments()[0].abi, Ipv4(1));
  EXPECT_EQ(fabric.segments()[0].cbi, Ipv4(2));
}

TEST(Fabric, AdvanceRewritesSegment) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4), 1);
  ASSERT_TRUE(fabric.advance_segment(0, Confirmation::kAliasRelabel));
  const InferredSegment& segment = fabric.segments()[0];
  EXPECT_EQ(segment.abi, Ipv4(3));
  EXPECT_EQ(segment.cbi, Ipv4(4));
}

TEST(Fabric, AdvanceWithoutPostFails) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 0), 1);
  EXPECT_FALSE(fabric.advance_segment(0, Confirmation::kAliasRelabel));
}

TEST(Fabric, CompactRemovesTombstones) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 4), 1);
  fabric.add_segment(make_candidate(0, 1, 2, 3), 1);
  fabric.add_segment(make_candidate(5, 6, 7, 8), 1);
  fabric.shift_segment(0, Confirmation::kHybrid);  // merges into (1,2)
  fabric.compact();
  EXPECT_EQ(fabric.segments().size(), 2u);
  // Index still works after compaction: re-adding dedups correctly.
  fabric.add_segment(make_candidate(5, 6, 7, 8), 2);
  EXPECT_EQ(fabric.segments().size(), 2u);
}

TEST(Fabric, GroupingByAbiAndCbi) {
  Fabric fabric;
  fabric.add_segment(make_candidate(1, 2, 3, 0), 1);
  fabric.add_segment(make_candidate(1, 2, 4, 0), 1);
  fabric.add_segment(make_candidate(1, 5, 3, 0), 1);
  const auto by_abi = fabric.by_abi();
  EXPECT_EQ(by_abi.size(), 2u);
  EXPECT_EQ(by_abi.at(2).size(), 2u);
  const auto by_cbi = fabric.by_cbi();
  EXPECT_EQ(by_cbi.size(), 2u);
  EXPECT_EQ(by_cbi.at(3).size(), 2u);
}

TEST(Fabric, RegionIdsBeyondTheMaskAreRefused) {
  Fabric fabric;
  CandidateSegment top = make_candidate(1, 2, 3, 4);
  top.region = RegionId{Fabric::kMaxRegions - 1};
  fabric.add_segment(top, 1);
  ASSERT_EQ(fabric.segments().size(), 1u);
  EXPECT_EQ(region_ids(fabric.segments()[0].regions),
            (std::vector<std::uint32_t>{Fabric::kMaxRegions - 1}));

  // Region 64 (and far beyond) would shift past the 64-bit mask: refused,
  // named, and the fabric is left exactly as it was.
  const std::vector<InferredSegment> before = fabric.segments();
  for (const std::uint32_t region : {Fabric::kMaxRegions, 200u}) {
    for (const std::uint32_t cbi : {3u, 9u}) {  // existing and new segment
      CandidateSegment over = make_candidate(1, 2, cbi, 4);
      over.region = RegionId{region};
      try {
        fabric.add_segment(over, 2);
        ADD_FAILURE() << "region " << region << " was accepted";
      } catch (const std::out_of_range& error) {
        EXPECT_NE(std::string(error.what()).find(std::to_string(region)),
                  std::string::npos)
            << error.what();
      }
      EXPECT_EQ(fabric.segments(), before);
    }
  }
}

// Random segment, adjacency and edit streams checked field by field
// against a model built on std::set and std::map.
class FabricModel {
 public:
  struct Segment {
    Ipv4 abi, cbi, prior_abi, post_cbi;
    int first_round = 1;
    std::set<std::uint32_t> regions;
    std::set<std::uint32_t> dest_slash24s;
    std::vector<Ipv4> samples;
    Confirmation confirmation = Confirmation::kUnconfirmed;
    bool shifted = false;
    std::uint32_t observations = 0;
    std::uint32_t rounds_mask = 0;
    double hop_density_sum = 0.0;
  };

  void add_segment(const CandidateSegment& c, int round) {
    const auto [it, added] =
        index_.emplace(std::make_pair(c.abi.value(), c.cbi.value()),
                       segments_.size());
    if (added) {
      segments_.push_back(Segment{});
      segments_.back().abi = c.abi;
      segments_.back().cbi = c.cbi;
      segments_.back().first_round = round;
    }
    Segment& s = segments_[it->second];
    ++s.observations;
    s.rounds_mask |= std::uint32_t{1} << (std::clamp(round, 1, 32) - 1);
    s.hop_density_sum += c.hop_density;
    if (!c.prior_abi.is_unspecified()) s.prior_abi = c.prior_abi;
    if (!c.post_cbi.is_unspecified()) s.post_cbi = c.post_cbi;
    if (c.region.valid()) s.regions.insert(c.region.value);
    s.dest_slash24s.insert(c.destination.value() & 0xFFFFFF00u);
    if (s.samples.size() < Fabric::kMaxSampleDests)
      s.samples.push_back(c.destination);
  }

  void add_adjacency(Ipv4 from, Ipv4 to) {
    successors_[from.value()].insert(to.value());
  }

  // shift (prior, abi) when `forward` is false, advance (cbi, post) when
  // it is true.
  bool move(std::size_t i, bool forward, Confirmation reason) {
    Segment& s = segments_[i];
    const Ipv4 next = forward ? s.post_cbi : s.prior_abi;
    if (next.is_unspecified()) return false;
    index_.erase({s.abi.value(), s.cbi.value()});
    const auto key = forward ? std::make_pair(s.cbi.value(), next.value())
                             : std::make_pair(next.value(), s.abi.value());
    const auto existing = index_.find(key);
    if (existing != index_.end() && existing->second != i) {
      Segment& target = segments_[existing->second];
      target.regions.insert(s.regions.begin(), s.regions.end());
      target.dest_slash24s.insert(s.dest_slash24s.begin(),
                                  s.dest_slash24s.end());
      target.observations += s.observations;
      target.rounds_mask |= s.rounds_mask;
      target.hop_density_sum += s.hop_density_sum;
      s.cbi = Ipv4{};
      return true;
    }
    if (forward) {
      s.prior_abi = s.abi;
      s.abi = s.cbi;
      s.cbi = s.post_cbi;
      s.post_cbi = Ipv4{};
    } else {
      s.post_cbi = s.cbi;
      s.cbi = s.abi;
      s.abi = s.prior_abi;
      s.prior_abi = Ipv4{};
    }
    s.shifted = true;
    s.confirmation = reason;
    index_[key] = i;
    return true;
  }

  void compact() {
    std::vector<Segment> kept;
    index_.clear();
    for (Segment& s : segments_) {
      if (s.cbi.is_unspecified()) continue;
      index_[{s.abi.value(), s.cbi.value()}] = kept.size();
      kept.push_back(std::move(s));
    }
    segments_ = std::move(kept);
  }

  const std::vector<Segment>& segments() const { return segments_; }
  std::set<std::uint32_t> successors(std::uint32_t from) const {
    const auto it = successors_.find(from);
    return it == successors_.end() ? std::set<std::uint32_t>{} : it->second;
  }

 private:
  std::vector<Segment> segments_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> index_;
  std::map<std::uint32_t, std::set<std::uint32_t>> successors_;
};

::testing::AssertionResult same_as_model(const Fabric& fabric,
                                         const FabricModel& model,
                                         std::uint32_t address_pool) {
  const auto& got = fabric.segments();
  const auto& want = model.segments();
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " segments vs " << want.size() << " in the model";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const InferredSegment& g = got[i];
    const FabricModel::Segment& w = want[i];
    const std::vector<std::uint32_t> regions(w.regions.begin(),
                                             w.regions.end());
    const std::vector<std::uint32_t> dests(w.dest_slash24s.begin(),
                                           w.dest_slash24s.end());
    if (g.abi != w.abi || g.cbi != w.cbi || g.prior_abi != w.prior_abi ||
        g.post_cbi != w.post_cbi || g.first_round != w.first_round ||
        region_ids(g.regions) != regions || g.dest_slash24s != dests ||
        g.sample_destinations != w.samples ||
        g.confirmation != w.confirmation || g.shifted != w.shifted ||
        g.observations != w.observations ||
        g.rounds_mask != w.rounds_mask ||
        g.hop_density_sum != w.hop_density_sum)
      return ::testing::AssertionFailure() << "segment " << i << " differs";
  }
  for (std::uint32_t from = 0; from <= address_pool; ++from) {
    const auto span = fabric.successors_of(Ipv4(from));
    const std::vector<std::uint32_t> listed(span.begin(), span.end());
    const std::set<std::uint32_t> distinct(listed.begin(), listed.end());
    if (distinct.size() != listed.size())
      return ::testing::AssertionFailure()
             << "successors of " << from << " repeat";
    if (distinct != model.successors(from))
      return ::testing::AssertionFailure()
             << "successors of " << from << " differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(Fabric, RandomEditsMatchASetAndMapModel) {
  constexpr std::uint32_t kPool = 24;  // small, so pairs and merges collide
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Fabric fabric;
    FabricModel model;
    const auto address = [&](bool may_be_unspecified) {
      return Ipv4(static_cast<std::uint32_t>(
          rng.bounded(kPool) + (may_be_unspecified ? 0 : 1)));
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.bounded(10);
      if (op < 4) {
        CandidateSegment c;
        c.prior_abi = address(true);
        c.abi = address(false);
        c.cbi = address(false);
        c.post_cbi = address(true);
        // Destinations over a few dozen /24s, in no particular order.
        const auto slash24 = static_cast<std::uint32_t>(rng.bounded(40));
        const auto host = static_cast<std::uint32_t>(rng.bounded(256));
        c.destination = Ipv4(0x0A000000u | slash24 << 8 | host);
        c.region = rng.chance(0.1)
                       ? RegionId{}
                       : RegionId{static_cast<std::uint32_t>(
                             rng.bounded(Fabric::kMaxRegions))};
        c.hop_density = static_cast<double>(rng.bounded(8)) / 8.0;
        const int round = static_cast<int>(rng.bounded(3)) + 1;
        fabric.add_segment(c, round);
        model.add_segment(c, round);
      } else if (op < 7) {
        const Ipv4 from = address(true);
        const Ipv4 to = address(true);
        fabric.add_adjacency(from, to);
        model.add_adjacency(from, to);
      } else if (op < 9 && !model.segments().empty()) {
        const std::size_t i = rng.bounded(model.segments().size());
        if (model.segments()[i].cbi.is_unspecified()) continue;
        const bool forward = op == 8;
        const Confirmation reason =
            forward ? Confirmation::kAliasRelabel : Confirmation::kHybrid;
        const bool applied = forward ? fabric.advance_segment(i, reason)
                                     : fabric.shift_segment(i, reason);
        ASSERT_EQ(applied, model.move(i, forward, reason))
            << "seed " << seed << " step " << step;
      } else {
        fabric.compact();
        model.compact();
      }
      // Check often enough that successors_of runs between adjacencies,
      // so the index is rebuilt many times.
      if (step % 7 == 0 || step == 399) {
        ASSERT_TRUE(same_as_model(fabric, model, kPool))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace cloudmap
