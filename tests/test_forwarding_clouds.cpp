// Forwarding across clouds: foreign-cloud vantage points, inter-cloud
// peerings, redundant-session egress splitting, and ECMP determinism.
#include <gtest/gtest.h>

#include <map>
#include <unordered_set>
#include <vector>

#include "controlplane/bgp.h"
#include "dataplane/forwarding.h"
#include "fixtures.h"
#include "net/geo.h"
#include "util/rng.h"

namespace cloudmap {
namespace {

using testfx::paper_world;
using testfx::small_world;

class CloudForwardingTest : public ::testing::Test {
 protected:
  CloudForwardingTest()
      : world_(small_world()), sim_(world_), forwarder_(world_, sim_) {}

  VantagePoint vp(CloudProvider provider, std::size_t index = 0) const {
    const auto regions = world_.regions_of(provider);
    return VantagePoint::cloud_vm(provider, regions[index], "vm");
  }

  const World& world_;
  BgpSimulator sim_;
  Forwarder forwarder_;
};

TEST_F(CloudForwardingTest, EveryCloudReachesClientSpace) {
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const auto provider = static_cast<CloudProvider>(p);
    int delivered = 0;
    int tried = 0;
    for (const AutonomousSystem& as : world_.ases) {
      if (as.type == AsType::kCloud || as.announced_prefixes.empty())
        continue;
      if (++tried > 40) break;
      const ForwardPath path = forwarder_.path(
          vp(provider), as.announced_prefixes.front().network().next(1));
      if (path.outcome == PathOutcome::kDelivered) ++delivered;
    }
    EXPECT_GT(delivered, tried / 2) << to_string(provider);
  }
}

TEST_F(CloudForwardingTest, AmazonReachesOtherCloudsViaInterCloudPeering) {
  // The inter-cloud interconnects give Amazon direct routes to the other
  // clouds' announced space.
  for (const CloudProvider other :
       {CloudProvider::kMicrosoft, CloudProvider::kGoogle}) {
    const AsId primary = world_.cloud_primary(other);
    const Ipv4 target =
        world_.ases[primary.value].announced_prefixes.front().network().next(1);
    const ForwardPath path = forwarder_.path(vp(CloudProvider::kAmazon),
                                             target);
    EXPECT_EQ(path.outcome, PathOutcome::kDelivered) << to_string(other);
    ASSERT_TRUE(path.egress_interconnect.valid());
    // The egress is an inter-cloud interconnect whose client is the other
    // cloud's AS.
    bool found = false;
    for (const GroundTruthInterconnect& ic : world_.interconnects) {
      if (ic.link != path.egress_interconnect &&
          ic.secondary_link != path.egress_interconnect)
        continue;
      EXPECT_EQ(ic.cloud, CloudProvider::kAmazon);
      EXPECT_TRUE(world_.is_cloud_as(ic.client, other));
      found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(CloudForwardingTest, PathsAreDeterministicPerDestination) {
  const Ipv4 target(20, 3, 7, 1);
  const ForwardPath a = forwarder_.path(vp(CloudProvider::kAmazon), target);
  const ForwardPath b = forwarder_.path(vp(CloudProvider::kAmazon), target);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    EXPECT_EQ(a.hops[i].router, b.hops[i].router);
    EXPECT_EQ(a.hops[i].incoming, b.hops[i].incoming);
  }
}

TEST_F(CloudForwardingTest, EcmpSplitsAcrossDestinationsSomewhere) {
  // For some client with multiple links, different destinations in the same
  // announced block take different egress links from one region.
  bool split_observed = false;
  for (const AutonomousSystem& as : world_.ases) {
    if (as.type == AsType::kCloud || as.announced_prefixes.empty()) continue;
    std::unordered_set<std::uint32_t> egresses;
    const Prefix& block = as.announced_prefixes.front();
    for (std::uint32_t host = 1; host < 40; host += 2) {
      const ForwardPath path = forwarder_.path(
          vp(CloudProvider::kAmazon), block.network().next(host));
      if (path.egress_interconnect.valid())
        egresses.insert(path.egress_interconnect.value);
    }
    if (egresses.size() >= 2) {
      split_observed = true;
      break;
    }
  }
  EXPECT_TRUE(split_observed);
}

TEST_F(CloudForwardingTest, RedundantSessionsAreUsedFromSomeRegion) {
  // At least one interconnect with a secondary link actually carries
  // traffic from some region (the ICG-stitching mechanism).
  const auto regions = world_.regions_of(CloudProvider::kAmazon);
  bool secondary_used = false;
  for (const GroundTruthInterconnect& ic : world_.interconnects) {
    if (!ic.secondary_link.valid() || ic.cloud != CloudProvider::kAmazon)
      continue;
    const Ipv4 target = world_.interface(ic.client_interface).address;
    for (const RegionId region : regions) {
      const VantagePoint vantage =
          VantagePoint::cloud_vm(CloudProvider::kAmazon, region, "vm");
      const ForwardPath path = forwarder_.path(vantage, target);
      if (path.egress_interconnect == ic.secondary_link)
        secondary_used = true;
    }
    if (secondary_used) break;
  }
  EXPECT_TRUE(secondary_used);
}

TEST_F(CloudForwardingTest, ForeignCloudsCannotReachAmazonInfraSpace) {
  // Amazon-provided interconnect /30s live in WHOIS-only space: no foreign
  // cloud can route there (the reason non-shared VPIs evade detection).
  int checked = 0;
  for (const GroundTruthInterconnect& ic : world_.interconnects) {
    if (ic.cloud != CloudProvider::kAmazon || !ic.cloud_provided_subnet ||
        ic.private_address)
      continue;
    const Ipv4 target = world_.interface(ic.client_interface).address;
    if (!target.is_private()) {
      const ForwardPath path =
          forwarder_.path(vp(CloudProvider::kMicrosoft), target);
      EXPECT_NE(path.outcome, PathOutcome::kDelivered)
          << target.to_string();
      if (++checked > 20) break;
    }
  }
  EXPECT_GT(checked, 0);
}

// The cloud egress rule written from World ground truth alone, with none
// of the forwarder's tables: candidates per prefix in interconnect order,
// longest-prefix match by brute force, the announced origin (last insert
// wins), hot-potato scores with the flow jitter, direct candidates first.
class EgressReference {
 public:
  EgressReference(const World& world, CloudProvider cloud) : world_(world) {
    for (const GroundTruthInterconnect& ic : world.interconnects) {
      if (ic.cloud != cloud || ic.private_address) continue;
      const auto add = [&](const Prefix& prefix) {
        std::vector<LinkId>& links = candidates_[prefix];
        links.push_back(ic.link);
        if (ic.secondary_link.valid()) links.push_back(ic.secondary_link);
      };
      for (const Prefix& prefix : ic.announced_to_cloud) add(prefix);
      add(Prefix(world.interface(ic.client_interface).address, 32));
    }
    for (const AutonomousSystem& as : world.ases) {
      const auto it = world.as_by_asn.find(as.asn.value);
      const AsId origin = it == world.as_by_asn.end() ? AsId{} : it->second;
      for (const Prefix& prefix : as.announced_prefixes)
        origins_[prefix] = origin;
    }
  }

  // Whether the destination has candidates, none of them in its origin AS.
  bool transit_only(Ipv4 dst) const {
    const std::vector<LinkId>* links = longest_match(candidates_, dst);
    if (links == nullptr) return false;
    const AsId origin = origin_of(dst);
    for (const LinkId link : *links)
      if (origin.valid() && client_owner(link) == origin) return false;
    return true;
  }

  // The egress a VM in `region` takes toward `dst`; invalid without a route.
  LinkId egress(RegionId region, Ipv4 dst) const {
    const std::vector<LinkId>* links = longest_match(candidates_, dst);
    if (links == nullptr) return LinkId{};
    const AsId origin = origin_of(dst);
    const GeoPoint& metro = world_.metro(world_.region(region).metro).location;
    LinkId best;
    double best_score = 0.0;
    bool best_direct = false;
    for (const LinkId link : *links) {
      const RouterId border =
          world_.interface(world_.link(link).side_a).router;
      const double km = haversine_km(metro, world_.router_location(border));
      std::uint64_t state =
          (static_cast<std::uint64_t>(dst.value()) << 32) ^
          (link.value * 0x9e3779b97f4a7c15ULL);
      const double j = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
      const double score = km * (1.0 + 0.35 * j) + j;
      const bool direct = origin.valid() && client_owner(link) == origin;
      // A direct candidate beats any transit one; then the lower score,
      // then the earlier candidate.
      if (!best.valid() || (direct && !best_direct) ||
          (direct == best_direct && score < best_score)) {
        best = link;
        best_score = score;
        best_direct = direct;
      }
    }
    return best;
  }

 private:
  template <typename Value>
  static const Value* longest_match(const std::map<Prefix, Value>& table,
                                    Ipv4 dst) {
    for (int length = 32; length >= 0; --length) {
      const auto it =
          table.find(Prefix(dst, static_cast<std::uint8_t>(length)));
      if (it != table.end()) return &it->second;
    }
    return nullptr;
  }

  AsId origin_of(Ipv4 dst) const {
    const AsId* origin = longest_match(origins_, dst);
    return origin == nullptr ? AsId{} : *origin;
  }

  AsId client_owner(LinkId link) const {
    return world_.router_owner(
        world_.interface(world_.link(link).side_b).router);
  }

  const World& world_;
  std::map<Prefix, std::vector<LinkId>> candidates_;
  std::map<Prefix, AsId> origins_;
};

TEST(CloudEgress, MatchesTheGroundTruthRuleFromEverySubjectRegion) {
  const World& world = paper_world();
  const BgpSimulator sim(world);
  const Forwarder forwarder(world, sim);
  const EgressReference reference(world, CloudProvider::kAmazon);

  std::vector<Ipv4> destinations;
  for (const GroundTruthInterconnect& ic : world.interconnects)
    if (!ic.private_address)
      destinations.push_back(world.interface(ic.client_interface).address);
  for (const AutonomousSystem& as : world.ases)
    for (const Prefix& prefix : as.announced_prefixes)
      destinations.push_back(prefix.network().next(1));

  std::size_t routed = 0;
  std::size_t transit_only = 0;
  for (const Ipv4 dst : destinations) {
    if (reference.transit_only(dst)) ++transit_only;
    for (const RegionId region : world.regions_of(CloudProvider::kAmazon)) {
      const VantagePoint vm =
          VantagePoint::cloud_vm(CloudProvider::kAmazon, region, "vm");
      const LinkId expected = reference.egress(region, dst);
      ASSERT_EQ(forwarder.path(vm, dst).egress_interconnect, expected)
          << dst.to_string() << " from region " << region.value;
      if (expected.valid()) ++routed;
    }
  }
  // Both branches of the rule ran: a direct group, and the full scan.
  EXPECT_GT(routed, destinations.size());
  EXPECT_GT(transit_only, 0u);
}

}  // namespace
}  // namespace cloudmap
