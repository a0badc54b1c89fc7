// World accessor and index coverage beyond generation invariants.
#include <gtest/gtest.h>

#include <unordered_map>

#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::paper_world;
using testfx::small_world;

TEST(WorldAccessors, FindInterfaceRoundTrips) {
  const World& world = small_world();
  std::size_t checked = 0;
  for (std::uint32_t i = 0; i < world.interfaces.size() && checked < 500;
       ++i) {
    const Interface& iface = world.interfaces[i];
    if (iface.address.is_unspecified()) continue;
    const InterfaceId found = world.find_interface(iface.address);
    ASSERT_TRUE(found.valid());
    // Shared addresses (L2 ports, redundant sessions) resolve to one
    // registrant (see below), which must at least share the router.
    EXPECT_EQ(world.interface(found).router, iface.router);
    ++checked;
  }
  EXPECT_GT(checked, 100u);
  EXPECT_FALSE(world.find_interface(Ipv4(99, 99, 99, 99)).valid());
}

TEST(WorldAccessors, SharedAddressResolvesToHighestIndex) {
  for (const World* world : {&small_world(), &paper_world()}) {
    std::unordered_map<std::uint32_t, std::uint32_t> highest;
    std::size_t repeats = 0;
    for (std::uint32_t i = 0; i < world->interfaces.size(); ++i) {
      const Ipv4 address = world->interfaces[i].address;
      if (address.is_unspecified()) continue;
      repeats += highest.count(address.value());
      highest[address.value()] = i;
    }
    // Both worlds share addresses, so the rule is exercised, not vacuous.
    EXPECT_GT(repeats, 0u);
    for (const Interface& iface : world->interfaces) {
      if (iface.address.is_unspecified()) continue;
      ASSERT_EQ(world->find_interface(iface.address).value,
                highest.at(iface.address.value()))
          << iface.address.to_string();
    }
  }
}

TEST(WorldAccessors, OwnerOfMatchesPrefixOwner) {
  const World& world = small_world();
  for (const AutonomousSystem& as : world.ases) {
    for (const Prefix& prefix : as.announced_prefixes) {
      const AsId owner = world.owner_of(prefix.network().next(1));
      ASSERT_TRUE(owner.valid());
      // The owner is the AS itself (interconnect /30 carve-outs are from
      // block tops, .1 stays with the block owner).
      EXPECT_EQ(world.ases[owner.value].asn, as.asn);
    }
  }
  EXPECT_FALSE(world.owner_of(Ipv4(99, 0, 0, 1)).valid());
}

TEST(WorldAccessors, LinkOtherSideIsInvolutive) {
  const World& world = small_world();
  for (std::uint32_t l = 0; l < world.links.size(); ++l) {
    const Link& link = world.links[l];
    EXPECT_EQ(world.link_other_side(LinkId{l}, link.side_a), link.side_b);
    EXPECT_EQ(world.link_other_side(LinkId{l}, link.side_b), link.side_a);
  }
}

TEST(WorldAccessors, RegionsOfPartitionsByProvider) {
  const World& world = small_world();
  std::size_t total = 0;
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const auto regions =
        world.regions_of(static_cast<CloudProvider>(p));
    for (const RegionId region : regions)
      EXPECT_EQ(world.region(region).provider,
                static_cast<CloudProvider>(p));
    total += regions.size();
  }
  EXPECT_EQ(total, world.regions.size());
}

TEST(WorldAccessors, CloudPrimaryIsFirstAndCloudTyped) {
  const World& world = small_world();
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const auto provider = static_cast<CloudProvider>(p);
    const AsId primary = world.cloud_primary(provider);
    EXPECT_EQ(world.ases[primary.value].type, AsType::kCloud);
    EXPECT_EQ(world.ases[primary.value].cloud, provider);
    EXPECT_TRUE(world.is_cloud_as(primary, provider));
    EXPECT_FALSE(world.is_cloud_as(primary, CloudProvider::kNone));
  }
}

TEST(WorldAccessors, AsByAsnIsComplete) {
  const World& world = small_world();
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    const auto it = world.as_by_asn.find(world.ases[i].asn.value);
    ASSERT_NE(it, world.as_by_asn.end());
    EXPECT_EQ(it->second.value, i);
  }
}

TEST(WorldAccessors, RouterLocationMatchesMetro) {
  const World& world = small_world();
  for (std::uint32_t r = 0; r < world.routers.size(); ++r) {
    const GeoPoint& location = world.router_location(RouterId{r});
    const GeoPoint& metro =
        world.metro(world.routers[r].metro).location;
    EXPECT_DOUBLE_EQ(location.latitude_deg, metro.latitude_deg);
    EXPECT_DOUBLE_EQ(location.longitude_deg, metro.longitude_deg);
  }
}

TEST(WorldAccessors, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(CloudProvider::kAmazon), "amazon");
  EXPECT_STREQ(to_string(CloudProvider::kOracle), "oracle");
  EXPECT_STREQ(to_string(AsType::kTier1), "tier1");
  EXPECT_STREQ(to_string(AsType::kEnterprise), "enterprise");
  EXPECT_STREQ(to_string(LinkKind::kVpi), "vpi");
  EXPECT_STREQ(to_string(LinkKind::kIxpLan), "ixp-lan");
  EXPECT_STREQ(to_string(PeeringKind::kPublicIxp), "public-ixp");
  EXPECT_STREQ(to_string(PeeringKind::kCrossConnect), "cross-connect");
}

}  // namespace
}  // namespace cloudmap
