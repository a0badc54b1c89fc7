// Gao-Rexford propagation, snapshot visibility, customer cones, and the
// shared route tables checked against a per-origin oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "controlplane/bgp.h"
#include "fixtures.h"

namespace cloudmap {
namespace {

using testfx::paper_world;
using testfx::small_world;

class BgpTest : public ::testing::Test {
 protected:
  BgpTest() : sim_(small_world()) {}
  BgpSimulator sim_;
};

TEST_F(BgpTest, OriginHasSelfRoute) {
  const World& world = small_world();
  for (std::uint32_t o = 0; o < world.ases.size(); ++o) {
    if (world.ases[o].type == AsType::kCloud) continue;
    EXPECT_EQ(sim_.routes_to(AsId{o})[AsId{o}].route_class(),
              RouteClass::kSelf);
  }
}

TEST_F(BgpTest, EveryClientReachableFromTier1s) {
  const World& world = small_world();
  std::vector<AsId> tier1;
  for (std::uint32_t i = 0; i < world.ases.size(); ++i)
    if (world.ases[i].type == AsType::kTier1) tier1.push_back(AsId{i});
  ASSERT_FALSE(tier1.empty());
  for (std::uint32_t o = 0; o < world.ases.size(); ++o) {
    const AutonomousSystem& as = world.ases[o];
    if (as.type == AsType::kCloud) continue;
    if (as.providers.empty() && as.type != AsType::kTier1) continue;
    for (const AsId t1 : tier1)
      EXPECT_TRUE(sim_.reachable(t1, AsId{o}))
          << world.ases[t1.value].name << " -> " << as.name;
  }
}

TEST_F(BgpTest, PathsEndAtOriginAndAreValleyFree) {
  const World& world = small_world();
  // Relationship lookup helpers.
  auto is_provider_of = [&](AsId p, AsId c) {
    for (const AsId provider : world.ases[c.value].providers)
      if (provider == p) return true;
    return false;
  };
  auto is_peer_of = [&](AsId a, AsId b) {
    for (const AsId peer : world.ases[a.value].peers)
      if (peer == b) return true;
    return false;
  };

  int checked = 0;
  for (std::uint32_t from = 0; from < world.ases.size() && checked < 400;
       from += 3) {
    for (std::uint32_t to = 1; to < world.ases.size() && checked < 400;
         to += 7) {
      if (from == to) continue;
      if (world.ases[from].type == AsType::kCloud ||
          world.ases[to].type == AsType::kCloud)
        continue;
      const auto path = sim_.path(AsId{from}, AsId{to});
      if (path.empty()) continue;
      ++checked;
      EXPECT_EQ(path.front(), (AsId{from}));
      EXPECT_EQ(path.back(), (AsId{to}));
      // Valley-free: once the path goes "down" (provider→customer) or
      // laterally (peer), it must keep going down. We walk from the origin
      // backwards: `path` runs from viewer toward origin, so reverse it to
      // get the announcement's propagation direction.
      bool went_down_or_peer = false;
      int peer_links = 0;
      for (std::size_t i = path.size(); i-- > 1;) {
        // Announcement step: path[i] announces to path[i-1].
        const AsId announcer = path[i];
        const AsId receiver = path[i - 1];
        if (is_provider_of(receiver, announcer)) {
          // customer→provider announcement: only allowed before any
          // down/peer step.
          EXPECT_FALSE(went_down_or_peer) << "valley in path";
        } else if (is_peer_of(announcer, receiver)) {
          ++peer_links;
          went_down_or_peer = true;
        } else {
          EXPECT_TRUE(is_provider_of(announcer, receiver));
          went_down_or_peer = true;
        }
      }
      EXPECT_LE(peer_links, 1) << "more than one peer link on path";
    }
  }
  EXPECT_GT(checked, 50);
}

TEST_F(BgpTest, PreferenceOrderCustomerOverPeerOverProvider) {
  const World& world = small_world();
  for (std::uint32_t o = 0; o < world.ases.size(); o += 5) {
    if (world.ases[o].type == AsType::kCloud) continue;
    const RouteTable table = sim_.routes_to(AsId{o});
    for (std::uint32_t v = 0; v < world.ases.size(); ++v) {
      const RouteEntry entry = table[AsId{v}];
      if (entry.route_class() != RouteClass::kCustomer) continue;
      // A customer route implies the origin is in v's customer cone; the
      // next hop must be one of v's customers.
      bool next_is_customer = false;
      for (const AsId customer : world.ases[v].customers)
        if (customer == entry.next_hop()) next_is_customer = true;
      EXPECT_TRUE(next_is_customer);
    }
  }
}

TEST_F(BgpTest, SnapshotHidesVpiOnlyPeerings) {
  const World& world = small_world();
  const auto feeds = default_collector_feeds(world, 11);
  const BgpSnapshot snapshot = build_snapshot(world, sim_, feeds);

  // Find a client whose only Amazon interconnects are VPIs: its AS link
  // with Amazon must not appear in the snapshot.
  const Asn amazon_asn =
      world.ases[world.cloud_primary(CloudProvider::kAmazon).value].asn;
  int checked = 0;
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    bool has_amazon = false;
    bool all_vpi = true;
    for (const GroundTruthInterconnect& ic : world.interconnects) {
      if (ic.cloud != CloudProvider::kAmazon || ic.client.value != i)
        continue;
      has_amazon = true;
      if (ic.kind != PeeringKind::kVpi) all_vpi = false;
    }
    if (!has_amazon || !all_vpi) continue;
    ++checked;
    EXPECT_FALSE(snapshot.link_visible(amazon_asn, world.ases[i].asn))
        << world.ases[i].name;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(BgpTest, SnapshotSeesTier1CloudLinks) {
  const World& world = small_world();
  const auto feeds = default_collector_feeds(world, 11);
  const BgpSnapshot snapshot = build_snapshot(world, sim_, feeds);
  const Asn amazon_asn =
      world.ases[world.cloud_primary(CloudProvider::kAmazon).value].asn;
  int visible = 0;
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    if (world.ases[i].type != AsType::kTier1) continue;
    bool has_xconnect = false;
    for (const GroundTruthInterconnect& ic : world.interconnects)
      if (ic.cloud == CloudProvider::kAmazon && ic.client.value == i &&
          ic.kind == PeeringKind::kCrossConnect)
        has_xconnect = true;
    if (has_xconnect && snapshot.link_visible(amazon_asn, world.ases[i].asn))
      ++visible;
  }
  EXPECT_GT(visible, 0);
}

TEST_F(BgpTest, IntermittentPrefixesAppearOnlyInRound2) {
  const World& world = small_world();
  const auto feeds = default_collector_feeds(world, 11);
  SnapshotOptions round1;
  round1.include_intermittent = false;
  SnapshotOptions round2;
  round2.include_intermittent = true;
  const BgpSnapshot snap1 = build_snapshot(world, sim_, feeds, round1);
  const BgpSnapshot snap2 = build_snapshot(world, sim_, feeds, round2);
  EXPECT_LT(snap1.origin_of.size(), snap2.origin_of.size());
  // Round-1 entries are a subset of round-2 entries.
  snap1.origin_of.for_each([&](const Prefix& prefix, const Asn& origin) {
    const Asn* other = snap2.origin_of.exact(prefix);
    ASSERT_NE(other, nullptr) << prefix.to_string();
    EXPECT_EQ(*other, origin);
  });
}

TEST_F(BgpTest, CustomerConesAreSupersetsOfOwnSpace) {
  const World& world = small_world();
  const auto cones = customer_cone_slash24s(world);
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    std::uint64_t own = 0;
    for (const Prefix& p : world.ases[i].announced_prefixes)
      own += p.length() >= 24 ? 1 : (std::uint64_t{1} << (24 - p.length()));
    EXPECT_GE(cones[i], own) << world.ases[i].name;
  }
  // Tier-1 cones dominate enterprise cones.
  std::uint64_t max_tier1 = 0;
  std::uint64_t max_enterprise = 0;
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    if (world.ases[i].type == AsType::kTier1)
      max_tier1 = std::max(max_tier1, cones[i]);
    if (world.ases[i].type == AsType::kEnterprise)
      max_enterprise = std::max(max_enterprise, cones[i]);
  }
  EXPECT_GT(max_tier1, max_enterprise);
}

TEST_F(BgpTest, LinkKeyIsCanonical) {
  EXPECT_EQ(BgpSnapshot::link_key(Asn{5}, Asn{9}),
            BgpSnapshot::link_key(Asn{9}, Asn{5}));
}

// --- the packed entry --------------------------------------------------------

static_assert(sizeof(RouteEntry) == 4);

TEST(RouteEntryPacking, RoundTripsEveryFieldAtItsLimits) {
  const RouteEntry none;
  EXPECT_EQ(none.route_class(), RouteClass::kNone);
  EXPECT_EQ(none.path_length(), 0);
  EXPECT_FALSE(none.next_hop().valid());
  EXPECT_FALSE(none.has_route());
  EXPECT_FALSE(none.via_phantom());

  const RouteClass classes[] = {RouteClass::kNone, RouteClass::kProvider,
                                RouteClass::kPeer, RouteClass::kCustomer,
                                RouteClass::kSelf};
  const std::uint8_t lengths[] = {0, 1, 254, 255};
  const AsId hops[] = {AsId{0}, AsId{1}, AsId{RouteEntry::kMaxAses - 1},
                       AsId{}};
  for (const RouteClass cls : classes) {
    for (const std::uint8_t length : lengths) {
      for (const AsId hop : hops) {
        const RouteEntry entry{cls, length, hop};
        EXPECT_EQ(entry.route_class(), cls);
        EXPECT_EQ(entry.path_length(), length);
        EXPECT_EQ(entry.next_hop(), hop);
        EXPECT_EQ(entry.has_route(), cls != RouteClass::kNone);
        EXPECT_FALSE(entry.via_phantom());
      }
      const RouteEntry phantom = RouteEntry::phantom(cls, length);
      EXPECT_EQ(phantom.route_class(), cls);
      EXPECT_EQ(phantom.path_length(), length);
      EXPECT_TRUE(phantom.via_phantom());
      EXPECT_EQ(phantom.next_hop(), (AsId{RouteEntry::kPhantomHop}));
    }
  }
  // Both sentinels sit above the largest id, inside the field.
  EXPECT_LT(RouteEntry::kMaxAses - 1, RouteEntry::kPhantomHop);
  EXPECT_LT(RouteEntry::kPhantomHop, RouteEntry::kNoHop);
  EXPECT_LT(RouteEntry::kNoHop, std::uint32_t{1} << RouteEntry::kHopBits);
}

// --- shared tables against the per-origin oracle -----------------------------

// One origin's table computed on its own, sharing nothing with any other
// origin: the oracle for the shared-slot accessor.
struct OracleEntry {
  RouteClass route_class = RouteClass::kNone;
  std::uint8_t path_length = 0;
  AsId next_hop;
};

bool oracle_improves(const OracleEntry& current, RouteClass cls,
                     std::uint8_t length, AsId next_hop) {
  if (cls != current.route_class)
    return static_cast<int>(cls) > static_cast<int>(current.route_class);
  if (length != current.path_length) return length < current.path_length;
  return next_hop.value < current.next_hop.value;
}

std::vector<OracleEntry> oracle_table(const World& world, AsId origin) {
  const auto& ases = world.ases;
  std::vector<OracleEntry> table(ases.size());
  table[origin.value] = OracleEntry{RouteClass::kSelf, 0, AsId{}};
  std::deque<AsId> queue{origin};
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    const OracleEntry route = table[u.value];
    if (route.route_class != RouteClass::kSelf &&
        route.route_class != RouteClass::kCustomer)
      continue;
    for (AsId provider : ases[u.value].providers) {
      const auto len = static_cast<std::uint8_t>(route.path_length + 1);
      OracleEntry& entry = table[provider.value];
      if (oracle_improves(entry, RouteClass::kCustomer, len, u)) {
        entry = OracleEntry{RouteClass::kCustomer, len, u};
        queue.push_back(provider);
      }
    }
  }
  for (std::uint32_t u = 0; u < ases.size(); ++u) {
    const OracleEntry route = table[u];
    if (route.route_class != RouteClass::kSelf &&
        route.route_class != RouteClass::kCustomer)
      continue;
    for (AsId peer : ases[u].peers) {
      const auto len = static_cast<std::uint8_t>(route.path_length + 1);
      OracleEntry& entry = table[peer.value];
      if (oracle_improves(entry, RouteClass::kPeer, len, AsId{u}))
        entry = OracleEntry{RouteClass::kPeer, len, AsId{u}};
    }
  }
  for (std::uint32_t u = 0; u < ases.size(); ++u)
    if (table[u].route_class != RouteClass::kNone) queue.push_back(AsId{u});
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    const OracleEntry route = table[u.value];
    for (AsId customer : ases[u.value].customers) {
      const auto len = static_cast<std::uint8_t>(route.path_length + 1);
      OracleEntry& entry = table[customer.value];
      if (oracle_improves(entry, RouteClass::kProvider, len, u)) {
        entry = OracleEntry{RouteClass::kProvider, len, u};
        queue.push_back(customer);
      }
    }
  }
  return table;
}

// Rows (origin × AS) where the accessor differs from the oracle or carries
// the phantom sentinel; `rows` counts every row compared.
std::uint64_t oracle_mismatches(const World& world, std::uint64_t& rows) {
  const BgpSimulator sim(world);
  std::uint64_t mismatches = 0;
  for (std::uint32_t o = 0; o < world.ases.size(); ++o) {
    const std::vector<OracleEntry> want = oracle_table(world, AsId{o});
    const RouteTable got = sim.routes_to(AsId{o});
    for (std::uint32_t at = 0; at < world.ases.size(); ++at) {
      const RouteEntry entry = got[AsId{at}];
      ++rows;
      if (entry.route_class() != want[at].route_class ||
          entry.path_length() != want[at].path_length ||
          entry.next_hop() != want[at].next_hop || entry.via_phantom()) {
        if (mismatches < 5) {
          ADD_FAILURE() << "origin " << o << " at " << at << ": class "
                        << static_cast<int>(entry.route_class()) << " vs "
                        << static_cast<int>(want[at].route_class)
                        << ", length " << int{entry.path_length()} << " vs "
                        << int{want[at].path_length} << ", next hop "
                        << entry.next_hop().value << " vs "
                        << want[at].next_hop.value;
        }
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(BgpOracle, SmallWorldMatchesPerOriginTables) {
  std::uint64_t rows = 0;
  EXPECT_EQ(oracle_mismatches(small_world(), rows), 0u);
  EXPECT_EQ(rows, small_world().ases.size() * small_world().ases.size());
}

TEST(BgpOracle, PaperWorldMatchesPerOriginTables) {
  std::uint64_t rows = 0;
  EXPECT_EQ(oracle_mismatches(paper_world(), rows), 0u);
  EXPECT_EQ(rows, paper_world().ases.size() * paper_world().ases.size());
}

TEST(BgpOracle, ScaledWorldMatchesPerOriginTables) {
  WorldSpec spec;
  spec.seed = 3;
  spec.total_ases = 2000;
  const World world = generate_world(GeneratorConfig::from_spec(spec));
  ASSERT_GT(world.ases.size(), 2000u);
  std::uint64_t rows = 0;
  EXPECT_EQ(oracle_mismatches(world, rows), 0u);
  EXPECT_EQ(rows, world.ases.size() * world.ases.size());
}

// A hand-built AS graph with each shape the slot rule tells apart. Tier-1s
// 0 and 1 peer. Behind provider 0: pure stubs 4 and 5, AS 2 (which also
// peers with 3, a customer of 1) and AS 6 (which has customer 7). Pure
// stubs 8 and 9 are dual-homed to {0, 1}, listed in opposite orders.
World relationship_world() {
  World world;
  world.ases.resize(10);
  const auto transit = [&](std::uint32_t provider, std::uint32_t customer) {
    world.ases[provider].customers.push_back(AsId{customer});
    world.ases[customer].providers.push_back(AsId{provider});
  };
  const auto peer = [&](std::uint32_t a, std::uint32_t b) {
    world.ases[a].peers.push_back(AsId{b});
    world.ases[b].peers.push_back(AsId{a});
  };
  peer(0, 1);
  transit(0, 2);
  transit(1, 3);
  peer(2, 3);
  transit(0, 4);
  transit(0, 5);
  transit(0, 6);
  transit(6, 7);
  transit(0, 8);
  transit(1, 8);
  transit(1, 9);
  transit(0, 9);
  return world;
}

TEST(BgpOracle, HandBuiltWorldMatchesPerOriginTables) {
  std::uint64_t rows = 0;
  EXPECT_EQ(oracle_mismatches(relationship_world(), rows), 0u);
  EXPECT_EQ(rows, 100u);
}

// --- which origins share a table ----------------------------------------------

TEST(BgpSlots, PureStubsBehindOneProviderSetShareOneTable) {
  const World world = relationship_world();
  const BgpSimulator sim(world);
  // Stubs 4 and 5 share provider set {0}; 8 and 9 list {0, 1} in opposite
  // orders. The second stub of each pair finds the first one's table.
  const std::pair<std::uint32_t, std::uint32_t> pairs[] = {{4, 5}, {8, 9}};
  std::uint64_t misses = 0;
  for (const auto& [first, second] : pairs) {
    for (const std::uint32_t stub : {first, second}) {
      const RouteTable table = sim.routes_to(AsId{stub});
      // The fix-ups: the stub reads its own row as kSelf, and each provider
      // reaches it in one customer hop through the stub itself.
      EXPECT_EQ(table[AsId{stub}], (RouteEntry{RouteClass::kSelf, 0, AsId{}}));
      for (const AsId provider : world.ases[stub].providers)
        EXPECT_EQ(table[provider],
                  (RouteEntry{RouteClass::kCustomer, 1, AsId{stub}}));
    }
    EXPECT_EQ(sim.cache_stats().misses, ++misses);
  }
  EXPECT_EQ(sim.cache_stats().hits, 2u);
}

TEST(BgpSlots, PeerOrCustomerKeepsAnAsOutOfItsProvidersStubSlot) {
  const World world = relationship_world();
  const BgpSimulator sim(world);
  // Pure stubs: {4, 5} behind {0}, {7} behind {6}, {8, 9} behind {0, 1}.
  sim.warm_routes({AsId{4}, AsId{5}, AsId{7}, AsId{8}, AsId{9}});
  EXPECT_EQ(sim.cache_stats().misses, 3u);
  // AS 2 (a peer) and AS 6 (a customer) sit behind provider 0 like stubs 4
  // and 5, and the tier-1s have no providers: each computes its own table.
  std::uint64_t misses = 3;
  for (const std::uint32_t as : {2u, 6u, 3u, 0u, 1u}) {
    sim.routes_to(AsId{as});
    EXPECT_EQ(sim.cache_stats().misses, ++misses) << "AS " << as;
  }
}

bool is_pure_stub(const AutonomousSystem& as) {
  return !as.providers.empty() && as.peers.empty() && as.customers.empty();
}

std::vector<AsId> sorted_providers(const AutonomousSystem& as) {
  std::vector<AsId> providers = as.providers;
  std::sort(providers.begin(), providers.end());
  providers.erase(std::unique(providers.begin(), providers.end()),
                  providers.end());
  return providers;
}

TEST(BgpSlots, AsesWithPeersOrCustomersGetTablesOfTheirOwn) {
  const World& world = paper_world();
  std::vector<AsId> stubs;
  std::vector<AsId> others;
  std::vector<std::vector<AsId>> provider_sets;
  for (std::uint32_t a = 0; a < world.ases.size(); ++a) {
    if (is_pure_stub(world.ases[a])) {
      stubs.push_back(AsId{a});
      provider_sets.push_back(sorted_providers(world.ases[a]));
    } else {
      others.push_back(AsId{a});
    }
  }
  std::sort(provider_sets.begin(), provider_sets.end());
  const auto distinct_sets = static_cast<std::uint64_t>(
      std::unique(provider_sets.begin(), provider_sets.end()) -
      provider_sets.begin());
  ASSERT_LT(distinct_sets, stubs.size());
  ASSERT_FALSE(others.empty());

  const BgpSimulator sim(world);
  sim.warm_routes(stubs);
  EXPECT_EQ(sim.cache_stats().misses, distinct_sets);
  // Each AS that is not a pure stub computes one new table, even when its
  // providers match a stub's.
  std::uint64_t expected = distinct_sets;
  for (const AsId as : others) {
    sim.routes_to(as);
    EXPECT_EQ(sim.cache_stats().misses, ++expected)
        << world.ases[as.value].name;
  }
  // Everything is cached now: a second pass computes nothing.
  sim.warm_routes(stubs);
  sim.warm_routes(others);
  EXPECT_EQ(sim.cache_stats().misses, expected);
}

}  // namespace
}  // namespace cloudmap
