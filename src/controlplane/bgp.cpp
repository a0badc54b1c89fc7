// lint: hot-path
#include "controlplane/bgp.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"

namespace cloudmap {
namespace {

// Route preference: higher class wins, then shorter path, then lower
// next-hop id (deterministic tie-break).
bool improves(const RouteEntry& current, RouteClass cls, std::uint8_t length,
              AsId next_hop) {
  if (cls != current.route_class())
    return static_cast<int>(cls) > static_cast<int>(current.route_class());
  if (length != current.path_length()) return length < current.path_length();
  return next_hop.value < current.next_hop().value;
}

bool is_intermittent(const Prefix& prefix, const SnapshotOptions& options) {
  if (options.intermittent_fraction <= 0.0) return false;
  std::uint64_t state = options.intermittent_seed ^
                        (static_cast<std::uint64_t>(prefix.network().value())
                         << 8) ^
                        prefix.length();
  const double roll =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return roll < options.intermittent_fraction;
}

// Route tables toward a cloud provider's prefixes: clients with a
// non-private interconnect learn a direct route; non-VPI clients re-export
// it into their customer cones (phase-3 style downward propagation).
std::vector<RouteEntry> cloud_route_table(const World& world,
                                          CloudProvider provider) {
  const std::size_t n = world.ases.size();
  std::vector<RouteEntry> table(n);
  const AsId cloud = world.cloud_primary(provider);
  table[cloud.value] = RouteEntry{RouteClass::kSelf, 0, AsId{}};

  std::deque<AsId> queue;
  for (const GroundTruthInterconnect& ic : world.interconnects) {
    if (ic.cloud != provider || ic.private_address) continue;
    RouteEntry& entry = table[ic.client.value];
    if (improves(entry, RouteClass::kPeer, 1, cloud)) {
      entry = RouteEntry{RouteClass::kPeer, 1, cloud};
      // Only non-VPI peerings re-export cloud routes downstream.
      if (ic.kind != PeeringKind::kVpi) queue.push_back(ic.client);
    }
  }
  // An AS holding both a VPI and a re-exporting peering still re-exports;
  // make sure every client with a non-VPI interconnect is queued.
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    const RouteEntry route = table[u.value];
    for (AsId customer : world.ases[u.value].customers) {
      RouteEntry& entry = table[customer.value];
      const std::uint8_t len =
          static_cast<std::uint8_t>(route.path_length() + 1);
      if (improves(entry, RouteClass::kProvider, len, u)) {
        entry = RouteEntry{RouteClass::kProvider, len, u};
        queue.push_back(customer);
      }
    }
  }
  return table;
}

// At least one provider, no peers, no customers: never a transit hop, so
// every pure stub behind one provider set can share one table.
bool pure_stub(const AutonomousSystem& as) {
  return !as.providers.empty() && as.peers.empty() && as.customers.empty();
}

// Walk next hops from `from` to the table's origin; empty on no route.
std::vector<AsId> walk_path(const RouteTable& table, AsId from) {
  std::vector<AsId> out;
  AsId current = from;
  for (int guard = 0; guard < 64; ++guard) {
    out.push_back(current);
    if (current == table.origin()) return out;
    const RouteEntry entry = table[current];
    if (!entry.has_route()) return {};
    current = entry.next_hop();
  }
  return {};
}

}  // namespace

BgpSimulator::BgpSimulator(const World& world)
    : world_(&world), slot_of_(world.ases.size()) {
  const std::size_t n = world.ases.size();
  if (n > RouteEntry::kMaxAses) {
    throw std::length_error(
        "BgpSimulator: " + std::to_string(n) +
        " ASes do not fit the route next-hop field (max " +
        std::to_string(RouteEntry::kMaxAses) + ")");
  }
  // Pure stubs grouped by sorted provider set; each group is one slot,
  // seeded from its lowest-id stub. Every other AS gets a slot of its own.
  std::vector<std::pair<std::vector<AsId>, AsId>> stubs;
  for (std::uint32_t a = 0; a < n; ++a) {
    if (!pure_stub(world.ases[a])) {
      slot_of_[a] = static_cast<std::uint32_t>(slot_seed_.size());
      slot_seed_.push_back(AsId{a});
      continue;
    }
    std::vector<AsId> providers = world.ases[a].providers;
    std::sort(providers.begin(), providers.end());
    providers.erase(std::unique(providers.begin(), providers.end()),
                    providers.end());
    stubs.emplace_back(std::move(providers), AsId{a});
  }
  std::sort(stubs.begin(), stubs.end());
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    if (i == 0 || stubs[i].first != stubs[i - 1].first)
      slot_seed_.push_back(stubs[i].second);
    slot_of_[stubs[i].second.value] =
        static_cast<std::uint32_t>(slot_seed_.size() - 1);
  }
  cache_.resize(slot_seed_.size());
  cached_ = std::vector<std::atomic<bool>>(slot_seed_.size());
}

RouteTable BgpSimulator::routes_to(AsId origin) const {
  const std::uint32_t slot = slot_of_[origin.value];
  if (!cached_[slot].load(std::memory_order_acquire)) {
    const MutexLock lock(&fill_mutex_);
    // Still under the lock: reading the table here keeps the guarded
    // access visible to -Wthread-safety.
    return RouteTable(fill(slot).data(), origin);
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  return RouteTable(published_table(slot).data(), origin);
}

void BgpSimulator::warm_routes(const std::vector<AsId>& origins) const {
  const MutexLock lock(&fill_mutex_);
  for (const AsId origin : origins) {
    const std::uint32_t slot = slot_of_[origin.value];
    if (!cached_[slot].load(std::memory_order_relaxed)) fill(slot);
  }
}

const std::vector<RouteEntry>& BgpSimulator::fill(std::uint32_t slot) const {
  std::atomic<bool>& ready = cached_[slot];
  if (ready.load(std::memory_order_relaxed)) {
    // Another thread computed the table while we waited for the lock.
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    compute(slot, cache_[slot]);
    ready.store(true, std::memory_order_release);
  }
  return cache_[slot];
}

void BgpSimulator::compute(std::uint32_t slot,
                           std::vector<RouteEntry>& table) const {
  const auto& ases = world_->ases;
  const AsId seed = slot_seed_[slot];
  table.assign(ases.size(), RouteEntry{});

  // Phase 1: customer routes climb the provider hierarchy. A shared slot
  // starts one hop up, at the providers of its phantom origin.
  std::deque<AsId> queue;
  if (pure_stub(ases[seed.value])) {
    for (AsId provider : ases[seed.value].providers) {
      table[provider.value] = RouteEntry::phantom(RouteClass::kCustomer, 1);
      queue.push_back(provider);
    }
  } else {
    table[seed.value] = RouteEntry{RouteClass::kSelf, 0, AsId{}};
    queue.push_back(seed);
  }
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    const RouteEntry route = table[u.value];
    if (route.route_class() != RouteClass::kSelf &&
        route.route_class() != RouteClass::kCustomer)
      continue;  // stale queue entry overwritten by a better class
    for (AsId provider : ases[u.value].providers) {
      const std::uint8_t len =
          static_cast<std::uint8_t>(route.path_length() + 1);
      RouteEntry& entry = table[provider.value];
      if (improves(entry, RouteClass::kCustomer, len, u)) {
        entry = RouteEntry{RouteClass::kCustomer, len, u};
        queue.push_back(provider);
      }
    }
  }
  // Phase 2: customer/self routes are exported to peers (one lateral hop).
  for (std::uint32_t u = 0; u < ases.size(); ++u) {
    const RouteEntry route = table[u];
    if (route.route_class() != RouteClass::kSelf &&
        route.route_class() != RouteClass::kCustomer)
      continue;
    for (AsId peer : ases[u].peers) {
      const std::uint8_t len =
          static_cast<std::uint8_t>(route.path_length() + 1);
      RouteEntry& entry = table[peer.value];
      if (improves(entry, RouteClass::kPeer, len, AsId{u}))
        entry = RouteEntry{RouteClass::kPeer, len, AsId{u}};
    }
  }
  // Phase 3: every routed AS exports its best route to its customers.
  for (std::uint32_t u = 0; u < ases.size(); ++u)
    if (table[u].has_route()) queue.push_back(AsId{u});
  while (!queue.empty()) {
    const AsId u = queue.front();
    queue.pop_front();
    const RouteEntry route = table[u.value];
    for (AsId customer : ases[u.value].customers) {
      const std::uint8_t len =
          static_cast<std::uint8_t>(route.path_length() + 1);
      RouteEntry& entry = table[customer.value];
      if (improves(entry, RouteClass::kProvider, len, u)) {
        entry = RouteEntry{RouteClass::kProvider, len, u};
        queue.push_back(customer);
      }
    }
  }
}

std::vector<AsId> BgpSimulator::path(AsId from, AsId origin) const {
  return walk_path(routes_to(origin), from);
}

bool BgpSimulator::reachable(AsId from, AsId origin) const {
  return routes_to(origin)[from].has_route();
}

std::vector<AsId> default_collector_feeds(const World& world,
                                          std::uint64_t seed,
                                          double tier2_fraction) {
  Rng rng(seed);
  std::vector<AsId> feeds;
  for (std::uint32_t i = 0; i < world.ases.size(); ++i) {
    if (world.ases[i].type == AsType::kTier1) feeds.push_back(AsId{i});
    else if (world.ases[i].type == AsType::kTier2 &&
             rng.chance(tier2_fraction))
      feeds.push_back(AsId{i});
  }
  return feeds;
}

BgpSnapshot build_snapshot(const World& world, const BgpSimulator& sim,
                           const std::vector<AsId>& collector_feeds,
                           const SnapshotOptions& options) {
  BgpSnapshot snapshot;

  // One lock round-trip for every table this snapshot will read.
  std::vector<AsId> origins;
  for (std::uint32_t o = 0; o < world.ases.size(); ++o) {
    const AutonomousSystem& origin = world.ases[o];
    if (origin.type != AsType::kCloud && !origin.announced_prefixes.empty())
      origins.push_back(AsId{o});
  }
  sim.warm_routes(origins);

  auto add_path_links = [&](const std::vector<AsId>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      snapshot.as_links.insert(BgpSnapshot::link_key(
          world.ases[path[i].value].asn, world.ases[path[i + 1].value].asn));
    }
  };

  // Non-cloud origins: visible when any feed holds a route.
  for (std::uint32_t o = 0; o < world.ases.size(); ++o) {
    const AutonomousSystem& origin = world.ases[o];
    if (origin.type == AsType::kCloud) continue;
    if (origin.announced_prefixes.empty()) continue;
    const RouteTable table = sim.routes_to(AsId{o});
    bool visible = false;
    for (AsId feed : collector_feeds) {
      if (!table[feed].has_route()) continue;
      visible = true;
      add_path_links(walk_path(table, feed));
    }
    if (!visible) continue;
    for (const Prefix& prefix : origin.announced_prefixes) {
      if (!options.include_intermittent && is_intermittent(prefix, options))
        continue;
      snapshot.origin_of.insert(prefix, origin.asn);
    }
  }

  // Cloud origins: direct peer routes at clients, re-export by non-VPI
  // peerings only.
  for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
    const CloudProvider provider = static_cast<CloudProvider>(p);
    if (world.cloud_ases[p].empty()) continue;
    const std::vector<RouteEntry> rows = cloud_route_table(world, provider);
    const AsId primary = world.cloud_primary(provider);
    const RouteTable table(rows.data(), primary);
    bool visible = false;
    for (AsId feed : collector_feeds) {
      if (!table[feed].has_route()) continue;
      visible = true;
      add_path_links(walk_path(table, feed));
    }
    if (!visible) continue;
    for (const Prefix& prefix : world.ases[primary.value].announced_prefixes)
      snapshot.origin_of.insert(prefix, world.ases[primary.value].asn);
  }

  snapshot.origin_of.freeze();
  return snapshot;
}

std::vector<std::uint64_t> customer_cone_slash24s(const World& world) {
  const std::size_t n = world.ases.size();
  std::vector<std::uint64_t> cones(n, 0);
  for (std::uint32_t a = 0; a < n; ++a) {
    // BFS over the customer edges, counting /24 equivalents once per AS.
    std::uint64_t total = 0;
    std::vector<bool> seen(n, false);
    std::deque<AsId> queue{AsId{a}};
    seen[a] = true;
    while (!queue.empty()) {
      const AsId u = queue.front();
      queue.pop_front();
      for (const Prefix& prefix : world.ases[u.value].announced_prefixes) {
        total += prefix.length() >= 24
                     ? 1
                     : (std::uint64_t{1} << (24 - prefix.length()));
      }
      for (AsId customer : world.ases[u.value].customers) {
        if (!seen[customer.value]) {
          seen[customer.value] = true;
          queue.push_back(customer);
        }
      }
    }
    cones[a] = total;
  }
  return cones;
}

}  // namespace cloudmap
