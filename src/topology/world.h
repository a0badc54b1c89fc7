// The World: the complete ground-truth state of the synthetic Internet plus
// the lookup indices the data plane and control plane need. Built once by
// TopologyGenerator, then treated as immutable by everything downstream.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/flat_hash.h"
#include "net/flat_prefix_trie.h"
#include "net/ids.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "topology/entities.h"

namespace cloudmap {

class World {
 public:
  // --- entity tables (filled by the generator) ---
  std::vector<Metro> metros;
  std::vector<ColoFacility> colos;
  std::vector<Ixp> ixps;
  std::vector<Region> regions;
  std::vector<AutonomousSystem> ases;
  std::vector<Router> routers;
  std::vector<Interface> interfaces;
  std::vector<Link> links;
  std::vector<GroundTruthInterconnect> interconnects;

  // --- arenas (SoA layout; see IdSpan in entities.h) ---
  // Backing pools for Router::interfaces and Router::extra_uplinks spans.
  // The interface pool is packed by seal(); the uplink pool is appended
  // in-order during construction via add_extra_uplink.
  std::vector<InterfaceId> router_iface_pool;
  std::vector<LinkId> router_uplink_pool;

  // ASes of each cloud provider (primary AS first).
  std::vector<AsId> cloud_ases[kCloudProviderCount];

  // --- indices ---
  // Ground-truth owner of every allocated prefix (announced, WHOIS-only,
  // IXP LANs, interconnect subnets). The generator inserts; seal() freezes.
  FlatPrefixTrie<AsId> prefix_owner;
  // Router that terminates probes aimed into a prefix (the "hosting" edge
  // router for that address block). The generator inserts; seal() freezes.
  FlatPrefixTrie<RouterId> hosting_router;
  // Interface holding each assigned address, built by seal(). An address
  // on several interfaces (shared L2 ports, redundant sessions, always one
  // router) resolves to the highest interface index.
  FlatHashMap<std::uint32_t, InterfaceId> interface_by_ip;
  std::unordered_map<std::uint32_t, AsId> as_by_asn;

  // --- accessors ---
  const Metro& metro(MetroId id) const { return metros[id.value]; }
  const ColoFacility& colo(ColoId id) const { return colos[id.value]; }
  const Ixp& ixp(IxpId id) const { return ixps[id.value]; }
  const Region& region(RegionId id) const { return regions[id.value]; }
  const AutonomousSystem& as_of(AsId id) const { return ases[id.value]; }
  const Router& router(RouterId id) const { return routers[id.value]; }
  const Interface& interface(InterfaceId id) const {
    return interfaces[id.value];
  }
  const Link& link(LinkId id) const { return links[id.value]; }

  // Primary AS of a cloud provider (e.g. Amazon's main ASN).
  AsId cloud_primary(CloudProvider provider) const {
    return cloud_ases[static_cast<std::size_t>(provider)].front();
  }

  bool is_cloud_as(AsId id, CloudProvider provider) const {
    for (AsId cloud : cloud_ases[static_cast<std::size_t>(provider)])
      if (cloud == id) return true;
    return false;
  }

  // Regions belonging to one provider, in table order.
  std::vector<RegionId> regions_of(CloudProvider provider) const;

  // AS owner of a router (by its owner field).
  AsId router_owner(RouterId id) const { return routers[id.value].owner; }

  // Interfaces of a router, resolved out of the arena (valid after seal()).
  IdSpanView<InterfaceId> router_interfaces(RouterId id) const {
    const IdSpan span = routers[id.value].interfaces;
    return IdSpanView<InterfaceId>(router_iface_pool.data() + span.first,
                                   span.count);
  }

  // Extra backbone uplinks of a cloud border router.
  IdSpanView<LinkId> router_extra_uplinks(const Router& router) const {
    return IdSpanView<LinkId>(
        router_uplink_pool.data() + router.extra_uplinks.first,
        router.extra_uplinks.count);
  }

  // Interface lookup by address; invalid id when unknown.
  InterfaceId find_interface(Ipv4 address) const {
    const InterfaceId* found = interface_by_ip.find(address.value());
    return found == nullptr ? InterfaceId{} : *found;
  }

  // AS that owns the address block containing `address` (ground truth);
  // invalid AsId when the address is unallocated.
  AsId owner_of(Ipv4 address) const;

  // Geographic location of a router's metro.
  const GeoPoint& router_location(RouterId id) const {
    return metros[routers[id.value].metro.value].location;
  }

  // The far-end interface of a link relative to `from`.
  InterfaceId link_other_side(LinkId link_id, InterfaceId from) const {
    const Link& l = links[link_id.value];
    return (l.side_a == from) ? l.side_b : l.side_a;
  }

  // All /24 prefixes of allocated, publicly probeable address space —
  // the round-1 sweep targets (§3). Excludes cloud-internal private space.
  std::vector<Prefix> probeable_slash24s() const;

  // --- registration helpers used by the generator ---
  InterfaceId add_interface(RouterId router_id, Ipv4 address, LinkId link_id);
  LinkId add_link(InterfaceId a, InterfaceId b, LinkKind kind,
                  double latency_ms);
  // Create a point-to-point link between two routers, minting one interface
  // on each side with the given addresses. Returns the link id.
  LinkId connect(RouterId router_a, Ipv4 address_a, RouterId router_b,
                 Ipv4 address_b, LinkKind kind, double latency_ms);
  // Record an extra backbone uplink for a router. Appends to the shared
  // uplink arena, so all of one router's uplinks must be added before any
  // other router's (the generator builds borders one at a time).
  void add_extra_uplink(RouterId router_id, LinkId link);

  // Build every index once: pack the router→interface arena from the
  // interface table, freeze prefix_owner and hosting_router, and build
  // interface_by_ip. Runs once, after the last add_interface and the last
  // trie insert; nothing may query a World before it runs. Per-router
  // interface order is insertion order (== global interface index order).
  void seal();

  // Internal consistency check (used by tests): every interface belongs to
  // its router's list, link endpoints agree, prefix owners exist, etc.
  // Returns an empty string when consistent, else a description of the
  // first violation found.
  std::string validate() const;
};

}  // namespace cloudmap
