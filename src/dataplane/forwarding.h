// Router-level forwarding over the world. The Forwarder answers one
// question: which sequence of (router, incoming-interface, one-way latency)
// does a packet traverse from a vantage point to a destination address?
//
// Route selection is two-level, mirroring reality:
//   * AS level — cloud FIBs built from per-interconnect announcements
//     (longest prefix, then hot-potato toward the nearest egress), and
//     Gao-Rexford best paths for the non-cloud part of the walk;
//   * router level — region core → backbone mesh → (aggregation) border
//     chains inside a cloud, full-mesh IGP hops inside client ASes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "controlplane/bgp.h"
#include "dataplane/vantage.h"
#include "net/flat_hash.h"
#include "net/flat_prefix_trie.h"
#include "topology/world.h"

namespace cloudmap {

// One forwarding step: the packet arrives at `router` through `incoming`
// having accumulated `oneway_ms` of propagation delay since the source.
struct ForwardHop {
  RouterId router;
  InterfaceId incoming;
  double oneway_ms = 0.0;
};

enum class PathOutcome : std::uint8_t {
  kDelivered = 0,   // final hop's router hosts the destination address
  kNoRoute,         // dropped for lack of a matching route
};

struct ForwardPath {
  std::vector<ForwardHop> hops;
  PathOutcome outcome = PathOutcome::kNoRoute;
  // Set when the path crossed a cloud-client interconnect of the source
  // cloud (the ground-truth link the probe egressed through).
  LinkId egress_interconnect;
  // Interface owning the destination address, if any. Resolved once per
  // path so downstream consumers (the traceroute engine's final-hop check)
  // need not repeat the address-table probe.
  InterfaceId dst_interface;
};

class Forwarder {
 public:
  // Builds FIBs and helper indices; `sim` must outlive the forwarder.
  Forwarder(const World& world, const BgpSimulator& sim);

  // Path from a vantage point to a destination address. `epoch` selects a
  // forwarding-state generation for the route-churn hazard: epoch 0 is the
  // unperturbed state (bit-identical to the pre-hazard forwarder); any
  // other value re-keys the per-destination ECMP tie-breaks, modelling an
  // IGP/BGP reconvergence that shifted equal-cost choices fabric-wide.
  ForwardPath path(const VantagePoint& vp, Ipv4 dst,
                   std::uint32_t epoch = 0) const;

  // As path(), but writes into a caller-owned result whose hop storage is
  // reused across calls (the traceroute engine keeps one scratch path per
  // engine, so steady-state tracing performs no per-path allocation).
  void path_into(const VantagePoint& vp, Ipv4 dst, ForwardPath& out,
                 std::uint32_t epoch = 0) const;

  // Round-trip propagation delay from a vantage point to the router owning
  // interface `target` (no response simulation — pure geometry); nullopt
  // when no route exists. Public vantage points additionally require the
  // covering prefix to be BGP-announced.
  std::optional<double> rtt_to_interface(const VantagePoint& vp,
                                         InterfaceId target) const;

  // Ping an arbitrary address: resolves it to an interface (if any) and
  // defers to rtt_to_interface. This emulates probing an IP whose identity
  // the prober does not know.
  std::optional<double> rtt_to_address(const VantagePoint& vp,
                                       Ipv4 target) const;

  const BgpSimulator& bgp() const noexcept { return *sim_; }
  const World& world() const noexcept { return *world_; }

 private:
  // A cloud-FIB entry's egress candidates, grouped by the owner AS of each
  // link's client side: CloudFib::groups [first_group, first_group +
  // group_count), sorted by owner, whose links lie contiguously in
  // CloudFib::links.
  struct FibEntry {
    std::uint32_t first_group = 0;
    std::uint32_t group_count = 0;
  };
  // The candidates of one entry whose client side `owner` holds:
  // CloudFib::links [first_link, first_link + link_count), in interconnect
  // order (link, then secondary_link).
  struct EgressGroup {
    AsId owner;
    std::uint32_t first_link = 0;
    std::uint32_t link_count = 0;
  };
  // One cloud's FIB: the trie plus the flat arrays its entries index.
  struct CloudFib {
    FlatPrefixTrie<FibEntry> trie;
    std::vector<EgressGroup> groups;
    std::vector<LinkId> links;
  };

  // Cloud-internal chain from a region core to a cloud router (core, border,
  // or aggregation border), following backbone mesh + uplink chains.
  // `flow_hash` adds per-destination ECMP variation to uplink choice.
  bool cloud_internal_chain(RegionId region, RouterId target,
                            std::uint32_t flow_hash,
                            std::vector<ForwardHop>& hops) const;

  // Append the hop reached by traversing `link` from `from_router`.
  void append_link_hop(LinkId link, RouterId from_router,
                       std::vector<ForwardHop>& hops) const;

  // Intra-AS direct link between two routers of the same AS (full mesh).
  std::optional<LinkId> intra_link(RouterId a, RouterId b) const;

  // First inter-AS link between two neighboring ASes.
  std::optional<LinkId> inter_as_link(AsId a, AsId b) const;

  // Pick the hot-potato egress among an entry's candidates for a source
  // region, with per-destination ECMP tie-breaking among near-equal
  // choices. When `direct_origin` is valid and a group of candidates lands
  // in that AS, only that group is scored (a direct route to the
  // destination's origin beats transit re-announcements); otherwise every
  // candidate is.
  LinkId choose_egress(RegionId region, const CloudFib& fib,
                       const FibEntry& entry, std::uint32_t flow_hash,
                       AsId direct_origin) const;

  // Walk from an entry router inside AS `current` toward the origin AS of
  // `dst`, appending hops; returns outcome. `dst_iface` and `announced` are
  // the caller's already-resolved find_interface(dst) and
  // announced_origin_.lookup(dst).
  PathOutcome walk_client_side(RouterId entry, Ipv4 dst,
                               InterfaceId dst_iface, const AsId* announced,
                               std::vector<ForwardHop>& hops) const;

  const World* world_;
  const BgpSimulator* sim_;
  CloudFib cloud_fib_[kCloudProviderCount];
  // All announced prefixes → origin AsId (invalid when the origin's ASN is
  // missing from World::as_by_asn).
  FlatPrefixTrie<AsId> announced_origin_;
  FlatHashMap<std::uint64_t, LinkId> intra_links_;
  FlatHashMap<std::uint64_t, LinkId> inter_as_links_;
  // Memoized great-circle distances, [region * routers.size() + router]:
  // from the region core (backbone-climb scoring) and from the region's
  // metro (hot-potato egress choice). Entries are the exact doubles
  // haversine_km returns for the same endpoints, so the memo cannot perturb
  // route choice.
  std::vector<double> core_km_;
  std::vector<double> metro_km_;
  // Per-link egress metadata, indexed by link id: the cloud-side border
  // router (side_a's router), which folds the link → interface → router
  // indirections out of the choose_egress scan, and the link's place in
  // interconnect order, which breaks exact score ties the way a scan of
  // the candidates in that order would.
  std::vector<RouterId> link_border_router_;
  std::vector<std::uint32_t> link_rank_;

  static std::uint64_t key(std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
};

}  // namespace cloudmap
