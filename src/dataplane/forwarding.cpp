#include "dataplane/forwarding.h"

#include <algorithm>
#include <array>
#include <map>

#include "net/geo.h"
#include "util/rng.h"

namespace cloudmap {

Forwarder::Forwarder(const World& world, const BgpSimulator& sim)
    : world_(&world), sim_(&sim) {
  // Intra-AS and inter-AS link indices.
  for (std::uint32_t l = 0; l < world.links.size(); ++l) {
    const Link& link = world.links[l];
    const RouterId ra = world.interfaces[link.side_a.value].router;
    const RouterId rb = world.interfaces[link.side_b.value].router;
    if (link.kind == LinkKind::kIntraAs) {
      intra_links_.insert(key(ra.value, rb.value), LinkId{l});
      intra_links_.insert(key(rb.value, ra.value), LinkId{l});
    } else if (link.kind == LinkKind::kTransit ||
               link.kind == LinkKind::kPeer) {
      const AsId asa = world.router_owner(ra);
      const AsId asb = world.router_owner(rb);
      inter_as_links_.insert(key(asa.value, asb.value), LinkId{l});
      inter_as_links_.insert(key(asb.value, asa.value), LinkId{l});
    }
  }
  intra_links_.freeze();
  inter_as_links_.freeze();
  // Announced-prefix origin table (the BGP ground truth; collector snapshots
  // are a filtered view of this), resolved to the origin's AsId once here
  // rather than per path.
  for (const AutonomousSystem& as : world.ases) {
    const auto it = world.as_by_asn.find(as.asn.value);
    const AsId origin = it == world.as_by_asn.end() ? AsId{} : it->second;
    for (const Prefix& prefix : as.announced_prefixes)
      announced_origin_.insert(prefix, origin);
  }
  announced_origin_.freeze();

  // Cloud FIBs: per-interconnect announcements plus an exact /32 route to
  // each interconnect's client address. Each prefix gathers its egress
  // links in interconnect order; the links are then grouped by the owner
  // AS of their client side (a stable sort, so each group keeps
  // interconnect order) into the cloud's flat arrays, and the flat tries
  // are built once. link_rank_ records that order for tie-breaks.
  link_rank_.assign(world.links.size(), UINT32_MAX);
  std::map<Prefix, std::vector<LinkId>> fib_build[kCloudProviderCount];
  for (std::uint32_t i = 0; i < world.interconnects.size(); ++i) {
    const GroundTruthInterconnect& ic = world.interconnects[i];
    if (ic.private_address) continue;
    auto& fib = fib_build[static_cast<int>(ic.cloud)];
    const Ipv4 client_addr = world.interfaces[ic.client_interface.value].address;
    const auto rank = [&](LinkId link, std::uint32_t at) {
      link_rank_[link.value] = std::min(link_rank_[link.value], at);
    };
    rank(ic.link, 2 * i);
    if (ic.secondary_link.valid()) rank(ic.secondary_link, 2 * i + 1);
    const auto add = [&](const Prefix& prefix) {
      std::vector<LinkId>& egress = fib[prefix];
      egress.push_back(ic.link);
      if (ic.secondary_link.valid()) egress.push_back(ic.secondary_link);
    };
    for (const Prefix& prefix : ic.announced_to_cloud) add(prefix);
    add(Prefix(client_addr, 32));
  }
  const auto client_owner = [&](LinkId link) {
    return world.router_owner(
        world.interfaces[world.links[link.value].side_b.value].router);
  };
  for (int p = 0; p < static_cast<int>(kCloudProviderCount); ++p) {
    CloudFib& fib = cloud_fib_[p];
    for (auto& [prefix, egress] : fib_build[p]) {
      std::stable_sort(egress.begin(), egress.end(),
                       [&](LinkId a, LinkId b) {
                         return client_owner(a) < client_owner(b);
                       });
      FibEntry entry;
      entry.first_group = static_cast<std::uint32_t>(fib.groups.size());
      for (const LinkId link : egress) {
        const AsId owner = client_owner(link);
        if (fib.groups.size() == entry.first_group ||
            fib.groups.back().owner != owner) {
          fib.groups.push_back(EgressGroup{
              owner, static_cast<std::uint32_t>(fib.links.size()), 0});
        }
        ++fib.groups.back().link_count;
        fib.links.push_back(link);
      }
      entry.group_count =
          static_cast<std::uint32_t>(fib.groups.size()) - entry.first_group;
      fib.trie.insert(prefix, entry);
    }
    fib.trie.freeze();
    fib.groups.shrink_to_fit();
    fib.links.shrink_to_fit();
  }

  // Per-link egress metadata for the choose_egress scan.
  link_border_router_.resize(world.links.size());
  for (std::uint32_t l = 0; l < world.links.size(); ++l)
    link_border_router_[l] =
        world.interfaces[world.links[l].side_a.value].router;

  // Distance memo: every per-hop score in cloud_internal_chain and
  // choose_egress reads these instead of recomputing the haversine trig.
  const std::size_t n_routers = world.routers.size();
  core_km_.resize(world.regions.size() * n_routers);
  metro_km_.resize(world.regions.size() * n_routers);
  for (std::uint32_t r = 0; r < world.regions.size(); ++r) {
    const GeoPoint& core =
        world.router_location(world.regions[r].core_router);
    const GeoPoint& metro = world.metro(world.regions[r].metro).location;
    double* core_row = &core_km_[r * n_routers];
    double* metro_row = &metro_km_[r * n_routers];
    for (std::uint32_t i = 0; i < n_routers; ++i) {
      const GeoPoint& at = world.router_location(RouterId{i});
      core_row[i] = haversine_km(core, at);
      metro_row[i] = haversine_km(metro, at);
    }
  }
}

void Forwarder::append_link_hop(LinkId link, RouterId from_router,
                                std::vector<ForwardHop>& hops) const {
  const Link& l = world_->link(link);
  const InterfaceId a = l.side_a;
  const InterfaceId b = l.side_b;
  const InterfaceId arrive =
      world_->interface(a).router == from_router ? b : a;
  const double base = hops.empty() ? 0.0 : hops.back().oneway_ms;
  hops.push_back(ForwardHop{world_->interface(arrive).router, arrive,
                            base + l.latency_ms});
}

std::optional<LinkId> Forwarder::intra_link(RouterId a, RouterId b) const {
  const LinkId* link = intra_links_.find(key(a.value, b.value));
  if (link == nullptr) return std::nullopt;
  return *link;
}

std::optional<LinkId> Forwarder::inter_as_link(AsId a, AsId b) const {
  const LinkId* link = inter_as_links_.find(key(a.value, b.value));
  if (link == nullptr) return std::nullopt;
  return *link;
}

namespace {
// Deterministic per-(flow, link) jitter in [0, 1): ECMP hashing stand-in.
double flow_jitter(std::uint32_t flow_hash, std::uint32_t link) {
  std::uint64_t state = (static_cast<std::uint64_t>(flow_hash) << 32) ^
                        (link * 0x9e3779b97f4a7c15ULL);
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}
}  // namespace

bool Forwarder::cloud_internal_chain(RegionId region, RouterId target,
                                     std::uint32_t flow_hash,
                                     std::vector<ForwardHop>& hops) const {
  const RouterId core = world_->region(region).core_router;
  if (target == core) return true;
  const double* core_km =
      &core_km_[static_cast<std::size_t>(region.value) *
                world_->routers.size()];
  // Climb upstream from the target toward a core, at each step taking the
  // attachment whose far end is closest to the source region — the border's
  // observed upstream interface (the ABI) therefore depends on where the
  // probe entered the backbone. The guard bounds the climb at 32 levels, so
  // the chain fits a fixed stack buffer.
  std::array<LinkId, 34> chain;
  int chain_len = 0;
  RouterId current = target;
  int guard = 0;
  while (world_->routers[current.value].uplink.valid()) {
    const Router& router = world_->routers[current.value];
    LinkId up = router.uplink;
    RouterId parent;
    {
      const Link& l = world_->link(up);
      const RouterId ra = world_->interface(l.side_a).router;
      const RouterId rb = world_->interface(l.side_b).router;
      parent = (ra == current) ? rb : ra;
    }
    // Score attachments by distance toward the source, with per-flow ECMP
    // jitter so near-equal choices split across destinations. Distances come
    // from the memo; the jitter draw is pure, so one evaluation stands in
    // for both uses in the scoring expression.
    auto score = [&](RouterId candidate, LinkId link) {
      const double km = candidate == core ? 0.0 : core_km[candidate.value];
      const double j = flow_jitter(flow_hash, link.value);
      return km * (1.0 + 0.35 * j) + j;
    };
    double best_score = score(parent, up);
    for (const LinkId extra : world_->router_extra_uplinks(router)) {
      const Link& l = world_->link(extra);
      const RouterId ra = world_->interface(l.side_a).router;
      const RouterId rb = world_->interface(l.side_b).router;
      const RouterId candidate = (ra == current) ? rb : ra;
      const double candidate_score = score(candidate, extra);
      if (candidate_score < best_score) {
        best_score = candidate_score;
        up = extra;
        parent = candidate;
      }
    }
    chain[chain_len++] = up;
    current = parent;
    if (++guard > 32) return false;
  }
  // `current` is now a region core; hop across the backbone mesh if needed.
  if (current != core) {
    const auto mesh = intra_link(core, current);
    if (!mesh) return false;
    append_link_hop(*mesh, core, hops);
  }
  // Descend the chain toward the target.
  RouterId at = current;
  for (int i = chain_len - 1; i >= 0; --i) {
    append_link_hop(chain[i], at, hops);
    at = hops.back().router;
  }
  return at == target;
}

LinkId Forwarder::choose_egress(RegionId region, const CloudFib& fib,
                                const FibEntry& entry,
                                std::uint32_t flow_hash,
                                AsId direct_origin) const {
  const double* metro_km =
      &metro_km_[static_cast<std::size_t>(region.value) *
                 world_->routers.size()];
  const EgressGroup* groups = fib.groups.data() + entry.first_group;
  const EgressGroup* groups_end = groups + entry.group_count;
  // Score the direct group alone when the destination's origin holds one;
  // else every candidate (the groups' links are contiguous).
  std::uint32_t first = groups->first_link;
  std::uint32_t end = groups_end[-1].first_link + groups_end[-1].link_count;
  if (direct_origin.valid()) {
    const EgressGroup* direct = std::lower_bound(
        groups, groups_end, direct_origin,
        [](const EgressGroup& g, AsId owner) { return g.owner < owner; });
    if (direct != groups_end && direct->owner == direct_origin) {
      first = direct->first_link;
      end = first + direct->link_count;
    }
  }
  LinkId best = fib.links[first];
  double best_score = 1e18;
  for (std::uint32_t i = first; i < end; ++i) {
    // Cloud side is side_a by construction (the generator adds the border
    // interface first); use its router's metro for hot-potato choice, with
    // per-destination ECMP jitter splitting near-equal candidates. An exact
    // tie goes to the candidate earlier in interconnect order.
    const LinkId link = fib.links[i];
    const RouterId border = link_border_router_[link.value];
    const double j = flow_jitter(flow_hash, link.value);
    const double candidate_score =
        metro_km[border.value] * (1.0 + 0.35 * j) + j;
    if (candidate_score < best_score ||
        (candidate_score == best_score &&
         link_rank_[link.value] < link_rank_[best.value])) {
      best_score = candidate_score;
      best = link;
    }
  }
  return best;
}

PathOutcome Forwarder::walk_client_side(RouterId entry, Ipv4 dst,
                                        InterfaceId dst_iface,
                                        const AsId* announced,
                                        std::vector<ForwardHop>& hops) const {
  // Destination interface (if the target is an interface address) takes
  // priority over the hosting-prefix router.
  AsId origin{};
  if (announced != nullptr) {
    origin = *announced;
  } else if (dst_iface.valid()) {
    // Unannounced interconnect space: deliverable only when the walk is
    // already inside the owning AS (no BGP route exists toward it).
    origin = world_->router_owner(world_->interface(dst_iface).router);
    if (origin != world_->router_owner(entry)) return PathOutcome::kNoRoute;
  } else {
    return PathOutcome::kNoRoute;
  }

  RouterId current = entry;
  AsId current_as = world_->router_owner(entry);
  int guard = 0;
  // One cache probe for the whole walk: the published table is immutable,
  // so every AS hop reads the same view.
  const RouteTable table = sim_->routes_to(origin);
  while (current_as != origin) {
    if (++guard > 32) return PathOutcome::kNoRoute;
    const RouteEntry route = table[current_as];
    if (!route.has_route()) return PathOutcome::kNoRoute;
    const AsId next = route.next_hop();
    const auto link = inter_as_link(current_as, next);
    if (!link) return PathOutcome::kNoRoute;
    // Exit router of the current AS on that link.
    const Link& l = world_->link(*link);
    const RouterId ra = world_->interface(l.side_a).router;
    const RouterId rb = world_->interface(l.side_b).router;
    const RouterId exit = (world_->router_owner(ra) == current_as) ? ra : rb;
    if (exit != current) {
      const auto mesh = intra_link(current, exit);
      if (!mesh) return PathOutcome::kNoRoute;
      append_link_hop(*mesh, current, hops);
    }
    append_link_hop(*link, exit, hops);
    current = hops.back().router;
    current_as = next;
  }
  // Inside the origin AS: deliver to the interface's router, or to the
  // hosting router of the covering block.
  RouterId target;
  if (dst_iface.valid() &&
      world_->router_owner(world_->interface(dst_iface).router) == origin) {
    target = world_->interface(dst_iface).router;
  } else {
    const RouterId* hosting = world_->hosting_router.lookup(dst);
    if (hosting == nullptr) return PathOutcome::kNoRoute;
    target = *hosting;
  }
  if (target != current) {
    const auto mesh = intra_link(current, target);
    if (!mesh) return PathOutcome::kNoRoute;
    append_link_hop(*mesh, current, hops);
  }
  return PathOutcome::kDelivered;
}

ForwardPath Forwarder::path(const VantagePoint& vp, Ipv4 dst,
                            std::uint32_t epoch) const {
  ForwardPath out;
  path_into(vp, dst, out, epoch);
  return out;
}

void Forwarder::path_into(const VantagePoint& vp, Ipv4 dst, ForwardPath& out,
                          std::uint32_t epoch) const {
  // The per-destination flow hash keys every ECMP tie-break below. Epoch 0
  // must leave it untouched (the route-churn hazard's determinism contract:
  // no hazard ⇒ bit-identical paths), so the perturbation is gated rather
  // than unconditionally mixed.
  const std::uint32_t flow =
      epoch == 0 ? dst.value() : dst.value() ^ (0x9E3779B9u * epoch);
  out.hops.clear();
  out.outcome = PathOutcome::kNoRoute;
  out.egress_interconnect = LinkId{};
  // One address-table probe per path; every consumer below (and the
  // traceroute engine, via the result) reads this copy.
  const InterfaceId dst_iface = world_->find_interface(dst);
  out.dst_interface = dst_iface;
  if (vp.is_cloud()) {
    const Region& region = world_->region(vp.region);
    const RouterId core = region.core_router;
    // First hop: the VM's gateway (the region core's host-facing interface).
    out.hops.push_back(ForwardHop{core, region.vm_gateway, 0.25});

    const CloudFib& fib = cloud_fib_[static_cast<int>(vp.provider)];
    const FibEntry* entry = fib.trie.lookup(dst);
    if (entry != nullptr && entry->group_count > 0) {
      // Prefer a direct route to the destination's origin AS over transit
      // re-announcements of the same prefix, then hot-potato. The origin
      // lookup also serves the client-side walk below.
      const AsId* announced = announced_origin_.lookup(dst);
      const AsId direct_origin = announced == nullptr ? AsId{} : *announced;
      const LinkId egress =
          choose_egress(vp.region, fib, *entry, flow, direct_origin);
      const Link& l = world_->link(egress);
      const RouterId border = world_->interface(l.side_a).router;
      if (!cloud_internal_chain(vp.region, border, flow, out.hops)) {
        out.outcome = PathOutcome::kNoRoute;
        return;
      }
      append_link_hop(egress, border, out.hops);
      out.egress_interconnect = egress;
      const RouterId client_router = out.hops.back().router;
      // Delivered if the target is this very interface/router; otherwise
      // continue the walk on the client side.
      if (dst_iface.valid() &&
          world_->interface(dst_iface).router == client_router) {
        out.outcome = PathOutcome::kDelivered;
      } else {
        out.outcome = walk_client_side(client_router, dst, dst_iface,
                                       announced, out.hops);
      }
      return;
    }
    // No egress FIB entry: cloud-internal destination?
    if (dst_iface.valid()) {
      const RouterId router = world_->interface(dst_iface).router;
      const AsId owner = world_->router_owner(router);
      const OrgId cloud_org =
          world_->ases[world_->cloud_primary(vp.provider).value].org;
      if (world_->ases[owner.value].org == cloud_org) {
        if (cloud_internal_chain(vp.region, router, flow, out.hops)) {
          out.outcome = PathOutcome::kDelivered;
          return;
        }
      }
    }
    // Cloud-hosted block (VM space)?
    const RouterId* hosting = world_->hosting_router.lookup(dst);
    if (hosting != nullptr) {
      const AsId owner = world_->router_owner(*hosting);
      const OrgId cloud_org =
          world_->ases[world_->cloud_primary(vp.provider).value].org;
      if (world_->ases[owner.value].org == cloud_org &&
          cloud_internal_chain(vp.region, *hosting, flow, out.hops)) {
        out.outcome = PathOutcome::kDelivered;
        return;
      }
    }
    out.outcome = PathOutcome::kNoRoute;
    return;
  }

  // Public-Internet vantage: start at the host router, no gateway hop.
  out.hops.push_back(ForwardHop{vp.host_router, InterfaceId{}, 0.0});
  out.outcome = walk_client_side(vp.host_router, dst, dst_iface,
                                 announced_origin_.lookup(dst), out.hops);
}

std::optional<double> Forwarder::rtt_to_address(const VantagePoint& vp,
                                                Ipv4 target) const {
  const InterfaceId iface = world_->find_interface(target);
  if (!iface.valid()) return std::nullopt;
  return rtt_to_interface(vp, iface);
}

std::optional<double> Forwarder::rtt_to_interface(const VantagePoint& vp,
                                                  InterfaceId target) const {
  const Interface& iface = world_->interface(target);
  const ForwardPath p = path(vp, iface.address);
  if (p.outcome != PathOutcome::kDelivered || p.hops.empty())
    return std::nullopt;
  if (p.hops.back().router != iface.router) return std::nullopt;
  if (!vp.is_cloud() &&
      !world_->routers[iface.router.value].publicly_reachable)
    return std::nullopt;
  return 2.0 * p.hops.back().oneway_ms;
}

}  // namespace cloudmap
