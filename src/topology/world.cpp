#include "topology/world.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace cloudmap {

std::vector<RegionId> World::regions_of(CloudProvider provider) const {
  std::vector<RegionId> out;
  for (std::uint32_t i = 0; i < regions.size(); ++i)
    if (regions[i].provider == provider) out.push_back(RegionId{i});
  return out;
}

AsId World::owner_of(Ipv4 address) const {
  const AsId* owner = prefix_owner.lookup(address);
  return owner == nullptr ? AsId{} : *owner;
}

std::vector<Prefix> World::probeable_slash24s() const {
  // Deduplicate at /24 granularity: allocations longer than /24 (e.g.
  // interconnect /30s) collapse into their covering /24, the way the real
  // sweep walks whole /24s of the IPv4 space.
  std::unordered_set<std::uint32_t> networks;
  prefix_owner.for_each([&](const Prefix& prefix, AsId) {
    if (prefix.network().is_private() || prefix.network().is_shared()) return;
    if (prefix.length() >= 24) {
      networks.insert(prefix.network().value() & 0xFFFFFF00u);
    } else {
      for (const Prefix& sub : prefix.enumerate_slash24s())
        networks.insert(sub.network().value());
    }
  });
  std::vector<Prefix> out;
  out.reserve(networks.size());
  for (std::uint32_t network : networks)
    out.emplace_back(Ipv4(network), std::uint8_t{24});
  std::sort(out.begin(), out.end());
  return out;
}

InterfaceId World::add_interface(RouterId router_id, Ipv4 address,
                                 LinkId link_id) {
  const InterfaceId id =
      narrow_id<InterfaceId>(interfaces.size(), "interface table");
  interfaces.push_back(Interface{address, router_id, link_id, true});
  return id;
}

void World::add_extra_uplink(RouterId router_id, LinkId link) {
  Router& router = routers[router_id.value];
  if (router.extra_uplinks.count == 0)
    router.extra_uplinks.first =
        narrow_u32(router_uplink_pool.size(), "uplink arena");
  router_uplink_pool.push_back(link);
  ++router.extra_uplinks.count;
}

void World::seal() {
  // Counting sort of interface ids by owning router: per-router order is
  // global index order, which is exactly the old per-router push_back order.
  for (Router& r : routers) r.interfaces = IdSpan{};
  for (const Interface& iface : interfaces)
    ++routers[iface.router.value].interfaces.count;
  std::uint32_t offset = 0;
  for (Router& r : routers) {
    r.interfaces.first = offset;
    offset += r.interfaces.count;
  }
  router_iface_pool.assign(interfaces.size(), InterfaceId{});
  std::vector<std::uint32_t> cursor(routers.size(), 0);
  for (std::uint32_t i = 0; i < interfaces.size(); ++i) {
    const std::uint32_t r = interfaces[i].router.value;
    router_iface_pool[routers[r].interfaces.first + cursor[r]++] =
        InterfaceId{i};
  }
  prefix_owner.freeze();
  hosting_router.freeze();
  // FlatHashMap keeps the first insert of a key: walking the table from the
  // top makes the highest-index interface of a shared address win.
  for (auto i = static_cast<std::uint32_t>(interfaces.size()); i-- > 0;) {
    const Ipv4 address = interfaces[i].address;
    if (!address.is_unspecified())
      interface_by_ip.insert(address.value(), InterfaceId{i});
  }
  interface_by_ip.freeze();
}

LinkId World::add_link(InterfaceId a, InterfaceId b, LinkKind kind,
                       double latency_ms) {
  const LinkId id = narrow_id<LinkId>(links.size(), "link table");
  links.push_back(Link{a, b, kind, latency_ms});
  interfaces[a.value].link = id;
  interfaces[b.value].link = id;
  return id;
}

LinkId World::connect(RouterId router_a, Ipv4 address_a, RouterId router_b,
                      Ipv4 address_b, LinkKind kind, double latency_ms) {
  const InterfaceId a = add_interface(router_a, address_a, LinkId{});
  const InterfaceId b = add_interface(router_b, address_b, LinkId{});
  return add_link(a, b, kind, latency_ms);
}

std::string World::validate() const {
  std::ostringstream err;
  for (std::uint32_t i = 0; i < interfaces.size(); ++i) {
    const Interface& iface = interfaces[i];
    if (!iface.router.valid() || iface.router.value >= routers.size()) {
      err << "interface " << i << " has invalid router";
      return err.str();
    }
  }
  // Arena coverage: the router→interface spans must partition the pool, the
  // pool must list every interface exactly once, and each listed interface
  // must point back at its router. One linear pass over the arena replaces
  // the old per-interface scan of its router's list.
  if (router_iface_pool.size() != interfaces.size()) {
    err << "router interface arena holds " << router_iface_pool.size()
        << " entries for " << interfaces.size()
        << " interfaces (seal() not run after construction?)";
    return err.str();
  }
  std::vector<bool> listed(interfaces.size(), false);
  for (std::uint32_t r = 0; r < routers.size(); ++r) {
    const IdSpan span = routers[r].interfaces;
    if (static_cast<std::size_t>(span.first) + span.count >
        router_iface_pool.size()) {
      err << "router " << r << " interface span exceeds the arena";
      return err.str();
    }
    for (std::uint32_t k = 0; k < span.count; ++k) {
      const InterfaceId owned = router_iface_pool[span.first + k];
      if (!owned.valid() || owned.value >= interfaces.size() ||
          interfaces[owned.value].router.value != r) {
        err << "router " << r << " arena span lists a foreign interface";
        return err.str();
      }
      if (listed[owned.value]) {
        err << "interface " << owned.value
            << " listed twice in the router arena";
        return err.str();
      }
      listed[owned.value] = true;
    }
  }
  for (std::uint32_t i = 0; i < interfaces.size(); ++i) {
    if (!listed[i]) {
      err << "interface " << i << " missing from its router's list";
      return err.str();
    }
  }
  for (std::uint32_t i = 0; i < links.size(); ++i) {
    const Link& l = links[i];
    if (!l.side_a.valid() || !l.side_b.valid() ||
        l.side_a.value >= interfaces.size() ||
        l.side_b.value >= interfaces.size()) {
      err << "link " << i << " has invalid endpoints";
      return err.str();
    }
    if (interfaces[l.side_a.value].link.value != i ||
        interfaces[l.side_b.value].link.value != i) {
      err << "link " << i << " endpoints do not point back at it";
      return err.str();
    }
    if (l.latency_ms < 0.0) {
      err << "link " << i << " has negative latency";
      return err.str();
    }
  }
  for (std::uint32_t i = 0; i < routers.size(); ++i) {
    const Router& r = routers[i];
    if (!r.owner.valid() || r.owner.value >= ases.size()) {
      err << "router " << i << " has invalid owner";
      return err.str();
    }
    if (!r.metro.valid() || r.metro.value >= metros.size()) {
      err << "router " << i << " has invalid metro";
      return err.str();
    }
    if (r.reply_policy == ReplyPolicy::kFixedInterface &&
        !r.fixed_reply.valid()) {
      err << "router " << i << " fixed-reply policy without interface";
      return err.str();
    }
  }
  for (const GroundTruthInterconnect& ic : interconnects) {
    if (!ic.client.valid() || ic.client.value >= ases.size()) {
      return "interconnect with invalid client";
    }
    if (!ic.link.valid() || ic.link.value >= links.size()) {
      return "interconnect with invalid link";
    }
    if (!ic.cloud_interface.valid() || !ic.client_interface.valid()) {
      return "interconnect with invalid interfaces";
    }
    const AsId client_owner =
        router_owner(interfaces[ic.client_interface.value].router);
    if (client_owner != ic.client) {
      return "interconnect client interface not owned by client AS";
    }
  }
  return "";
}

}  // namespace cloudmap
