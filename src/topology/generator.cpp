#include "topology/generator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/geo.h"
#include "topology/address_plan.h"

namespace cloudmap {
namespace {

// ----------------------------------------------------------------------
// Static metro table: real metros with coordinates and airport codes so the
// RTT geometry and the DNS location hints look like the Internet's.
// ----------------------------------------------------------------------
struct MetroSeed {
  const char* name;
  const char* airport;
  const char* country;
  double lat;
  double lon;
};

// The first 15 entries are the metros of Amazon's 15 usable 2018 regions, in
// region order; later entries serve as edge/native metros and client homes.
constexpr MetroSeed kMetroSeeds[] = {
    {"Ashburn", "iad", "US", 39.04, -77.49},
    {"Columbus", "cmh", "US", 39.96, -82.99},
    {"San Jose", "sjc", "US", 37.34, -121.89},
    {"Portland", "pdx", "US", 45.52, -122.68},
    {"Montreal", "yul", "CA", 45.50, -73.57},
    {"Sao Paulo", "gru", "BR", -23.55, -46.63},
    {"Dublin", "dub", "IE", 53.35, -6.26},
    {"London", "lhr", "GB", 51.51, -0.13},
    {"Paris", "cdg", "FR", 48.86, 2.35},
    {"Frankfurt", "fra", "DE", 50.11, 8.68},
    {"Singapore", "sin", "SG", 1.35, 103.82},
    {"Sydney", "syd", "AU", -33.87, 151.21},
    {"Tokyo", "nrt", "JP", 35.68, 139.69},
    {"Seoul", "icn", "KR", 37.57, 126.98},
    {"Mumbai", "bom", "IN", 19.08, 72.88},
    // --- edge / client metros ---
    {"Los Angeles", "lax", "US", 34.05, -118.24},
    {"New York", "jfk", "US", 40.71, -74.01},
    {"Chicago", "ord", "US", 41.88, -87.63},
    {"Dallas", "dfw", "US", 32.78, -96.80},
    {"Atlanta", "atl", "US", 33.75, -84.39},
    {"Miami", "mia", "US", 25.76, -80.19},
    {"Seattle", "sea", "US", 47.61, -122.33},
    {"Denver", "den", "US", 39.74, -104.99},
    {"Salt Lake City", "slc", "US", 40.76, -111.89},
    {"Phoenix", "phx", "US", 33.45, -112.07},
    {"Boston", "bos", "US", 42.36, -71.06},
    {"Houston", "iah", "US", 29.76, -95.37},
    {"Toronto", "yyz", "CA", 43.65, -79.38},
    {"Mexico City", "mex", "MX", 19.43, -99.13},
    {"Amsterdam", "ams", "NL", 52.37, 4.90},
    {"Madrid", "mad", "ES", 40.42, -3.70},
    {"Milan", "mxp", "IT", 45.46, 9.19},
    {"Stockholm", "arn", "SE", 59.33, 18.07},
    {"Warsaw", "waw", "PL", 52.23, 21.01},
    {"Zurich", "zrh", "CH", 47.38, 8.54},
    {"Vienna", "vie", "AT", 48.21, 16.37},
    {"Prague", "prg", "CZ", 50.08, 14.44},
    {"Moscow", "dme", "RU", 55.76, 37.62},
    {"Hong Kong", "hkg", "HK", 22.32, 114.17},
    {"Osaka", "kix", "JP", 34.69, 135.50},
    {"Taipei", "tpe", "TW", 25.03, 121.57},
    {"Jakarta", "cgk", "ID", -6.21, 106.85},
    {"Auckland", "akl", "NZ", -36.85, 174.76},
    {"Johannesburg", "jnb", "ZA", -26.20, 28.05},
    {"Dubai", "dxb", "AE", 25.20, 55.27},
    {"Tel Aviv", "tlv", "IL", 32.09, 34.78},
    {"Buenos Aires", "eze", "AR", -34.60, -58.38},
    {"Santiago", "scl", "CL", -33.45, -70.67},
    {"Bogota", "bog", "CO", 4.71, -74.07},
};
constexpr int kMetroSeedCount =
    static_cast<int>(sizeof(kMetroSeeds) / sizeof(kMetroSeeds[0]));

const char* kAsTypePrefix(AsType type) {
  switch (type) {
    case AsType::kTier1: return "t1";
    case AsType::kTier2: return "t2";
    case AsType::kAccess: return "acc";
    case AsType::kEnterprise: return "ent";
    case AsType::kContent: return "cnt";
    case AsType::kCdn: return "cdn";
    case AsType::kCloud: return "cloud";
  }
  return "as";
}

// ----------------------------------------------------------------------
// Builder: accumulates the world, then finalizes the indices.
// ----------------------------------------------------------------------
class Builder {
 public:
  Builder(const GeneratorConfig& config)
      : cfg_(config), rng_(config.seed), plan_(AddressPlan::standard()) {}

  World build() {
    make_metros();
    make_facilities();
    make_cloud_ases();
    make_client_ases();
    make_relationships();
    allocate_addresses();
    make_cloud_infrastructure();
    make_client_routers();
    make_inter_as_links();
    make_cloud_peerings();
    assign_hosting_routers();
    // Builds every index: the fixed replies below resolve interface spans.
    world_.seal();
    apply_fixed_replies();
    return std::move(world_);
  }

 private:
  // ---------------- metros ----------------
  void make_metros() {
    const int seeded = std::min(cfg_.metro_count, kMetroSeedCount);
    for (int i = 0; i < seeded; ++i) {
      const MetroSeed& seed = kMetroSeeds[i];
      world_.metros.push_back(Metro{seed.name, seed.airport, seed.country,
                                    GeoPoint{seed.lat, seed.lon}});
    }
    // Past the curated table, synthesize metros deterministically so scale
    // presets (WorldSpec) are not capped at kMetroSeedCount. Codes start
    // with 'x' (no real 3-letter code in the table does) and encode the
    // index, so names stay unique at any count. Configs that fit the table
    // draw nothing here and are byte-identical to the pre-synthetic worlds.
    for (int i = seeded; i < cfg_.metro_count; ++i) {
      const int n = i - kMetroSeedCount;
      std::string code{'x', static_cast<char>('a' + n / 26 % 26),
                       static_cast<char>('a' + n % 26)};
      if (n >= 26 * 26) code += std::to_string(n / (26 * 26));
      const double lat = rng_.uniform(-55.0, 68.0);
      const double lon = rng_.uniform(-180.0, 180.0);
      world_.metros.push_back(Metro{"metro-" + std::to_string(i + 1), code,
                                    "zz", GeoPoint{lat, lon}});
    }
  }

  MetroId random_metro() {
    return narrow_id<MetroId>(rng_.bounded(world_.metros.size()),
                              "metro index");
  }

  // ---------------- colos & IXPs ----------------
  void make_facilities() {
    // One to three colo facilities per metro; some with an IXP; native-cloud
    // and cloud-exchange flags are assigned when the clouds are placed.
    for (std::uint32_t m = 0; m < world_.metros.size(); ++m) {
      const int facility_count = static_cast<int>(rng_.range(1, 3));
      const bool metro_has_ixp = rng_.chance(cfg_.ixp_metro_probability);
      for (int f = 0; f < facility_count; ++f) {
        ColoFacility colo;
        colo.name = world_.metros[m].name + "-colo" + std::to_string(f + 1);
        colo.metro = MetroId{m};
        if (metro_has_ixp && f == 0) {
          Ixp ixp;
          ixp.name = std::string("ix-") + world_.metros[m].airport_code;
          ixp.peering_prefix = plan_.ixp_lans.allocate(
              static_cast<std::uint8_t>(cfg_.ixp_lan_prefix));
          ixp.metros.push_back(MetroId{m});
          colo.ixp = narrow_id<IxpId>(world_.ixps.size(), "ixp table");
          colo_of_ixp_.push_back(
              narrow_id<ColoId>(world_.colos.size(), "colo table"));
          world_.ixps.push_back(std::move(ixp));
        }
        world_.colos.push_back(std::move(colo));
      }
    }
    // A couple of multi-metro IXPs (excluded from anchoring by the paper).
    for (int i = 0; i < cfg_.multi_metro_ixps && world_.ixps.size() > 2; ++i) {
      const std::size_t victim = rng_.bounded(world_.ixps.size());
      MetroId extra = random_metro();
      if (extra != world_.ixps[victim].metros.front())
        world_.ixps[victim].metros.push_back(extra);
    }
    // Bucket colos by metro once; the per-call linear scan this replaces was
    // an O(metros × colos) pass at cloud-placement time.
    colos_by_metro_.resize(world_.metros.size());
    for (std::uint32_t c = 0; c < world_.colos.size(); ++c)
      colos_by_metro_[world_.colos[c].metro.value].push_back(ColoId{c});
  }

  const std::vector<ColoId>& colos_in_metro(MetroId metro) const {
    return colos_by_metro_[metro.value];
  }

  // ---------------- ASes ----------------
  AsId new_as(Asn asn, OrgId org, AsType type, std::string name) {
    const AsId id = narrow_id<AsId>(world_.ases.size(), "as table");
    AutonomousSystem as;
    as.asn = asn;
    as.org = org;
    as.type = type;
    as.name = std::move(name);
    world_.ases.push_back(std::move(as));
    world_.as_by_asn[asn.value] = id;
    return id;
  }

  void make_cloud_ases() {
    // Amazon's multiple ASNs under one organization (the paper observed 8;
    // three is enough to exercise the ORG-level border logic).
    const OrgId amazon_org{1};
    const auto amazon = new_as(Asn{16509}, amazon_org, AsType::kCloud, "amazon");
    world_.ases[amazon.value].cloud = CloudProvider::kAmazon;
    const auto amazon2 = new_as(Asn{7224}, amazon_org, AsType::kCloud, "amazon-dx");
    world_.ases[amazon2.value].cloud = CloudProvider::kAmazon;
    const auto amazon3 = new_as(Asn{14618}, amazon_org, AsType::kCloud, "amazon-ec2");
    world_.ases[amazon3.value].cloud = CloudProvider::kAmazon;
    world_.cloud_ases[static_cast<int>(CloudProvider::kAmazon)] = {
        amazon, amazon2, amazon3};

    const struct {
      CloudProvider provider;
      std::uint32_t asn;
      std::uint32_t org;
      const char* name;
    } others[] = {
        {CloudProvider::kMicrosoft, 8075, 2, "microsoft"},
        {CloudProvider::kGoogle, 15169, 3, "google"},
        {CloudProvider::kIbm, 36351, 4, "ibm-cloud"},
        {CloudProvider::kOracle, 31898, 5, "oracle-cloud"},
    };
    for (const auto& other : others) {
      const AsId id =
          new_as(Asn{other.asn}, OrgId{other.org}, AsType::kCloud, other.name);
      world_.ases[id.value].cloud = other.provider;
      world_.cloud_ases[static_cast<int>(other.provider)] = {id};
    }
  }

  void make_client_ases() {
    std::uint32_t next_asn = 100;
    std::uint32_t next_org = 100;
    auto spawn = [&](AsType type, int count, int footprint_lo,
                     int footprint_hi) {
      for (int i = 0; i < count; ++i) {
        const std::string name = std::string(kAsTypePrefix(type)) + "-" +
                                 std::to_string(i + 1);
        const AsId id = new_as(Asn{next_asn++}, OrgId{next_org++}, type, name);
        AutonomousSystem& as = world_.ases[id.value];
        const int footprint = std::min(
            static_cast<int>(world_.metros.size()),
            static_cast<int>(rng_.range(footprint_lo, footprint_hi)));
        std::unordered_set<std::uint32_t> seen;
        while (static_cast<int>(as.footprint.size()) < footprint) {
          const MetroId metro = random_metro();
          if (seen.insert(metro.value).second) as.footprint.push_back(metro);
        }
      }
    };
    spawn(AsType::kTier1, cfg_.tier1_count, 12,
          std::max(13, static_cast<int>(world_.metros.size() * 2 / 3)));
    spawn(AsType::kTier2, cfg_.tier2_count, 4, 12);
    spawn(AsType::kAccess, cfg_.access_count, 1, 4);
    spawn(AsType::kEnterprise, cfg_.enterprise_count, 1, 2);
    spawn(AsType::kContent, cfg_.content_count, 1, 4);
    spawn(AsType::kCdn, cfg_.cdn_count, 5, 12);
  }

  void link_provider(AsId provider, AsId customer) {
    world_.ases[provider.value].customers.push_back(customer);
    world_.ases[customer.value].providers.push_back(provider);
  }

  void link_peers(AsId a, AsId b) {
    world_.ases[a.value].peers.push_back(b);
    world_.ases[b.value].peers.push_back(a);
  }

  void make_relationships() {
    // Bucket ASes by type in one pass (was one linear table scan per type,
    // i.e. O(types × ases) at 60k-AS scale).
    std::vector<AsId> by_type[kAsTypeCount];
    for (std::uint32_t i = 0; i < world_.ases.size(); ++i)
      by_type[static_cast<int>(world_.ases[i].type)].push_back(AsId{i});
    const auto& tier1 = by_type[static_cast<int>(AsType::kTier1)];
    const auto& tier2 = by_type[static_cast<int>(AsType::kTier2)];
    // Tier-1 full mesh.
    for (std::size_t i = 0; i < tier1.size(); ++i)
      for (std::size_t j = i + 1; j < tier1.size(); ++j)
        link_peers(tier1[i], tier1[j]);
    // Tier-2: one to three tier-1 providers, occasional tier-2 peerings.
    for (AsId t2 : tier2) {
      const int providers = std::min<int>(static_cast<int>(tier1.size()),
                                          static_cast<int>(rng_.range(1, 3)));
      std::unordered_set<std::uint32_t> chosen;
      while (static_cast<int>(chosen.size()) < providers) {
        const AsId p = tier1[rng_.bounded(tier1.size())];
        if (chosen.insert(p.value).second) link_provider(p, t2);
      }
      if (rng_.chance(0.3)) {
        const AsId peer = tier2[rng_.bounded(tier2.size())];
        if (peer != t2) link_peers(t2, peer);
      }
    }
    // Edge ASes: one or two providers from tier-2 (sometimes tier-1).
    for (AsType type : {AsType::kAccess, AsType::kEnterprise,
                        AsType::kContent, AsType::kCdn}) {
      for (AsId as : by_type[static_cast<int>(type)]) {
        const int providers =
            std::min<int>(static_cast<int>(tier1.size() + tier2.size()),
                          rng_.chance(0.35) ? 2 : 1);
        std::unordered_set<std::uint32_t> chosen;
        int attempts = 0;
        while (static_cast<int>(chosen.size()) < providers &&
               ++attempts < 1000) {
          const bool from_tier1 = rng_.chance(0.15) || tier2.empty();
          const auto& pool = from_tier1 ? tier1 : tier2;
          if (pool.empty()) break;
          const AsId p = pool[rng_.bounded(pool.size())];
          if (p != as && chosen.insert(p.value).second) link_provider(p, as);
        }
      }
    }
    // Clouds buy no transit in this world: every tier-1 cross-connects with
    // them (created in make_cloud_peerings), which yields global reach.
  }

  // ---------------- addressing ----------------
  void allocate_addresses() {
    for (std::uint32_t i = 0; i < world_.ases.size(); ++i) {
      AutonomousSystem& as = world_.ases[i];
      if (as.type == AsType::kCloud) continue;
      // Block count and size scale with the AS's role.
      int blocks = 1;
      std::uint8_t length = 24;
      switch (as.type) {
        case AsType::kTier1:
          blocks = static_cast<int>(rng_.range(3, 6));
          length = 16;
          break;
        case AsType::kTier2:
          blocks = static_cast<int>(rng_.range(2, 4));
          length = 18;
          break;
        case AsType::kAccess:
          blocks = static_cast<int>(rng_.range(1, 3));
          length = 19;
          break;
        case AsType::kCdn:
          blocks = 2;
          length = 21;
          break;
        case AsType::kContent:
          blocks = 1;
          length = 22;
          break;
        case AsType::kEnterprise:
          blocks = 1;
          length = static_cast<std::uint8_t>(rng_.range(23, 24));
          break;
        case AsType::kCloud:
          break;
      }
      // Scale presets shift client blocks toward longer prefixes so total
      // announced space tracks the target-budget knob instead of growing
      // linearly in AS count (WorldSpec / GeneratorConfig::from_spec).
      length = static_cast<std::uint8_t>(
          std::min(24, length + cfg_.client_prefix_shift));
      for (int b = 0; b < blocks; ++b)
        as.announced_prefixes.push_back(plan_.client_announced.allocate(length));
      if (rng_.chance(cfg_.client_whois_prefix))
        as.whois_only_prefixes.push_back(plan_.client_whois.allocate(24));
      for (const Prefix& p : as.announced_prefixes)
        world_.prefix_owner.insert(p, AsId{i});
      for (const Prefix& p : as.whois_only_prefixes)
        world_.prefix_owner.insert(p, AsId{i});
    }
    // Cloud announced blocks: a few per cloud, registered to the primary AS.
    for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p) {
      const CloudProvider provider = static_cast<CloudProvider>(p);
      const AsId primary = world_.cloud_primary(provider);
      AutonomousSystem& as = world_.ases[primary.value];
      const int blocks = provider == CloudProvider::kAmazon ? 6 : 3;
      for (int b = 0; b < blocks; ++b) {
        const Prefix block = plan_.cloud_announced[p].allocate(17);
        as.announced_prefixes.push_back(block);
        world_.prefix_owner.insert(block, primary);
      }
    }
    // IXP LANs are registered (WHOIS) to a synthetic IXP-operator AS so hops
    // on them resolve to a non-cloud org even without BGP. They are modelled
    // as owned by a dedicated "ixp-op" AS per IXP.
    for (std::uint32_t x = 0; x < world_.ixps.size(); ++x) {
      const std::uint32_t op_number =
          narrow_u32(64000ull + x, "ixp-operator asn");
      const AsId op = new_as(Asn{op_number}, OrgId{op_number}, AsType::kContent,
                             "ixp-op-" + std::to_string(x));
      world_.ases[op.value].footprint.push_back(world_.ixps[x].metros.front());
      ixp_operator_.insert(op.value);
      world_.prefix_owner.insert(world_.ixps[x].peering_prefix, op);
    }
  }

  // WHOIS-only /30 from a cloud's infrastructure pool.
  Prefix cloud_p2p(CloudProvider provider) {
    const Prefix p = plan_.cloud_infra.allocate(30);
    world_.prefix_owner.insert(p, world_.cloud_primary(provider));
    return p;
  }

  // ---------------- routers ----------------
  RouterId new_router(AsId owner, MetroId metro, ColoId colo = ColoId{}) {
    const RouterId id = narrow_id<RouterId>(world_.routers.size(),
                                            "router table");
    Router router;
    router.owner = owner;
    router.metro = metro;
    router.colo = colo;
    // Fold both words of the 64-bit draw into the 32-bit IPID base; a bare
    // truncation would throw away half the entropy the stream paid for.
    const std::uint64_t ipid_draw = rng_.next();
    router.ipid_base =
        static_cast<std::uint32_t>(ipid_draw ^ (ipid_draw >> 32));
    router.ipid_velocity = rng_.uniform(20.0, 900.0);
    if (rng_.chance(cfg_.router_silent)) {
      router.reply_policy = ReplyPolicy::kSilent;
    }
    router.response_probability = rng_.uniform(0.92, 1.0);
    world_.routers.push_back(std::move(router));
    world_.ases[owner.value].routers.push_back(id);
    return id;
  }

  double metro_latency(MetroId a, MetroId b) const {
    if (a == b) return 0.12;  // same metro: sub-quarter-millisecond
    return std::max(0.05, propagation_delay_ms(world_.metros[a.value].location,
                                               world_.metros[b.value].location));
  }

  LinkId connect_routers(RouterId a, RouterId b, LinkKind kind, Prefix p2p) {
    const double latency =
        metro_latency(world_.routers[a.value].metro,
                      world_.routers[b.value].metro);
    return world_.connect(a, p2p.network().next(1), b, p2p.network().next(2),
                          kind, latency);
  }

  // ---------------- cloud infrastructure ----------------
  void make_cloud_infrastructure() {
    for (int p = 1; p < static_cast<int>(kCloudProviderCount); ++p)
      make_one_cloud(static_cast<CloudProvider>(p));
  }

  int configured_regions(CloudProvider provider) const {
    switch (provider) {
      case CloudProvider::kAmazon: return cfg_.amazon_regions;
      case CloudProvider::kMicrosoft: return cfg_.microsoft_regions;
      case CloudProvider::kGoogle: return cfg_.google_regions;
      case CloudProvider::kIbm: return cfg_.ibm_regions;
      case CloudProvider::kOracle: return cfg_.oracle_regions;
      case CloudProvider::kNone: return 0;
    }
    return 0;
  }

  void make_one_cloud(CloudProvider provider) {
    const int want_regions = std::min(configured_regions(provider),
                                      static_cast<int>(world_.metros.size()));
    const AsId primary = world_.cloud_primary(provider);
    // Region cores: regions sit at the first `want_regions` metros for
    // Amazon (the table is ordered that way); other clouds take a shuffled
    // subset so regions overlap but are not identical.
    std::vector<std::uint32_t> metro_order(world_.metros.size());
    for (std::uint32_t i = 0; i < metro_order.size(); ++i) metro_order[i] = i;
    if (provider != CloudProvider::kAmazon) rng_.shuffle(metro_order);

    std::vector<RouterId> cores;
    for (int r = 0; r < want_regions; ++r) {
      const MetroId metro{metro_order[r]};
      const RouterId core = new_router(primary, metro);
      world_.routers[core.value].publicly_reachable = false;
      world_.routers[core.value].reply_policy = ReplyPolicy::kIncomingInterface;
      world_.routers[core.value].response_probability = 1.0;
      cores.push_back(core);
      Region region;
      region.name = std::string(to_string(provider)) + "-region-" +
                    std::to_string(r + 1);
      region.provider = provider;
      region.metro = metro;
      region.core_router = core;
      // Host-facing gateway interface on RFC1918 space: the address VMs see
      // as their first traceroute hop.
      const Prefix host_net = plan_.cloud_private.allocate(30);
      region.vm_gateway =
          world_.add_interface(core, host_net.network().next(1), LinkId{});
      world_.regions.push_back(std::move(region));
      world_.ases[primary.value].footprint.push_back(metro);
    }
    // Private backbone: full mesh over region cores, RFC1918 addressing
    // (these are the ASN-0 hops of §3).
    for (std::size_t i = 0; i < cores.size(); ++i) {
      for (std::size_t j = i + 1; j < cores.size(); ++j) {
        const Prefix p2p = plan_.cloud_private.allocate(30);
        connect_routers(cores[i], cores[j], LinkKind::kIntraAs, p2p);
      }
    }
    cloud_cores_[static_cast<int>(provider)] = cores;

    // Native colos: one (occasionally more) per region metro plus, for
    // Amazon, extra edge metros. Border routers per colo, attached to the
    // nearest region core, partially chained for Fig. 3 hybrid behaviour.
    std::vector<MetroId> native_metros;
    for (int r = 0; r < want_regions; ++r)
      native_metros.push_back(MetroId{metro_order[r]});
    if (provider == CloudProvider::kAmazon) {
      for (int extra = 0;
           extra < cfg_.amazon_edge_metros &&
           want_regions + extra < static_cast<int>(world_.metros.size());
           ++extra)
        native_metros.push_back(MetroId{metro_order[want_regions + extra]});
    }
    for (MetroId metro : native_metros) {
      const auto& colo_choices = colos_in_metro(metro);
      if (colo_choices.empty()) continue;
      const ColoId colo = colo_choices[rng_.bounded(colo_choices.size())];
      world_.colos[colo.value].set_native(provider);
      if (rng_.chance(cfg_.cloud_exchange_probability))
        world_.colos[colo.value].has_cloud_exchange = true;

      const RouterId core = nearest_core(provider, metro);
      const int borders = static_cast<int>(
          rng_.range(1, cfg_.max_border_routers_per_colo));
      RouterId aggregation{};
      for (int b = 0; b < borders; ++b) {
        const RouterId border = new_router(primary, metro, colo);
        Router& router = world_.routers[border.value];
        router.publicly_reachable = false;
        router.response_probability = 1.0;
        router.reply_policy = ReplyPolicy::kIncomingInterface;
        // Upstream addressing: WHOIS-only infra space most of the time,
        // announced cloud space otherwise (Table 1's ABI BGP/WHOIS split).
        const bool infra = rng_.chance(cfg_.abi_infra_address);
        const Prefix p2p =
            infra ? cloud_p2p(provider)
                  : announced_cloud_p2p(provider);
        const bool chain = aggregation.valid() &&
                           rng_.chance(cfg_.hybrid_aggregation);
        const LinkId uplink = connect_routers(chain ? aggregation : core,
                                              border, LinkKind::kIntraAs, p2p);
        world_.routers[border.value].uplink = uplink;
        // Extra backbone attachments toward other nearby cores: the probe's
        // source region then determines which upstream interface (ABI) the
        // border answers with.
        const int extras =
            static_cast<int>(rng_.range(0, cfg_.max_extra_uplinks));
        std::vector<RouterId> other_cores = cores;
        std::sort(other_cores.begin(), other_cores.end(),
                  [&](RouterId x, RouterId y) {
                    const GeoPoint& here = world_.metros[metro.value].location;
                    return haversine_km(
                               here, world_.router_location(x)) <
                           haversine_km(here, world_.router_location(y));
                  });
        int added = 0;
        for (RouterId other : other_cores) {
          if (added >= extras) break;
          if (other == (chain ? aggregation : core) ||
              (!chain && other == core))
            continue;
          const Prefix extra_p2p = rng_.chance(cfg_.abi_infra_address)
                                       ? cloud_p2p(provider)
                                       : announced_cloud_p2p(provider);
          world_.add_extra_uplink(
              border,
              connect_routers(other, border, LinkKind::kIntraAs, extra_p2p));
          ++added;
        }
        if (!aggregation.valid()) aggregation = border;
        cloud_borders_[static_cast<int>(provider)].push_back(border);
      }
    }
  }

  // A /30 carved from the top of the cloud's *announced* space, so the
  // interface annotates via BGP (Table 1's ~38% BGP-annotated ABIs).
  Prefix announced_cloud_p2p(CloudProvider provider) {
    const AsId primary = world_.cloud_primary(provider);
    return client_p2p(primary);
  }

  RouterId nearest_core(CloudProvider provider, MetroId metro) const {
    const auto& cores = cloud_cores_[static_cast<int>(provider)];
    RouterId best = cores.front();
    double best_km = 1e18;
    for (RouterId core : cores) {
      const double km = haversine_km(
          world_.metros[metro.value].location,
          world_.metros[world_.routers[core.value].metro.value].location);
      if (km < best_km) {
        best_km = km;
        best = core;
      }
    }
    return best;
  }

  // Cloud border routers of a provider in a given colo (creating one if the
  // colo has none yet, which can happen for exchange colos where the cloud
  // is reachable but not native — we then use the nearest native border).
  // Memoized: the border tables are fixed before the first call, and the
  // un-memoized scan made peering construction O(clients × borders).
  RouterId border_at(CloudProvider provider, ColoId colo) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(provider) << 32) | colo.value;
    const auto hit = border_at_memo_.find(key);
    if (hit != border_at_memo_.end()) return hit->second;
    const auto& borders = cloud_borders_[static_cast<int>(provider)];
    RouterId best{};
    double best_km = 1e18;
    const MetroId metro = world_.colos[colo.value].metro;
    for (RouterId border : borders) {
      const Router& router = world_.routers[border.value];
      if (router.colo == colo) {
        best = border;
        break;
      }
      const double km = haversine_km(
          world_.metros[metro.value].location,
          world_.metros[router.metro.value].location);
      if (km < best_km) {
        best_km = km;
        best = border;
      }
    }
    border_at_memo_.emplace(key, best);
    return best;
  }

  // ---------------- client routers ----------------
  void make_client_routers() {
    for (std::uint32_t i = 0; i < world_.ases.size(); ++i) {
      AutonomousSystem& as = world_.ases[i];
      if (as.type == AsType::kCloud) continue;
      if (as.footprint.empty()) as.footprint.push_back(random_metro());
      for (MetroId metro : as.footprint) {
        const RouterId router = new_router(AsId{i}, metro);
        Router& r = world_.routers[router.value];
        r.publicly_reachable = rng_.chance(cfg_.client_public_reachability);
        maybe_fixed_reply(router, as.type);
      }
      // Intra-AS backbone over the AS's routers, addressed out of the AS's
      // own space. Full mesh by default (paper-scale footprints are small);
      // scale presets cap the mesh degree — a tier-1 spanning hundreds of
      // synthetic metros would otherwise mint O(footprint²) links and
      // exhaust its /30 space.
      const auto& routers = as.routers;
      const std::size_t mesh_cap =
          cfg_.max_intra_as_mesh > 0
              ? static_cast<std::size_t>(cfg_.max_intra_as_mesh)
              : routers.size();
      for (std::size_t a = 0; a < routers.size(); ++a) {
        for (std::size_t b = a + 1;
             b < routers.size() && b - a <= mesh_cap; ++b) {
          const Prefix p2p = client_p2p(AsId{i});
          connect_routers(routers[a], routers[b], LinkKind::kIntraAs, p2p);
        }
      }
    }
  }

  // A /30 out of the client's announced space, carved sequentially from the
  // top of its first block downward (the low addresses stay free as "hosts",
  // i.e. sweep targets). The announced block remains the covering prefix for
  // annotation purposes, matching how operators number interconnects.
  //
  // Scale presets shrink client blocks (client_prefix_shift), so a dense
  // footprint or interconnect fan-out can outgrow the primary block's
  // point-to-point budget. Overflow /30s come from dedicated WHOIS-only
  // /24s minted on demand — operators routinely number interconnects out of
  // unannounced space, and the pool is a deterministic bump allocator, so
  // paper-scale worlds (which never overflow) are byte-for-byte unchanged.
  Prefix client_p2p(AsId as_id) {
    AutonomousSystem& as = world_.ases[as_id.value];
    P2pCursor& state = client_p2p_cursor_[as_id.value];
    if (!state.overflow.has_value()) {
      const Prefix& block = as.announced_prefixes.front();
      // Use at most the top half of the block for point-to-point subnets.
      const std::uint64_t max_subnets = block.size() / 8;
      if (state.cursor < max_subnets) {
        const std::uint32_t base = static_cast<std::uint32_t>(
            block.network().value() + block.size() - (state.cursor + 1) * 4);
        ++state.cursor;
        return Prefix(Ipv4(base), 30);
      }
    }
    // Overflow blocks carry no sweep targets, so they are carved in full.
    if (!state.overflow.has_value() ||
        state.cursor >= state.overflow->size() / 4) {
      state.overflow = plan_.client_whois.allocate(24);
      as.whois_only_prefixes.push_back(*state.overflow);
      world_.prefix_owner.insert(*state.overflow, as_id);
      state.cursor = 0;
    }
    const Prefix& block = *state.overflow;
    const std::uint32_t base = static_cast<std::uint32_t>(
        block.network().value() + block.size() - (state.cursor + 1) * 4);
    ++state.cursor;
    return Prefix(Ipv4(base), 30);
  }

  // Does the AS have a footprint presence in the given metro?
  bool member_metro_matches(const AutonomousSystem& as, MetroId metro) const {
    for (MetroId m : as.footprint)
      if (m == metro) return true;
    return false;
  }

  // Next free host address on an IXP's peering LAN.
  Ipv4 next_lan_address(IxpId ixp_id) {
    auto& cursor = ixp_lan_cursor_[ixp_id.value];
    const Prefix& lan = world_.ixps[ixp_id.value].peering_prefix;
    if (cursor + 2 >= lan.size())
      throw std::length_error("IXP LAN exhausted: " +
                              world_.ixps[ixp_id.value].name);
    return lan.network().next(static_cast<std::uint32_t>(++cursor));
  }

  // The prefix set an AS announces over an interconnect: its own announced
  // blocks, plus — when `cone` — the announced blocks of its full customer
  // cone (what transit networks re-export toward the cloud).
  std::vector<Prefix> announced_set(AsId as_id, bool cone) const {
    std::vector<Prefix> out = world_.ases[as_id.value].announced_prefixes;
    if (!cone) return out;
    std::vector<AsId> stack = world_.ases[as_id.value].customers;
    std::unordered_set<std::uint32_t> seen{as_id.value};
    while (!stack.empty()) {
      const AsId current = stack.back();
      stack.pop_back();
      if (!seen.insert(current.value).second) continue;
      const AutonomousSystem& as = world_.ases[current.value];
      out.insert(out.end(), as.announced_prefixes.begin(),
                 as.announced_prefixes.end());
      stack.insert(stack.end(), as.customers.begin(), as.customers.end());
    }
    return out;
  }

  // ---------------- inter-AS (non-cloud) links ----------------
  void make_inter_as_links() {
    for (std::uint32_t i = 0; i < world_.ases.size(); ++i) {
      const AutonomousSystem& as = world_.ases[i];
      for (AsId provider : as.providers)
        connect_ases(provider, AsId{i}, LinkKind::kTransit);
      for (AsId peer : as.peers)
        if (peer.value > i) connect_ases(AsId{i}, peer, LinkKind::kPeer);
    }
  }

  // Create one router-level link between two ASes, choosing the router pair
  // with the shortest metro distance; the /30 comes from the first AS.
  void connect_ases(AsId a, AsId b, LinkKind kind) {
    const RouterId ra = closest_router_pair_a(a, b);
    const RouterId rb = closest_router_to(b, world_.routers[ra.value].metro);
    const Prefix p2p = client_p2p(a);
    const LinkId link = connect_routers(ra, rb, kind, p2p);
    inter_as_links_[pair_key(a, b)].push_back(link);
  }

  static std::uint64_t pair_key(AsId a, AsId b) {
    return (static_cast<std::uint64_t>(a.value) << 32) | b.value;
  }

  RouterId closest_router_pair_a(AsId a, AsId b) const {
    // Router of `a` nearest to any footprint metro of `b`.
    RouterId best = world_.ases[a.value].routers.front();
    double best_km = 1e18;
    for (RouterId ra : world_.ases[a.value].routers) {
      for (MetroId mb : world_.ases[b.value].footprint) {
        const double km = haversine_km(
            world_.metros[world_.routers[ra.value].metro.value].location,
            world_.metros[mb.value].location);
        if (km < best_km) {
          best_km = km;
          best = ra;
        }
      }
    }
    return best;
  }

  RouterId closest_router_to(AsId as_id, MetroId metro) const {
    RouterId best = world_.ases[as_id.value].routers.front();
    double best_km = 1e18;
    for (RouterId r : world_.ases[as_id.value].routers) {
      const double km = haversine_km(
          world_.metros[world_.routers[r.value].metro.value].location,
          world_.metros[metro.value].location);
      if (km < best_km) {
        best_km = km;
        best = r;
      }
    }
    return best;
  }

  // Third-party/default-interface reply behaviour by AS type: tier-1
  // carriers never, large regional transit often, everyone else rarely.
  void maybe_fixed_reply(RouterId router, AsType type) {
    if (type == AsType::kCloud) return;
    double probability = cfg_.router_fixed_reply;
    if (type == AsType::kTier2) probability = cfg_.tier2_fixed_reply;
    if (type == AsType::kTier1) probability = cfg_.tier1_fixed_reply;
    if (rng_.chance(probability)) fixed_reply_routers_.push_back(router);
  }

  // A second cloud border router near the colo, distinct from `primary`;
  // invalid when none exists. Memoized like border_at (same staleness-free
  // window: borders never change once peering construction starts).
  RouterId second_border(CloudProvider provider, ColoId colo,
                         RouterId primary) {
    const std::uint64_t key = (static_cast<std::uint64_t>(provider) << 56) |
                              (static_cast<std::uint64_t>(colo.value) << 28) |
                              primary.value;
    const auto hit = second_border_memo_.find(key);
    if (hit != second_border_memo_.end()) return hit->second;
    const auto& borders = cloud_borders_[static_cast<int>(provider)];
    const MetroId metro = world_.colos[colo.value].metro;
    RouterId best{};
    double best_km = 1e18;
    for (RouterId border : borders) {
      if (border == primary) continue;
      const double km = haversine_km(world_.metros[metro.value].location,
                                     world_.router_location(border));
      if (km < best_km) {
        best_km = km;
        best = border;
      }
    }
    // Only use it when it shares the metro (same L2 fabric reach).
    if (!best.valid() || world_.routers[best.value].metro != metro)
      best = RouterId{};
    second_border_memo_.emplace(key, best);
    return best;
  }

  // Router of the client in the given metro, deploying a new one (meshed to
  // the AS's existing routers) when the client had no presence there — a
  // client peering locally at a colo physically has equipment in that metro.
  RouterId client_router_at(AsId client, MetroId metro) {
    for (RouterId r : world_.ases[client.value].routers)
      if (world_.routers[r.value].metro == metro) return r;
    const std::vector<RouterId> existing = world_.ases[client.value].routers;
    const RouterId router = new_router(client, metro);
    world_.routers[router.value].publicly_reachable =
        rng_.chance(cfg_.client_public_reachability);
    world_.ases[client.value].footprint.push_back(metro);
    maybe_fixed_reply(router, world_.ases[client.value].type);
    for (RouterId other : existing)
      connect_routers(other, router, LinkKind::kIntraAs, client_p2p(client));
    return router;
  }

  // ---------------- cloud-client interconnections ----------------
  void make_cloud_peerings();
  void add_public_peerings(AsId client, int count);
  void add_xconnects(AsId client, CloudProvider provider, int count);
  void add_vpis(AsId client, int count);

  // ---------------- hosting & finalization ----------------
  void assign_hosting_routers() {
    // Assign every announced/WHOIS block of every AS to one of its routers
    // (round-robin): probes into the block terminate at that router.
    for (std::uint32_t i = 0; i < world_.ases.size(); ++i) {
      const AutonomousSystem& as = world_.ases[i];
      if (as.routers.empty()) continue;
      std::size_t cursor = 0;
      auto host = [&](const Prefix& prefix) {
        world_.hosting_router.insert(prefix,
                                     as.routers[cursor % as.routers.size()]);
        ++cursor;
      };
      for (const Prefix& p : as.announced_prefixes) host(p);
      for (const Prefix& p : as.whois_only_prefixes) host(p);
    }
  }

  void apply_fixed_replies() {
    // Fixed-reply routers answer with their first interface (often making it
    // a "third-party" address relative to the probed path).
    for (RouterId router : fixed_reply_routers_) {
      Router& r = world_.routers[router.value];
      if (r.interfaces.empty()) continue;
      r.reply_policy = ReplyPolicy::kFixedInterface;
      r.fixed_reply = world_.router_interfaces(router).front();
    }
  }

  const GeneratorConfig cfg_;
  Rng rng_;
  AddressPlan plan_;
  World world_;
  std::vector<RouterId> cloud_cores_[kCloudProviderCount];
  std::vector<RouterId> cloud_borders_[kCloudProviderCount];
  std::unordered_set<std::uint32_t> ixp_operator_;
  std::vector<RouterId> fixed_reply_routers_;
  // Lookup structures that replace per-call linear scans (tentpole of the
  // Internet-scale work): colo buckets by metro, the colo hosting each IXP,
  // the Amazon-adjacent IXP candidate list for public peerings, and memos
  // for the nearest-border searches (borders are static once the clouds are
  // built, so the memoized answers can never go stale).
  std::vector<std::vector<ColoId>> colos_by_metro_;
  std::vector<ColoId> colo_of_ixp_;
  std::vector<IxpId> amazon_ixp_candidates_;
  std::unordered_map<std::uint64_t, RouterId> border_at_memo_;
  std::unordered_map<std::uint64_t, RouterId> second_border_memo_;
  // Per-AS /30 carving state: cursor into the current block, plus the
  // WHOIS-only overflow block once the primary's point-to-point budget is
  // spent (scale presets only — see client_p2p).
  struct P2pCursor {
    std::uint64_t cursor = 0;
    std::optional<Prefix> overflow;
  };
  std::unordered_map<std::uint32_t, P2pCursor> client_p2p_cursor_;
  std::unordered_map<std::uint32_t, std::uint64_t> ixp_lan_cursor_;
  std::unordered_map<std::uint64_t, std::vector<LinkId>> inter_as_links_;
};

// ----------------------------------------------------------------------
// Cloud-client interconnection construction.
// ----------------------------------------------------------------------

void Builder::make_cloud_peerings() {
  // Amazon-adjacent IXPs, computed once. add_public_peerings used to rebuild
  // this list per client — an O(clients × ixps × borders) triple loop that
  // dominated generation at Internet scale. Borders are final here, so the
  // candidate list (IXP table order, matching the old scan) never changes.
  {
    std::unordered_set<std::uint32_t> amazon_metros;
    for (RouterId border :
         cloud_borders_[static_cast<int>(CloudProvider::kAmazon)])
      amazon_metros.insert(world_.routers[border.value].metro.value);
    for (std::uint32_t x = 0; x < world_.ixps.size(); ++x)
      for (MetroId m : world_.ixps[x].metros)
        if (amazon_metros.count(m.value)) {
          amazon_ixp_candidates_.push_back(IxpId{x});
          break;
        }
  }

  // Inter-cloud peering: the large clouds peer with each other both
  // privately and at IXPs (the paper finds Google and Microsoft among
  // Amazon's Pb-nB and Pr-nB peers). Modeled with Amazon as the subject
  // side, each foreign cloud announcing its own prefixes.
  for (CloudProvider other :
       {CloudProvider::kMicrosoft, CloudProvider::kGoogle,
        CloudProvider::kIbm, CloudProvider::kOracle}) {
    const AsId other_as = world_.cloud_primary(other);
    add_xconnects(other_as, CloudProvider::kAmazon,
                  static_cast<int>(rng_.range(2, 5)));
    add_public_peerings(other_as, static_cast<int>(rng_.range(1, 3)));
  }

  for (std::uint32_t i = 0; i < world_.ases.size(); ++i) {
    const AsType type = world_.ases[i].type;
    if (type == AsType::kCloud) continue;
    // IXP-operator pseudo-ASes take no cloud peerings.
    if (ixp_operator_.count(i)) continue;

    const AsId client{i};
    switch (type) {
      case AsType::kTier1:
        // Tier-1s cross-connect with every cloud; this is also what gives
        // the foreign clouds (and their probes, §7.1) global reachability.
        if (rng_.chance(cfg_.tier1_xconnect))
          add_xconnects(client, CloudProvider::kAmazon,
                        static_cast<int>(rng_.range(10, 22)));
        for (CloudProvider other :
             {CloudProvider::kMicrosoft, CloudProvider::kGoogle,
              CloudProvider::kIbm, CloudProvider::kOracle})
          add_xconnects(client, other, static_cast<int>(rng_.range(2, 6)));
        if (rng_.chance(cfg_.tier1_vpi))
          add_vpis(client, static_cast<int>(rng_.range(1, 3)));
        break;
      case AsType::kTier2:
        if (rng_.chance(cfg_.tier2_public))
          add_public_peerings(client, static_cast<int>(rng_.range(1, 4)));
        if (rng_.chance(cfg_.tier2_xconnect))
          add_xconnects(client, CloudProvider::kAmazon,
                        static_cast<int>(rng_.range(2, 8)));
        if (rng_.chance(cfg_.tier2_vpi))
          add_vpis(client,
                   static_cast<int>(rng_.range(1, cfg_.max_vpi_ports)));
        break;
      case AsType::kAccess:
        if (rng_.chance(cfg_.access_public))
          add_public_peerings(client, static_cast<int>(rng_.range(1, 2)));
        if (rng_.chance(cfg_.access_xconnect))
          add_xconnects(client, CloudProvider::kAmazon, 1);
        if (rng_.chance(cfg_.access_vpi))
          add_vpis(client,
                   static_cast<int>(rng_.range(1, cfg_.max_vpi_ports)));
        break;
      case AsType::kEnterprise:
        if (rng_.chance(cfg_.enterprise_public))
          add_public_peerings(client, 1);
        if (rng_.chance(cfg_.enterprise_xconnect))
          add_xconnects(client, CloudProvider::kAmazon, 1);
        if (rng_.chance(cfg_.enterprise_vpi))
          add_vpis(client,
                   static_cast<int>(rng_.range(1, cfg_.max_vpi_ports)));
        break;
      case AsType::kContent:
        if (rng_.chance(cfg_.content_public))
          add_public_peerings(client, static_cast<int>(rng_.range(1, 3)));
        if (rng_.chance(cfg_.content_xconnect))
          add_xconnects(client, CloudProvider::kAmazon, 1);
        if (rng_.chance(cfg_.content_vpi)) add_vpis(client, 1);
        break;
      case AsType::kCdn:
        add_public_peerings(client, static_cast<int>(rng_.range(2, 6)));
        if (rng_.chance(cfg_.cdn_xconnect))
          add_xconnects(client, CloudProvider::kAmazon,
                        static_cast<int>(rng_.range(1, 4)));
        if (rng_.chance(cfg_.cdn_vpi)) add_vpis(client, 1);
        break;
      case AsType::kCloud:
        break;
    }
  }
}

void Builder::add_public_peerings(AsId client, int count) {
  // Peer with Amazon at IXPs where Amazon has a border router in the metro
  // (candidate list precomputed in make_cloud_peerings).
  if (amazon_ixp_candidates_.empty()) return;
  std::vector<IxpId> candidates = amazon_ixp_candidates_;
  rng_.shuffle(candidates);
  count = std::min<int>(count, static_cast<int>(candidates.size()));
  const AutonomousSystem& as = world_.ases[client.value];
  for (int k = 0; k < count; ++k) {
    const IxpId ixp_id = candidates[k];
    const ColoId colo = colo_of_ixp_[ixp_id.value];
    if (!colo.valid()) continue;
    const MetroId metro = world_.colos[colo.value].metro;
    const RouterId amazon_border = border_at(CloudProvider::kAmazon, colo);

    const bool remote = rng_.chance(cfg_.public_remote) &&
                        !member_metro_matches(as, metro);
    const MetroId client_metro =
        remote ? as.footprint[rng_.bounded(as.footprint.size())] : metro;
    const RouterId client_router = client_router_at(client, client_metro);

    // Both sides take addresses on the IXP LAN; the member's LAN address is
    // what traceroute reports as the CBI. Latency reflects where the two
    // routers physically sit (a remote member's L2 tail shows up here).
    const Ipv4 amazon_addr = next_lan_address(ixp_id);
    const Ipv4 member_addr = next_lan_address(ixp_id);
    const InterfaceId a =
        world_.add_interface(amazon_border, amazon_addr, LinkId{});
    const InterfaceId b =
        world_.add_interface(client_router, member_addr, LinkId{});
    const LinkId link = world_.add_link(
        a, b, LinkKind::kIxpLan,
        0.15 + metro_latency(world_.routers[amazon_border.value].metro,
                             world_.routers[client_router.value].metro));

    GroundTruthInterconnect ic;
    ic.cloud = CloudProvider::kAmazon;
    ic.client = client;
    ic.kind = PeeringKind::kPublicIxp;
    ic.colo = colo;
    ic.metro = metro;
    ic.link = link;
    ic.remote = remote;
    ic.client_metro = client_metro;
    ic.cloud_interface = a;
    ic.client_interface = b;
    ic.announced_to_cloud = announced_set(client, /*cone=*/true);

    // Redundant session to a second Amazon router on the same IXP fabric:
    // the member's one LAN port now answers behind either router.
    if (rng_.chance(cfg_.redundant_session)) {
      const RouterId other =
          second_border(CloudProvider::kAmazon, colo, amazon_border);
      if (other.valid()) {
        const InterfaceId a2 =
            world_.add_interface(other, next_lan_address(ixp_id), LinkId{});
        const InterfaceId b2 =
            world_.add_interface(client_router, member_addr, LinkId{});
        ic.secondary_link = world_.add_link(
            a2, b2, LinkKind::kIxpLan,
            0.15 + metro_latency(world_.routers[other.value].metro,
                                 world_.routers[client_router.value].metro));
      }
    }
    world_.interconnects.push_back(std::move(ic));
  }
}

void Builder::add_xconnects(AsId client, CloudProvider provider, int count) {
  // Cross-connect at native colos of the provider.
  const auto& borders = cloud_borders_[static_cast<int>(provider)];
  if (borders.empty()) return;
  std::vector<RouterId> shuffled = borders;
  rng_.shuffle(shuffled);
  count = std::min<int>(count, static_cast<int>(shuffled.size()));
  const AutonomousSystem& as = world_.ases[client.value];
  for (int k = 0; k < count; ++k) {
    const RouterId border = shuffled[k];
    const Router& border_router = world_.routers[border.value];
    const ColoId colo = border_router.colo;
    const MetroId metro = border_router.metro;
    const bool remote = rng_.chance(cfg_.xconnect_remote) &&
                        !member_metro_matches(as, metro);
    const MetroId client_metro =
        remote ? as.footprint[rng_.bounded(as.footprint.size())] : metro;
    const RouterId client_router = client_router_at(client, client_metro);

    const bool cloud_subnet = rng_.chance(cfg_.cloud_provided_subnet);
    const Prefix p2p = cloud_subnet ? cloud_p2p(provider) : client_p2p(client);
    const InterfaceId a =
        world_.add_interface(border, p2p.network().next(1), LinkId{});
    const InterfaceId b =
        world_.add_interface(client_router, p2p.network().next(2), LinkId{});
    // Same colo for local cross-connects; remote ones carry the partner's
    // layer-2 tail, reflected by the true router-to-router distance.
    const LinkId link = world_.add_link(
        a, b, LinkKind::kCrossConnect,
        0.05 + (remote ? metro_latency(metro, client_metro) : 0.0));

    GroundTruthInterconnect ic;
    ic.cloud = provider;
    ic.client = client;
    ic.kind = PeeringKind::kCrossConnect;
    ic.colo = colo;
    ic.metro = metro;
    ic.link = link;
    ic.remote = remote;
    ic.client_metro = client_metro;
    ic.cloud_provided_subnet = cloud_subnet;
    ic.cloud_interface = a;
    ic.client_interface = b;
    // Transit networks announce their full customer cone over the
    // cross-connect; edge networks announce their own space only.
    const bool transit = as.type == AsType::kTier1 || as.type == AsType::kTier2;
    ic.announced_to_cloud = announced_set(client, /*cone=*/transit);
    world_.interconnects.push_back(std::move(ic));
  }
}

void Builder::add_vpis(AsId client, int count) {
  // Candidate colos: cloud exchanges where Amazon is native (local VPI) or
  // any exchange colo via a connectivity partner (remote VPI).
  std::vector<ColoId> exchanges;
  for (std::uint32_t c = 0; c < world_.colos.size(); ++c)
    if (world_.colos[c].has_cloud_exchange) exchanges.push_back(ColoId{c});
  if (exchanges.empty()) return;
  const AutonomousSystem& as = world_.ases[client.value];

  for (int k = 0; k < count; ++k) {
    const ColoId colo = exchanges[rng_.bounded(exchanges.size())];
    const MetroId metro = world_.colos[colo.value].metro;
    const bool remote =
        rng_.chance(cfg_.vpi_remote) && !member_metro_matches(as, metro);
    const MetroId client_metro =
        remote ? as.footprint[rng_.bounded(as.footprint.size())] : metro;
    const RouterId client_router = client_router_at(client, client_metro);
    const bool priv = rng_.chance(cfg_.vpi_private_address);
    const bool shared_port = !priv && rng_.chance(cfg_.vpi_shared_port);

    // Which clouds terminate VPIs on this port. Amazon always; others by
    // adoption probability (only meaningful for overlap when shared_port).
    std::vector<CloudProvider> clouds = {CloudProvider::kAmazon};
    if (rng_.chance(cfg_.also_microsoft)) clouds.push_back(CloudProvider::kMicrosoft);
    if (rng_.chance(cfg_.also_google)) clouds.push_back(CloudProvider::kGoogle);
    if (rng_.chance(cfg_.also_ibm)) clouds.push_back(CloudProvider::kIbm);
    if (cfg_.also_oracle > 0.0 && rng_.chance(cfg_.also_oracle))
      clouds.push_back(CloudProvider::kOracle);

    // Shared-port addressing: one client-owned address reused on every VPI
    // of this port; otherwise each cloud provides a /30.
    Ipv4 port_address;
    if (shared_port) {
      const Prefix port = client_p2p(client);
      port_address = port.network().next(1);
    }

    for (CloudProvider provider : clouds) {
      const RouterId border = border_at(provider, colo);
      if (!border.valid()) continue;
      Ipv4 cloud_side;
      Ipv4 client_side;
      bool cloud_subnet = false;
      if (priv) {
        const Prefix p2p = plan_.cloud_private.allocate(30);
        cloud_side = p2p.network().next(1);
        client_side = p2p.network().next(2);
        cloud_subnet = true;
      } else if (shared_port) {
        const Prefix p2p = cloud_p2p(provider);
        cloud_side = p2p.network().next(1);
        client_side = port_address;  // same address on every VPI of the port
      } else {
        cloud_subnet = rng_.chance(cfg_.cloud_provided_subnet);
        const Prefix p2p =
            cloud_subnet ? cloud_p2p(provider) : client_p2p(client);
        cloud_side = p2p.network().next(1);
        client_side = p2p.network().next(2);
      }
      const InterfaceId a = world_.add_interface(border, cloud_side, LinkId{});
      const InterfaceId b =
          world_.add_interface(client_router, client_side, LinkId{});
      // The virtual circuit's latency spans wherever the two routers really
      // are: the cloud's nearest border (possibly in another metro when the
      // cloud is not native at this exchange) and the client port (possibly
      // behind a partner's remote L2 tail).
      const LinkId link = world_.add_link(
          a, b, LinkKind::kVpi,
          0.2 + metro_latency(world_.routers[border.value].metro,
                              world_.routers[client_router.value].metro));

      GroundTruthInterconnect ic;
      ic.cloud = provider;
      ic.client = client;
      ic.kind = PeeringKind::kVpi;
      ic.colo = colo;
      ic.metro = metro;
      ic.link = link;
      ic.remote = remote;
      ic.client_metro = client_metro;
      ic.private_address = priv;
      ic.shared_port_address = shared_port;
      ic.cloud_provided_subnet = cloud_subnet;
      ic.cloud_interface = a;
      ic.client_interface = b;
      // VPIs carry the client's own routes only — and none at all when the
      // VPI is private-addressed (confined to the VPC).
      if (!priv) ic.announced_to_cloud = announced_set(client, /*cone=*/false);
      // Redundant virtual circuit to a second border on the same exchange
      // fabric (public-address VPIs only; the client port keeps its address).
      if (!priv && rng_.chance(cfg_.redundant_session)) {
        const RouterId other = second_border(provider, colo, border);
        if (other.valid()) {
          const Prefix p2p2 = cloud_p2p(provider);
          const InterfaceId a2 =
              world_.add_interface(other, p2p2.network().next(1), LinkId{});
          const InterfaceId b2 =
              world_.add_interface(client_router, client_side, LinkId{});
          ic.secondary_link = world_.add_link(
              a2, b2, LinkKind::kVpi,
              0.2 + metro_latency(world_.routers[other.value].metro,
                                  world_.routers[client_router.value].metro));
        }
      }
      world_.interconnects.push_back(std::move(ic));
    }
  }
}

}  // namespace

World generate_world(const GeneratorConfig& config) {
  Builder builder(config);
  return builder.build();
}

GeneratorConfig GeneratorConfig::small() {
  GeneratorConfig cfg;
  cfg.metro_count = 12;
  cfg.amazon_regions = 4;
  cfg.microsoft_regions = 3;
  cfg.google_regions = 2;
  cfg.ibm_regions = 2;
  cfg.oracle_regions = 2;
  cfg.tier1_count = 3;
  cfg.tier2_count = 8;
  cfg.access_count = 14;
  cfg.enterprise_count = 24;
  cfg.content_count = 8;
  cfg.cdn_count = 3;
  cfg.amazon_edge_metros = 3;
  return cfg;
}

GeneratorConfig GeneratorConfig::paper_shape() {
  return GeneratorConfig{};  // defaults are the paper-shape preset
}

GeneratorConfig GeneratorConfig::from_spec(const WorldSpec& spec) {
  GeneratorConfig cfg;  // start from the paper-shape defaults
  cfg.seed = spec.seed;
  const double r = std::max(1.0, static_cast<double>(spec.total_ases) / 540.0);
  const double s = std::sqrt(r);

  // Infrastructure tiers grow sub-linearly, the way the real Internet's do:
  // a 100x bigger world has a handful more tier-1 carriers, ~10x the
  // regional transits, not 100x of either.
  cfg.tier1_count = std::min(
      24, static_cast<int>(8.0 * (1.0 + std::log2(r) / 3.0)));
  cfg.tier2_count = std::max(8, static_cast<int>(56.0 * s));
  cfg.cdn_count = std::max(4, static_cast<int>(16.0 * s));
  cfg.metro_count = std::min(2000, std::max(45, static_cast<int>(45.0 * s)));
  cfg.amazon_edge_metros = std::max(22, static_cast<int>(22.0 * s));
  if (spec.total_ases > 2000) {
    // Big worlds: larger IXP LANs (more public peers land on each
    // Amazon-adjacent IXP) and a capped intra-AS backbone mesh.
    cfg.ixp_lan_prefix = 21;
    cfg.max_intra_as_mesh = 3;
  }

  // Address budget: /24 targets the finished world should expose across the
  // Amazon regions that sweep them. Expected /24 yield per AS of each type
  // is (average block count) × (/24s per block at the current shift).
  const double budget =
      static_cast<double>(spec.targets_per_region) * cfg.amazon_regions;
  const auto infra_yield = [&](int shift) {
    const double tier1 = 4.5 * (1u << std::max(0, 8 - shift));  // /16 blocks
    const double tier2 = 3.0 * (1u << std::max(0, 6 - shift));  // /18 blocks
    const double cdn = 2.0 * (1u << std::max(0, 3 - shift));    // /21 blocks
    return cfg.tier1_count * tier1 + cfg.tier2_count * tier2 +
           cfg.cdn_count * cdn;
  };
  int shift = 0;
  while (shift < 5 && infra_yield(shift) > 0.75 * budget) ++shift;
  cfg.client_prefix_shift = shift;

  // Split the remaining ASes: content keeps its paper-shape share, then the
  // access/enterprise split is solved so expected targets land on what is
  // left of the budget (access ASes yield big blocks, enterprises ~one /24).
  const int infra = cfg.tier1_count + cfg.tier2_count + cfg.cdn_count;
  const int rest = std::max(3, spec.total_ases - infra);
  const int content = std::max(1, rest * 80 / 460);
  const int edge = rest - content;
  const double access_yield = 2.0 * (1u << std::max(0, 5 - shift));
  const double content_yield = 1u << std::max(0, 2 - shift);
  const double enterprise_yield = shift > 0 ? 1.0 : 1.5;
  const double edge_budget =
      std::max(0.0, budget - infra_yield(shift) - content * content_yield);
  const double need = edge > 0 ? edge_budget / edge : 0.0;
  const double access_share = std::clamp(
      (need - enterprise_yield) / (access_yield - enterprise_yield), 0.02,
      0.55);
  cfg.content_count = content;
  cfg.access_count = std::max(1, static_cast<int>(edge * access_share));
  cfg.enterprise_count = std::max(1, edge - cfg.access_count);
  return cfg;
}

}  // namespace cloudmap
