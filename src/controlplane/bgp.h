// Gao-Rexford BGP route propagation over the world's AS-level graph, plus
// the collector infrastructure that turns propagation into the *partial* BGP
// view the paper works with (RouteViews/RIPE-style snapshots and the CAIDA
// AS-relationship dataset derived from them).
//
// Two products matter downstream:
//   * BgpSnapshot — prefix→origin-ASN announcements visible at collectors;
//     used for traceroute hop annotation (§3) and round-2 re-annotation.
//   * The set of AS links observed on collector paths; used to decide
//     whether an Amazon peering is "visible in BGP" (the B/nB attribute of
//     Table 5).
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/flat_prefix_trie.h"
#include "net/ids.h"
#include "net/prefix.h"
#include "topology/world.h"
#include "util/thread_annotations.h"

namespace cloudmap {

// Relationship classes in route preference order (Gao-Rexford).
enum class RouteClass : std::uint8_t {
  kNone = 0,      // no route
  kProvider = 1,  // learned from a provider (least preferred)
  kPeer = 2,      // learned from a peer
  kCustomer = 3,  // learned from a customer (most preferred)
  kSelf = 4,      // origin
};

// One AS's best route toward a given origin AS, packed into 32 bits: the
// path length in bits 0-7, the class in bits 8-10 and the next hop in bits
// 11-31. The length keeps all 8 bits, so it compares and wraps exactly as a
// std::uint8_t. The next-hop field holds an AsId below kMaxAses or one of
// two sentinels above every id: kNoHop (kSelf / kNone) and kPhantomHop (the
// origin of a shared table, see BgpSimulator).
class RouteEntry {
 public:
  static constexpr unsigned kHopBits = 21;
  static constexpr std::uint32_t kNoHop = (std::uint32_t{1} << kHopBits) - 1;
  static constexpr std::uint32_t kPhantomHop = kNoHop - 1;
  // Every AsId of a world with at most this many ASes fits the field.
  static constexpr std::uint32_t kMaxAses = kPhantomHop;

  constexpr RouteEntry() noexcept = default;
  // `next_hop` is invalid (kSelf / kNone) or below kMaxAses.
  constexpr RouteEntry(RouteClass cls, std::uint8_t length,
                       AsId next_hop) noexcept
      : bits_(pack(cls, length,
                   next_hop.valid() ? next_hop.value : kNoHop)) {}
  // A route whose next hop is the phantom origin of a shared table.
  static constexpr RouteEntry phantom(RouteClass cls,
                                      std::uint8_t length) noexcept {
    RouteEntry entry;
    entry.bits_ = pack(cls, length, kPhantomHop);
    return entry;
  }

  constexpr RouteClass route_class() const noexcept {
    return static_cast<RouteClass>((bits_ >> 8) & 0x7u);
  }
  constexpr std::uint8_t path_length() const noexcept {
    return static_cast<std::uint8_t>(bits_ & 0xFFu);
  }
  // Invalid for kSelf / kNone; AsId{kPhantomHop} for a phantom route.
  constexpr AsId next_hop() const noexcept {
    const std::uint32_t hop = bits_ >> kHopShift;
    return hop == kNoHop ? AsId{} : AsId{hop};
  }
  constexpr bool via_phantom() const noexcept {
    return bits_ >> kHopShift == kPhantomHop;
  }
  constexpr bool has_route() const noexcept {
    return route_class() != RouteClass::kNone;
  }
  constexpr bool operator==(const RouteEntry&) const noexcept = default;

 private:
  static constexpr unsigned kHopShift = 32 - kHopBits;
  static constexpr std::uint32_t pack(RouteClass cls, std::uint8_t length,
                                      std::uint32_t hop) noexcept {
    return hop << kHopShift | static_cast<std::uint32_t>(cls) << 8 | length;
  }

  std::uint32_t bits_ = kNoHop << kHopShift;
};
static_assert(sizeof(RouteEntry) == 4);

// Every AS's route toward one origin: a view of a cached table with the
// origin's two fix-ups applied. A shared table (see BgpSimulator) holds no
// kSelf row, and its origin's providers point at the phantom sentinel; the
// view answers kSelf at the origin and names the origin as the next hop
// instead, so the sentinel never leaves it. Cheap to copy; valid while the
// table it views lives (for BgpSimulator, as long as the simulator).
class RouteTable {
 public:
  RouteTable(const RouteEntry* rows, AsId origin) noexcept
      : rows_(rows), origin_(origin) {}

  RouteEntry operator[](AsId at) const noexcept {
    if (at == origin_) return RouteEntry{RouteClass::kSelf, 0, AsId{}};
    const RouteEntry entry = rows_[at.value];
    if (!entry.via_phantom()) return entry;
    return RouteEntry{entry.route_class(), entry.path_length(), origin_};
  }
  AsId origin() const noexcept { return origin_; }

 private:
  const RouteEntry* rows_;
  AsId origin_;
};

// Route-cache traffic accounting (observability only — never feeds back
// into routing). A "miss" is a lookup that computed a table; every other
// lookup is a hit, including lookups that found the table already computed
// for another origin sharing its slot, and lookups that waited on another
// thread's in-flight fill.
struct BgpCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Routing state of every AS toward every origin, one table per *slot*.
//
// A pure stub (at least one provider, no peers, no customers) is never a
// transit hop, so its table is the table of a phantom origin whose only
// neighbours are the same providers, except for its own row (kSelf) and
// its providers' next hop (the stub itself). All pure stubs with the same
// provider set therefore share one slot, computed by seeding each provider
// with a phantom customer route of length 1; every other AS has a slot of
// its own. RouteTable applies the two fix-ups, so answers are exactly those
// of a table computed for the origin alone, tie-breaks included.
class BgpSimulator {
 public:
  // Throws std::length_error when the world has more than
  // RouteEntry::kMaxAses ASes (the next-hop field would not fit them).
  explicit BgpSimulator(const World& world);

  // Best routes of every AS toward `origin`. The origin's slot is computed
  // once and cached. Safe to call concurrently from many threads — the
  // cache fill is guarded, and a published table is never mutated again.
  RouteTable routes_to(AsId origin) const CM_EXCLUDES(fill_mutex_);

  // Batched variant: compute and publish the tables of every listed origin
  // under a single lock acquisition (one mutex round-trip instead of one
  // per cache miss). After it returns, routes_to() for each origin is a
  // lock-free hit. Counts one miss per table actually computed.
  void warm_routes(const std::vector<AsId>& origins) const
      CM_EXCLUDES(fill_mutex_);

  // The AS path from `from` toward `origin` (inclusive of both ends);
  // empty when no route exists.
  std::vector<AsId> path(AsId from, AsId origin) const;

  // True when `from` has any route toward `origin`.
  bool reachable(AsId from, AsId origin) const;

  const World& world() const noexcept { return *world_; }

  // Cumulative cache traffic since construction. Relaxed reads — exact once
  // the campaign threads have joined, approximate while they run.
  BgpCacheStats cache_stats() const {
    return BgpCacheStats{cache_hits_.load(std::memory_order_relaxed),
                         cache_misses_.load(std::memory_order_relaxed)};
  }

 private:
  void compute(std::uint32_t slot, std::vector<RouteEntry>& table) const
      CM_REQUIRES(fill_mutex_);
  // Fills `slot` if it is not published yet; returns its table.
  const std::vector<RouteEntry>& fill(std::uint32_t slot) const
      CM_REQUIRES(fill_mutex_);
  // Read-side of the release/acquire publish protocol (below): deliberately
  // outside the lock analysis, safe only after cached_[slot] reads true
  // with acquire semantics.
  const std::vector<RouteEntry>& published_table(std::uint32_t slot) const
      CM_NO_THREAD_SAFETY_ANALYSIS {
    return cache_[slot];
  }

  const World* world_;
  // slot_of_[as] is the slot holding `as`'s table; slot_seed_[slot] is the
  // AS it is computed from: the origin itself, or for a shared slot the
  // lowest-id pure stub behind that provider set.
  std::vector<std::uint32_t> slot_of_;
  std::vector<AsId> slot_seed_;
  // Lazily-filled per-slot cache. Writes are CM_GUARDED_BY fill_mutex_;
  // `cached_[slot]` is set with release semantics only after the table is
  // fully computed, and readers that observed it true with acquire
  // semantics may read the published table lock-free via published_table()
  // — the one documented CM_NO_THREAD_SAFETY_ANALYSIS exception, validated
  // by the TSan CI job (the campaign fans traceroutes out across worker
  // threads, all of which route here).
  mutable std::vector<std::vector<RouteEntry>> cache_
      CM_GUARDED_BY(fill_mutex_);
  mutable std::vector<std::atomic<bool>> cached_;
  mutable Mutex fill_mutex_;
  // Padded so the hot hit counter never false-shares with the fill state.
  alignas(64) mutable std::atomic<std::uint64_t> cache_hits_{0};
  alignas(64) mutable std::atomic<std::uint64_t> cache_misses_{0};
};

// A BGP snapshot as seen from a set of collector-feeding ASes: the prefixes
// that reach at least one feed, each mapped to its origin ASN, plus the AS
// links appearing on the feeds' best paths (the synthetic CAIDA AS-rel
// dataset).
struct BgpSnapshot {
  FlatPrefixTrie<Asn> origin_of;                // prefix → origin ASN
  std::unordered_set<std::uint64_t> as_links;   // canonical (lo,hi) ASN pairs

  static std::uint64_t link_key(Asn a, Asn b) {
    const std::uint32_t lo = a.value < b.value ? a.value : b.value;
    const std::uint32_t hi = a.value < b.value ? b.value : a.value;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  bool link_visible(Asn a, Asn b) const {
    return as_links.count(link_key(a, b)) > 0;
  }
};

struct SnapshotOptions {
  // Fraction of each AS's announced blocks withheld from this snapshot when
  // the block is flagged "intermittently announced" (drives the Table 1
  // WHOIS→BGP shift between rounds 1 and 2).
  bool include_intermittent = true;
  // Seed for selecting which prefixes are intermittent; the same seed yields
  // the same intermittent set so round-1/round-2 snapshots differ only by
  // `include_intermittent`.
  std::uint64_t intermittent_seed = 7;
  double intermittent_fraction = 0.22;
};

// Build a snapshot from the given collector feed ASes. A prefix appears if
// its origin's announcement propagates to at least one feed under
// Gao-Rexford export rules; an AS link appears if it lies on a feed's best
// path toward some origin.
//
// Cloud peering specifics: a cloud's prefixes propagate over an interconnect
// only as far as its export scope allows — VPI announcements stay between
// the two parties (never reach collectors); public-IXP and cross-connect
// peerings export into the client's customer cone. The AS link Amazon-X is
// therefore collector-visible only when X re-exports Amazon routes to a
// cone containing a feed, which is exactly the paper's B/nB distinction.
BgpSnapshot build_snapshot(const World& world, const BgpSimulator& sim,
                           const std::vector<AsId>& collector_feeds,
                           const SnapshotOptions& options = {});

// Default collector-feed selection: every tier-1 plus a sample of tier-2s
// (mirrors RouteViews/RIPE peering with large transit networks).
std::vector<AsId> default_collector_feeds(const World& world,
                                          std::uint64_t seed = 11,
                                          double tier2_fraction = 0.3);

// Customer-cone sizes, in /24 equivalents, for every AS (indexed by AsId):
// the "BGP /24" feature of Fig. 6.
std::vector<std::uint64_t> customer_cone_slash24s(const World& world);

}  // namespace cloudmap
