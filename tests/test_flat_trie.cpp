// FlatPrefixTrie: longest-prefix match against brute-force and
// by-definition oracles (randomized, over up to 10k prefixes), covering and
// adjacent /24 structure, default-route fallback, last-insert-wins,
// batch-vs-scalar identity and entry order — plus the FlatHashMap probe
// table behind the forwarder's and World's indexes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/flat_hash.h"
#include "net/flat_prefix_trie.h"
#include "util/rng.h"

namespace cloudmap {
namespace {

TEST(FlatPrefixTrie, EmptyLookups) {
  FlatPrefixTrie<int> trie;
  trie.freeze();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.lookup(Ipv4(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(trie.exact(Prefix(Ipv4(1, 2, 3, 0), 24)), nullptr);
}

TEST(FlatPrefixTrie, CoveringAndAdjacentSlash24s) {
  // A /16 covering two adjacent /24s, one of which carries a /32: the walk
  // must pick the most specific match at every level, and the adjacent /24
  // must not bleed into its neighbour.
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 1, 0, 0), 16), 160);
  trie.insert(Prefix(Ipv4(10, 1, 5, 0), 24), 240);
  trie.insert(Prefix(Ipv4(10, 1, 6, 0), 24), 241);
  trie.insert(Prefix(Ipv4(10, 1, 5, 99), 32), 320);
  trie.freeze();

  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 4, 7)), 160);    // /16 only
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 5, 1)), 240);    // first /24
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 5, 99)), 320);   // the /32 inside it
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 6, 99)), 241);   // adjacent /24
  EXPECT_EQ(*trie.lookup(Ipv4(10, 1, 7, 0)), 160);    // past both /24s
  EXPECT_EQ(trie.lookup(Ipv4(10, 2, 0, 1)), nullptr); // outside the /16
}

TEST(FlatPrefixTrie, DefaultRouteFallback) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(0, 0, 0, 0), 0), 7);
  trie.insert(Prefix(Ipv4(192, 168, 0, 0), 16), 16);
  trie.freeze();
  EXPECT_EQ(*trie.lookup(Ipv4(8, 8, 8, 8)), 7);
  EXPECT_EQ(*trie.lookup(Ipv4(255, 255, 255, 255)), 7);
  EXPECT_EQ(*trie.lookup(Ipv4(192, 168, 3, 4)), 16);
}

TEST(FlatPrefixTrie, LastInsertOfSamePrefixWins) {
  FlatPrefixTrie<int> trie;
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 2);
  trie.freeze();
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.lookup(Ipv4(10, 9, 9, 9)), 2);
  EXPECT_EQ(*trie.exact(Prefix(Ipv4(10, 0, 0, 0), 8)), 2);
}

// Property test: random prefix sets against a brute-force oracle.
class FlatPrefixTrieProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatPrefixTrieProperty, MatchesBruteForceOracle) {
  Rng rng(GetParam());
  FlatPrefixTrie<int> trie;
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 200; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.range(4, 30));
    const Prefix p(Ipv4(static_cast<std::uint32_t>(rng.next())), length);
    // Keep the oracle simple: skip duplicate prefixes.
    bool duplicate = false;
    for (const auto& [existing, value] : entries)
      if (existing == p) duplicate = true;
    if (duplicate) continue;
    entries.emplace_back(p, i);
    trie.insert(p, i);
  }
  trie.freeze();
  ASSERT_EQ(trie.size(), entries.size());

  for (int probe = 0; probe < 2000; ++probe) {
    // Half the probes land inside a random entry, half are uniform.
    Ipv4 address(static_cast<std::uint32_t>(rng.next()));
    if (!entries.empty() && probe % 2 == 0) {
      const auto& [p, value] = entries[rng.bounded(entries.size())];
      address = Ipv4(p.network().value() +
                     static_cast<std::uint32_t>(rng.bounded(p.size())));
    }
    // Oracle: longest containing prefix.
    const std::pair<Prefix, int>* best = nullptr;
    for (const auto& entry : entries) {
      if (!entry.first.contains(address)) continue;
      if (best == nullptr || entry.first.length() > best->first.length())
        best = &entry;
    }
    const int* found = trie.lookup(address);
    if (best == nullptr) {
      EXPECT_EQ(found, nullptr) << address.to_string();
    } else {
      ASSERT_NE(found, nullptr) << address.to_string();
      EXPECT_EQ(*found, best->second) << address.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatPrefixTrieProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

// Deterministic random prefix mix spanning every stride boundary the flat
// layout cares about (root <=16, level-1 17..24, level-2 25..32).
std::vector<Prefix> random_prefixes(Rng& rng, std::size_t count) {
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto length = static_cast<std::uint8_t>(rng.range(0, 32));
    prefixes.emplace_back(Ipv4(static_cast<std::uint32_t>(rng.next())),
                          length);
  }
  return prefixes;
}

// Longest-prefix match by definition: the first (address masked to L, L)
// present, for L from 32 down to 0. `entries` is filled by assignment, so a
// repeated prefix holds its last insert.
const std::uint32_t* longest_match(
    const std::map<Prefix, std::uint32_t>& entries, Ipv4 address) {
  for (int length = 32; length >= 0; --length) {
    const auto it =
        entries.find(Prefix(address, static_cast<std::uint8_t>(length)));
    if (it != entries.end()) return &it->second;
  }
  return nullptr;
}

TEST(FlatPrefixTrie, RandomizedCrossCheckAgainstLpmDefinition) {
  Rng rng(0xC10Dull);
  std::map<Prefix, std::uint32_t> reference;
  FlatPrefixTrie<std::uint32_t> flat;
  const std::vector<Prefix> prefixes = random_prefixes(rng, 10000);
  for (std::uint32_t i = 0; i < prefixes.size(); ++i) {
    reference[prefixes[i]] = i;
    flat.insert(prefixes[i], i);
  }
  flat.freeze();
  ASSERT_EQ(flat.size(), reference.size());

  // Probe pure-random addresses plus the structured edges of every 50th
  // inserted prefix (network, last covered address, both neighbours).
  std::vector<Ipv4> probes;
  for (int i = 0; i < 20000; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng.next()));
  for (std::size_t i = 0; i < prefixes.size(); i += 50) {
    const std::uint32_t network = prefixes[i].network().value();
    const std::uint32_t span =
        prefixes[i].length() == 0
            ? 0xFFFFFFFFu
            : (prefixes[i].length() == 32
                   ? 0u
                   : (0xFFFFFFFFu >> prefixes[i].length()));
    probes.emplace_back(network);
    probes.emplace_back(network + span);
    probes.emplace_back(network - 1);       // just below (wraps at 0: fine)
    probes.emplace_back(network + span + 1);  // just above
  }

  for (const Ipv4 probe : probes) {
    const std::uint32_t* expected = longest_match(reference, probe);
    const std::uint32_t* actual = flat.lookup(probe);
    if (expected == nullptr) {
      ASSERT_EQ(actual, nullptr) << "probe " << probe.value();
    } else {
      ASSERT_NE(actual, nullptr) << "probe " << probe.value();
      ASSERT_EQ(*actual, *expected) << "probe " << probe.value();
    }
  }
}

TEST(FlatPrefixTrie, BatchMatchesScalar) {
  Rng rng(0xBA7C4ull);
  FlatPrefixTrie<std::uint32_t> flat;
  const std::vector<Prefix> prefixes = random_prefixes(rng, 2000);
  for (std::uint32_t i = 0; i < prefixes.size(); ++i)
    flat.insert(prefixes[i], i);
  flat.freeze();

  std::vector<Ipv4> addresses;
  for (int i = 0; i < 4096; ++i)
    addresses.emplace_back(static_cast<std::uint32_t>(rng.next()));
  std::vector<const std::uint32_t*> batched(addresses.size());
  flat.lookup_batch(addresses.data(), addresses.size(), batched.data());
  for (std::size_t i = 0; i < addresses.size(); ++i)
    ASSERT_EQ(batched[i], flat.lookup(addresses[i])) << "index " << i;
}

TEST(FlatPrefixTrie, ForEachVisitsAllInAddressOrder) {
  // for_each visits prefixes in (network, length) order, the pre-order of
  // a binary trie over the same prefixes: a covering prefix before the
  // prefixes it covers, whatever the insertion order.
  FlatPrefixTrie<std::uint32_t> trie;
  trie.insert(Prefix(Ipv4(20, 0, 0, 0), 8), 1);
  trie.insert(Prefix(Ipv4(10, 0, 0, 0), 8), 2);
  trie.insert(Prefix(Ipv4(10, 5, 0, 0), 16), 3);
  trie.freeze();
  std::vector<std::string> seen;
  trie.for_each([&](const Prefix& p, std::uint32_t) {
    seen.push_back(p.to_string());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"10.0.0.0/8", "10.5.0.0/16",
                                            "20.0.0.0/8"}));
}

TEST(FlatPrefixTrie, FromBinaryTriePreservesEntriesAndOrder) {
  // for_each visits every distinct prefix once, in (network, length) order,
  // and exact() finds each entry. The reference: a map ordered by
  // (network, length), filled by assignment so that a repeated prefix
  // holds its last insert.
  Rng rng(0xF00Dull);
  FlatPrefixTrie<std::uint32_t> flat;
  std::map<Prefix, std::uint32_t> expected;
  const std::vector<Prefix> prefixes = random_prefixes(rng, 500);
  for (std::uint32_t i = 0; i < prefixes.size(); ++i) {
    flat.insert(prefixes[i], i);
    expected[prefixes[i]] = i;
  }
  flat.freeze();

  std::vector<std::pair<Prefix, std::uint32_t>> actual;
  flat.for_each([&](const Prefix& prefix, const std::uint32_t& value) {
    actual.emplace_back(prefix, value);
  });
  EXPECT_EQ(actual, (std::vector<std::pair<Prefix, std::uint32_t>>(
                        expected.begin(), expected.end())));
  for (const auto& [prefix, value] : expected) {
    const std::uint32_t* exact = flat.exact(prefix);
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, value);
  }
}

TEST(FlatHashMap, FindAfterFreeze) {
  FlatHashMap<std::uint32_t, int> map;
  map.insert(42u, 1);
  map.insert(7u, 2);
  map.insert(42u, 3);  // duplicate: first insertion wins (emplace semantics)
  map.freeze();
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(42u), nullptr);
  EXPECT_EQ(*map.find(42u), 1);
  ASSERT_NE(map.find(7u), nullptr);
  EXPECT_EQ(*map.find(7u), 2);
  EXPECT_EQ(map.find(9u), nullptr);
}

TEST(FlatHashMap, RandomizedCrossCheckAgainstLinearScan) {
  Rng rng(0x4A5Full);
  FlatHashMap<std::uint64_t, std::uint32_t> map;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    std::uint64_t key = rng.next();
    if (key == 0) key = 1;  // 0 is the reserved empty sentinel
    entries.emplace_back(key, i);
    map.insert(key, i);
  }
  map.freeze();
  for (const auto& [key, value] : entries) {
    std::uint32_t expected = 0;
    for (const auto& [k, v] : entries) {
      if (k == key) {
        expected = v;  // first insertion wins
        break;
      }
    }
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, expected);
  }
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t probe = rng.next() | 0x8000000000000000ull;
    bool present = false;
    for (const auto& [k, v] : entries) present = present || k == probe;
    if (!present) {
      EXPECT_EQ(map.find(probe), nullptr);
    }
  }
}

}  // namespace
}  // namespace cloudmap
