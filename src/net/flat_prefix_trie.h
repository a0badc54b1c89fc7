// Flat array-backed multibit trie with longest-prefix-match lookup: the
// one prefix table behind IP→AS annotation (§3), WHOIS fallback, IXP-LAN
// membership, the cloud FIBs and the world's ground-truth prefix indexes.
// lint: hot-path
//
// A pointer trie walks up to 32 heap nodes per lookup; at campaign scale
// every traceroute hop would pay that three times (BGP origin, WHOIS
// fallback, IXP membership). This trie trades build-time work and a
// fixed 256 KiB root table for lookups that touch at most three cache
// lines: a 16-bit root stride followed by two 8-bit strides, with values
// leaf-pushed into every covered slot so no backtracking is ever needed.
//
// Usage contract: insert() all entries, then freeze() exactly once before
// any lookup. A frozen trie is immutable and safe to share across threads.
// Build order does not matter — freeze() replays entries shortest-prefix
// first, so later (longer) prefixes override the slots of covering blocks,
// and re-inserting an identical prefix overwrites (last insert wins).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix.h"

namespace cloudmap {

template <typename Value>
class FlatPrefixTrie {
 public:
  // Queue an entry for the build. Only valid before freeze().
  void insert(const Prefix& prefix, Value value) {
    assert(!frozen_);
    pending_.push_back(Pending{prefix, std::move(value), pending_.size()});
  }

  // Build the flat tables. Idempotent; required before any query.
  void freeze() {
    if (!frozen_) build();
  }

  // Longest-prefix match: the most specific covering entry, if any.
  const Value* lookup(Ipv4 address) const {
    const std::int32_t slot = find_slot(address);
    return slot >= 0 ? &entries_[slot].value : nullptr;
  }

  // Batched LPM: out[i] receives lookup(addresses[i]). Amortizes the root
  // table's cache misses across independent queries (the loop has no
  // cross-iteration dependence, so the three strided loads pipeline).
  void lookup_batch(const Ipv4* addresses, std::size_t count,
                    const Value** out) const {
    assert(frozen_);
    for (std::size_t i = 0; i < count; ++i) out[i] = lookup(addresses[i]);
  }

  // Value attached to exactly this prefix, if any.
  const Value* exact(const Prefix& prefix) const {
    assert(frozen_);
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), prefix,
        [](const Entry& entry, const Prefix& key) {
          return entry_key(entry.prefix) < entry_key(key);
        });
    if (it == entries_.end() || !(it->prefix == prefix)) return nullptr;
    return &it->value;
  }

  std::size_t size() const noexcept {
    assert(frozen_);
    return entries_.size();
  }
  bool empty() const noexcept { return size() == 0; }

  // Visit every (prefix, value) pair in (network, length) order: a covering
  // prefix before the prefixes it covers (pre-order over the binary trie).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    assert(frozen_);
    for (const Entry& entry : entries_) fn(entry.prefix, entry.value);
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  struct Pending {
    Prefix prefix;
    Value value;
    std::size_t order;  // insertion index; resolves duplicate prefixes
  };
  struct Entry {
    Prefix prefix;
    Value value;
  };

  // (network, length) sort key; pre-order over the binary trie.
  static std::uint64_t entry_key(const Prefix& prefix) {
    return (static_cast<std::uint64_t>(prefix.network().value()) << 8) |
           prefix.length();
  }

  static std::size_t block_base(std::int32_t slot) {
    return static_cast<std::size_t>(-2 - slot) * 256u;
  }

  // Entry index matched by the address, or kEmpty. At most three strided
  // loads; slots are either entry indices (>= 0), kEmpty, or child tags.
  std::int32_t find_slot(Ipv4 address) const {
    assert(frozen_);
    const std::uint32_t bits = address.value();
    std::int32_t slot = root_[bits >> 16];
    if (slot < kEmpty) {
      slot = blocks_[block_base(slot) + ((bits >> 8) & 0xFFu)];
      if (slot < kEmpty) slot = blocks_[block_base(slot) + (bits & 0xFFu)];
    }
    return slot;
  }

  // Allocate a 256-slot child block leaf-pushed with `inherited`, returning
  // its encoded slot tag.
  std::int32_t new_block(std::int32_t inherited) {
    const std::size_t id = blocks_.size() / 256u;
    blocks_.insert(blocks_.end(), 256u, inherited);
    return -2 - static_cast<std::int32_t>(id);
  }

  void build() {
    frozen_ = true;
    // Dedup: last insert of an exact prefix wins, then keep (network,
    // length) order for for_each/exact.
    std::sort(pending_.begin(), pending_.end(),
              [](const Pending& a, const Pending& b) {
                const std::uint64_t ka = entry_key(a.prefix);
                const std::uint64_t kb = entry_key(b.prefix);
                return ka != kb ? ka < kb : a.order < b.order;
              });
    entries_.reserve(pending_.size());
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (i + 1 < pending_.size() &&
          pending_[i + 1].prefix == pending_[i].prefix)
        continue;  // superseded by a later insert of the same prefix
      entries_.push_back(
          Entry{pending_[i].prefix, std::move(pending_[i].value)});
    }
    pending_.clear();
    pending_.shrink_to_fit();

    root_.assign(65536u, kEmpty);
    // Fill shortest-prefix first so longer prefixes override covered slots;
    // child blocks inherit (leaf-push) the covering value when created.
    std::vector<std::uint32_t> by_length(entries_.size());
    for (std::uint32_t i = 0; i < entries_.size(); ++i) by_length[i] = i;
    std::stable_sort(by_length.begin(), by_length.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return entries_[a].prefix.length() <
                              entries_[b].prefix.length();
                     });
    for (const std::uint32_t index : by_length) {
      const Prefix& prefix = entries_[index].prefix;
      const std::uint32_t bits = prefix.network().value();
      const int length = prefix.length();
      const std::int32_t tag = static_cast<std::int32_t>(index);
      if (length <= 16) {
        const std::size_t first = bits >> 16;
        const std::size_t span = std::size_t{1} << (16 - length);
        std::fill_n(root_.begin() + static_cast<std::ptrdiff_t>(first), span,
                    tag);
        continue;
      }
      std::int32_t l1 = root_[bits >> 16];
      if (l1 >= kEmpty) {
        l1 = new_block(l1);
        root_[bits >> 16] = l1;
      }
      const std::size_t l1_base = block_base(l1);
      if (length <= 24) {
        const std::size_t first = l1_base + ((bits >> 8) & 0xFFu);
        std::fill_n(blocks_.begin() + static_cast<std::ptrdiff_t>(first),
                    std::size_t{1} << (24 - length), tag);
        continue;
      }
      // Index, not reference: new_block() reallocates blocks_.
      const std::size_t l2_index = l1_base + ((bits >> 8) & 0xFFu);
      std::int32_t l2 = blocks_[l2_index];
      if (l2 >= kEmpty) {
        l2 = new_block(l2);
        blocks_[l2_index] = l2;
      }
      const std::size_t first = block_base(l2) + (bits & 0xFFu);
      std::fill_n(blocks_.begin() + static_cast<std::ptrdiff_t>(first),
                  std::size_t{1} << (32 - length), tag);
    }
  }

  bool frozen_ = false;
  std::vector<Pending> pending_;
  std::vector<Entry> entries_;           // (network, length) sorted
  std::vector<std::int32_t> root_;       // 2^16 slots, top-16-bit stride
  std::vector<std::int32_t> blocks_;     // 256-slot level-1/2 blocks
};

}  // namespace cloudmap
