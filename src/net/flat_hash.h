// Open-addressed hash tables. FlatHashMap serves the forwarding hot path:
// the forwarder's link-pair indexes and World's interface index.
// libstdc++'s unordered_map is node-based: every find chases a bucket
// pointer into a heap node, which is a guaranteed cache miss on the
// (common) negative probe. This map keeps keys and values in two flat
// arrays with linear probing, so a miss usually costs one cache line.
//
// Usage contract, mirroring FlatPrefixTrie: insert() while building, then
// freeze() exactly once; find() is valid only on a frozen map. Key 0 is
// reserved as the empty-slot sentinel and must never be inserted — every
// caller satisfies this structurally (World indexes only assigned, non-zero
// addresses, and router/AS pair keys would require a self-link between
// id-0 entities). Duplicate keys keep the first insertion, matching
// unordered_map::emplace.
//
// lint: hot-path
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cloudmap {

template <typename Key, typename Value>
class FlatHashMap {
 public:
  void insert(Key key, Value value) {
    assert(!frozen_);
    assert(key != Key{0});
    pending_.emplace_back(key, std::move(value));
  }

  // Builds the probe table. Capacity is the next power of two holding the
  // entries at <= 50% load, so probe sequences stay short.
  void freeze() {
    assert(!frozen_);
    std::size_t capacity = 16;
    while (capacity < pending_.size() * 2) capacity *= 2;
    keys_.assign(capacity, Key{0});
    values_.assign(capacity, Value{});
    mask_ = capacity - 1;
    for (const auto& [key, value] : pending_) {
      std::size_t slot = probe_start(key);
      while (keys_[slot] != Key{0} && keys_[slot] != key)
        slot = (slot + 1) & mask_;
      if (keys_[slot] == key) continue;  // first insertion wins
      keys_[slot] = key;
      values_[slot] = value;
      ++size_;
    }
    pending_.clear();
    pending_.shrink_to_fit();
    frozen_ = true;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  const Value* find(Key key) const {
    assert(frozen_);
    std::size_t slot = probe_start(key);
    while (true) {
      const Key at = keys_[slot];
      if (at == key) return &values_[slot];
      if (at == Key{0}) return nullptr;
      slot = (slot + 1) & mask_;
    }
  }

  // The keys are fixed at freeze(); their values may still be filled in
  // afterwards (counting into a frozen index).
  Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

 private:
  std::size_t probe_start(Key key) const {
    std::uint64_t state = static_cast<std::uint64_t>(key);
    return static_cast<std::size_t>(splitmix64(state)) & mask_;
  }

  std::vector<std::pair<Key, Value>> pending_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  bool frozen_ = false;
};

// Growable set of 64-bit keys for deduplicating a stream: insert() answers
// whether the key is new. Linear probing over one flat array kept at <= 50%
// load; the array doubles when it would pass that. Key 0 marks an empty
// slot, so it is tracked by a flag instead. for_each visits the keys in
// slot order, which depends only on the keys and their insertion order.
class FlatKeySet {
 public:
  bool insert(std::uint64_t key) {
    if (key == 0) {
      const bool added = !has_zero_;
      has_zero_ = true;
      return added;
    }
    if (2 * (table_size_ + 1) > slots_.size()) grow();
    std::size_t slot = probe_start(key);
    while (slots_[slot] != 0) {
      if (slots_[slot] == key) return false;
      slot = (slot + 1) & (slots_.size() - 1);
    }
    slots_[slot] = key;
    ++table_size_;
    return true;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_zero_) fn(std::uint64_t{0});
    for (const std::uint64_t key : slots_)
      if (key != 0) fn(key);
  }

 private:
  std::size_t probe_start(std::uint64_t key) const {
    std::uint64_t state = key;
    return static_cast<std::size_t>(splitmix64(state)) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t slot = probe_start(key);
      while (slots_[slot] != 0) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t table_size_ = 0;
  bool has_zero_ = false;
};

}  // namespace cloudmap
