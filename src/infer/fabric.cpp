#include "infer/fabric.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <string>

namespace cloudmap {

namespace {

// Insert into an ascending vector unless present. Destinations mostly
// arrive in ascending /24 order, so the common case is an append.
void insert_sorted(std::vector<std::uint32_t>& values, std::uint32_t value) {
  if (values.empty() || values.back() < value) {
    values.push_back(value);
    return;
  }
  const auto at = std::lower_bound(values.begin(), values.end(), value);
  if (*at != value) values.insert(at, value);
}

// Union of two ascending vectors into the first.
void merge_sorted(std::vector<std::uint32_t>& into,
                  const std::vector<std::uint32_t>& from) {
  std::vector<std::uint32_t> merged;
  merged.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
}

}  // namespace

std::vector<std::uint32_t> region_ids(std::uint64_t regions) {
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(std::popcount(regions)));
  for (; regions != 0; regions &= regions - 1)
    out.push_back(static_cast<std::uint32_t>(std::countr_zero(regions)));
  return out;
}

const char* to_string(Confirmation c) {
  switch (c) {
    case Confirmation::kUnconfirmed: return "unconfirmed";
    case Confirmation::kIxpClient: return "ixp-client";
    case Confirmation::kHybrid: return "hybrid";
    case Confirmation::kReachability: return "reachability";
    case Confirmation::kAliasRelabel: return "alias-relabel";
  }
  return "?";
}

void Fabric::add_segment(const CandidateSegment& candidate, int round) {
  if (candidate.region.valid() && candidate.region.value >= kMaxRegions) {
    throw std::out_of_range(
        "fabric: region id " + std::to_string(candidate.region.value) +
        " does not fit the " + std::to_string(kMaxRegions) + "-region mask");
  }
  const std::uint64_t segment_key = key(candidate.abi, candidate.cbi);
  auto it = index_.find(segment_key);
  if (it == index_.end()) {
    InferredSegment segment;
    segment.abi = candidate.abi;
    segment.cbi = candidate.cbi;
    segment.first_round = round;
    it = index_.emplace(segment_key, segments_.size()).first;
    segments_.push_back(std::move(segment));
  }
  InferredSegment& segment = segments_[it->second];
  ++segment.observations;
  const int round_bit = std::clamp(round, 1, 32) - 1;
  segment.rounds_mask |= std::uint32_t{1} << round_bit;
  segment.hop_density_sum += candidate.hop_density;
  if (!candidate.prior_abi.is_unspecified())
    segment.prior_abi = candidate.prior_abi;
  if (!candidate.post_cbi.is_unspecified())
    segment.post_cbi = candidate.post_cbi;
  if (candidate.region.valid())
    segment.regions |= std::uint64_t{1} << candidate.region.value;
  insert_sorted(segment.dest_slash24s,
                candidate.destination.value() & 0xFFFFFF00u);
  if (segment.sample_destinations.size() < kMaxSampleDests)
    segment.sample_destinations.push_back(candidate.destination);
}

void Fabric::add_adjacency(Ipv4 from, Ipv4 to) {
  if (!adjacencies_.insert(key(from, to))) return;
  adjacency_sources_.insert(from.value());
  successors_indexed_ = false;
}

void Fabric::index_successors() const {
  // Count each source's pairs into a map whose keys are fixed up front,
  // turn the counts into runs, then drop every successor into its run.
  FlatHashMap<std::uint64_t, SuccessorRun> runs;
  adjacency_sources_.for_each(
      [&](std::uint64_t from) { runs.insert(run_key(from), SuccessorRun{}); });
  runs.freeze();
  adjacencies_.for_each(
      [&](std::uint64_t pair) { ++runs.find(run_key(pair >> 32))->count; });
  std::uint32_t next = 0;
  adjacency_sources_.for_each([&](std::uint64_t from) {
    SuccessorRun& run = *runs.find(run_key(from));
    run.begin = next;
    next += run.count;
    run.count = 0;
  });
  successor_list_.resize(next);
  adjacencies_.for_each([&](std::uint64_t pair) {
    SuccessorRun& run = *runs.find(run_key(pair >> 32));
    successor_list_[run.begin + run.count++] =
        static_cast<std::uint32_t>(pair);
  });
  successor_runs_ = std::move(runs);
  successors_indexed_ = true;
}

std::span<const std::uint32_t> Fabric::successors_of(Ipv4 address) const {
  if (!successors_indexed_) index_successors();
  const SuccessorRun* run = successor_runs_.find(run_key(address.value()));
  if (run == nullptr) return {};
  return {successor_list_.data() + run->begin, run->count};
}

std::unordered_set<std::uint32_t> Fabric::unique_abis() const {
  std::unordered_set<std::uint32_t> out;
  for (const InferredSegment& segment : segments_)
    out.insert(segment.abi.value());
  return out;
}

std::unordered_set<std::uint32_t> Fabric::unique_cbis() const {
  std::unordered_set<std::uint32_t> out;
  for (const InferredSegment& segment : segments_)
    out.insert(segment.cbi.value());
  return out;
}

std::unordered_map<std::uint32_t, std::vector<std::size_t>> Fabric::by_abi()
    const {
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < segments_.size(); ++i)
    out[segments_[i].abi.value()].push_back(i);
  return out;
}

std::unordered_map<std::uint32_t, std::vector<std::size_t>> Fabric::by_cbi()
    const {
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < segments_.size(); ++i)
    out[segments_[i].cbi.value()].push_back(i);
  return out;
}

bool Fabric::shift_segment(std::size_t index, Confirmation reason) {
  InferredSegment& segment = segments_[index];
  if (segment.prior_abi.is_unspecified()) return false;
  index_.erase(key(segment.abi, segment.cbi));

  const std::uint64_t new_key = key(segment.prior_abi, segment.abi);
  const auto existing = index_.find(new_key);
  if (existing != index_.end() && existing->second != index) {
    // The corrected segment was already observed directly; merge metadata
    // into it and mark this one for removal.
    InferredSegment& target = segments_[existing->second];
    target.regions |= segment.regions;
    merge_sorted(target.dest_slash24s, segment.dest_slash24s);
    target.observations += segment.observations;
    target.rounds_mask |= segment.rounds_mask;
    target.hop_density_sum += segment.hop_density_sum;
    segment.cbi = Ipv4{};  // tombstone; compact() removes it
    return true;
  }
  segment.post_cbi = segment.cbi;
  segment.cbi = segment.abi;
  segment.abi = segment.prior_abi;
  segment.prior_abi = Ipv4{};
  segment.shifted = true;
  segment.confirmation = reason;
  index_[new_key] = index;
  return true;
}

bool Fabric::advance_segment(std::size_t index, Confirmation reason) {
  InferredSegment& segment = segments_[index];
  if (segment.post_cbi.is_unspecified()) return false;
  index_.erase(key(segment.abi, segment.cbi));

  const std::uint64_t new_key = key(segment.cbi, segment.post_cbi);
  const auto existing = index_.find(new_key);
  if (existing != index_.end() && existing->second != index) {
    InferredSegment& target = segments_[existing->second];
    target.regions |= segment.regions;
    merge_sorted(target.dest_slash24s, segment.dest_slash24s);
    target.observations += segment.observations;
    target.rounds_mask |= segment.rounds_mask;
    target.hop_density_sum += segment.hop_density_sum;
    segment.cbi = Ipv4{};  // tombstone
    return true;
  }
  segment.prior_abi = segment.abi;
  segment.abi = segment.cbi;
  segment.cbi = segment.post_cbi;
  segment.post_cbi = Ipv4{};
  segment.shifted = true;
  segment.confirmation = reason;
  index_[new_key] = index;
  return true;
}

void Fabric::compact() {
  std::vector<InferredSegment> kept;
  kept.reserve(segments_.size());
  index_.clear();
  for (InferredSegment& segment : segments_) {
    if (segment.cbi.is_unspecified()) continue;
    index_[key(segment.abi, segment.cbi)] = kept.size();
    kept.push_back(std::move(segment));
  }
  segments_ = std::move(kept);
}

}  // namespace cloudmap
