#include "snapshot_check.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "host.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"

namespace perfbench {

using namespace cloudmap;

namespace {

class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  void list(const std::vector<std::uint32_t>& values) {
    value(values.size());
    bytes(values.data(), values.size() * sizeof(std::uint32_t));
  }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::string result_digest(const RunSnapshot& snap) {
  Digest d;
  d.value(snap.segments.size());
  for (const SnapshotSegment& s : snap.segments) {
    d.value(s.abi.value());
    d.value(s.cbi.value());
    d.value(s.prior_abi.value());
    d.value(s.post_cbi.value());
    d.value(s.first_round);
    d.value(static_cast<int>(s.confirmation));
    d.value(s.shifted);
    d.value(s.ixp);
    d.value(s.vpi);
    d.value(s.owner_hint.value);
    d.value(s.peer_asn.value);
    d.value(s.peer_org.value);
    d.value(s.group);
    d.value(s.observations);
    d.value(s.rounds_mask);
    d.value(s.hop_density);
    d.value(s.confidence);
    d.list(s.regions);
    d.list(s.dest_slash24s);
  }
  d.value(snap.pins.size());
  for (const SnapshotPin& p : snap.pins) {
    d.value(p.address);
    d.value(p.metro);
    d.value(p.rule);
    d.value(p.anchor_source);
    d.value(p.round);
  }
  d.value(snap.regional.size());
  for (const auto& [address, region] : snap.regional) {
    d.value(address);
    d.value(region);
  }
  d.value(snap.alias_sets.size());
  for (const std::vector<std::uint32_t>& set : snap.alias_sets) d.list(set);
  return d.hex();
}

std::string check_snapshot_file(const std::string& path,
                                std::size_t* segments) {
  std::string error;
  if (!MappedSnapshot::open(path, &error))
    throw std::runtime_error("MappedSnapshot::open(" + path + "): " + error);
  const std::optional<RunSnapshot> loaded = load_snapshot_file(path, &error);
  if (!loaded)
    throw std::runtime_error("load_snapshot_file(" + path + "): " + error);
  std::ostringstream reencoded;
  save_snapshot(reencoded, *loaded);
  if (reencoded.str() != read_file(path))
    throw std::runtime_error(path + ": re-encoded bytes differ from the file");
  if (segments != nullptr) *segments = loaded->segments.size();
  return result_digest(*loaded);
}

}  // namespace perfbench
