// Full mapping campaign: generate a paper-shape world, run both traceroute
// rounds, verification, VPI detection, and pinning, then write the complete
// inferred fabric as CSV reports (one row per interconnection, one per peer
// AS) — the artifact a measurement study would publish.
//
// Output: cloudmap_interconnections.csv and cloudmap_peers.csv in the
// working directory.
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "analysis/grouping.h"
#include "core/options.h"
#include "core/pipeline.h"

using namespace cloudmap;

int main(int argc, char** argv) {
  const FrontendOptions front = options_from_env_and_args(argc, argv);
  if (!front.ok()) {
    std::fprintf(stderr, "%s\n", front.error.c_str());
    return 2;
  }
  GeneratorConfig config = GeneratorConfig::paper_shape();
  config.seed = 2026;
  const World world = generate_world(config);
  std::printf("generated world: %zu ASes, %zu routers, %zu interconnects\n",
              world.ases.size(), world.routers.size(),
              world.interconnects.size());

  Pipeline pipeline(world, front.pipeline);
  pipeline.run_all();
  std::printf("campaign done: %zu segments, %zu CBIs, %zu peer ASes\n",
              pipeline.campaign().fabric().segments().size(),
              pipeline.campaign().fabric().unique_cbis().size(),
              pipeline.peer_asns().size());

  const PeeringClassifier classifier = pipeline.classifier();
  const PinningResult& pins = pipeline.pinning();

  // Per-interconnection report.
  {
    std::ofstream out("cloudmap_interconnections.csv");
    out << "abi,cbi,peer_asn,group,confirmation,shifted,regions,"
           "abi_metro,cbi_metro\n";
    for (const InferredSegment& segment :
         pipeline.campaign().fabric().segments()) {
      const Asn owner = classifier.segment_owner(segment);
      const auto group = classifier.classify(segment);
      auto metro_of = [&](Ipv4 address) -> std::string {
        const auto pin = pins.pins.find(address.value());
        if (pin == pins.pins.end()) return "unpinned";
        return world.metro(pin->second.metro).name;
      };
      out << segment.abi.to_string() << ',' << segment.cbi.to_string() << ','
          << owner.value << ',' << (group ? to_string(*group) : "unknown")
          << ',' << to_string(segment.confirmation) << ','
          << (segment.shifted ? 1 : 0) << ','
          << std::popcount(segment.regions) << ','
          << metro_of(segment.abi) << ',' << metro_of(segment.cbi) << '\n';
    }
  }

  // Per-peer report.
  {
    std::map<std::uint32_t, std::size_t> cbis_per_peer;
    std::map<std::uint32_t, std::set<std::string>> groups_per_peer;
    for (const InferredSegment& segment :
         pipeline.campaign().fabric().segments()) {
      const Asn owner = classifier.segment_owner(segment);
      if (owner.is_unknown()) continue;
      ++cbis_per_peer[owner.value];
      if (const auto group = classifier.classify(segment))
        groups_per_peer[owner.value].insert(to_string(*group));
    }
    std::ofstream out("cloudmap_peers.csv");
    out << "peer_asn,interconnections,groups\n";
    for (const auto& [asn, count] : cbis_per_peer) {
      out << asn << ',' << count << ',';
      bool first = true;
      for (const std::string& group : groups_per_peer[asn]) {
        if (!first) out << ';';
        out << group;
        first = false;
      }
      out << '\n';
    }
    std::printf("wrote cloudmap_interconnections.csv and cloudmap_peers.csv "
                "(%zu peers)\n",
                cbis_per_peer.size());
  }

  const InferenceScore score = pipeline.score();
  std::printf("ground truth check: %.0f%% of discoverable interconnects "
              "found at router level (%.0f%% exact interface)\n",
              100.0 * score.router_recall(), 100.0 * score.recall());

  if (!front.metrics_json.empty()) {
    std::ofstream out(front.metrics_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", front.metrics_json.c_str());
      return 1;
    }
    pipeline.write_metrics_json(out);
    std::printf("metrics: wrote %s\n", front.metrics_json.c_str());
  }
  return 0;
}
