// Fuzz the snapshot container end to end: the copying loader, the
// save→load→save byte-stability contract on anything it accepts, and the
// zero-copy MappedSnapshot → FabricView → QueryEngine derivation over the
// same bytes. Any crash, sanitizer report, or broken invariant (accepted
// input that does not re-save stably; mapper accepting what the loader
// refused) aborts.
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "fixup.h"
#include "harness.h"
#include "io/mapped_snapshot.h"
#include "io/snapshot.h"
#include "query/engine.h"
#include "query/fabric_view.h"
#include "query/request.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzzhn::maybe_trip_canary(data, size);
  using namespace cloudmap;

  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes);
  std::string error;
  std::optional<RunSnapshot> snap = load_snapshot(in, &error);
  if (snap) {
    // Accepted input must re-save deterministically: save, reload, save
    // again, and the two saves must agree byte for byte.
    std::ostringstream first;
    save_snapshot(first, *snap);
    std::istringstream reload_in(first.str());
    std::optional<RunSnapshot> reloaded = load_snapshot(reload_in, &error);
    if (!reloaded) __builtin_trap();  // save emitted unloadable bytes
    std::ostringstream second;
    save_snapshot(second, *reloaded);
    if (first.str() != second.str()) __builtin_trap();
  }

  // The zero-copy path over the same bytes. Both loaders run one container
  // parser (io/snapshot.h); a file the mapper accepts but the loader refused
  // means they disagree about what a well-formed file is.
  fuzzhn::ScratchFile file(data, size);
  if (!file.ok()) return 0;
  std::optional<MappedSnapshot> mapped = MappedSnapshot::open(file.path(),
                                                              &error);
  if (mapped) {
    if (!snap) __builtin_trap();
    FabricView view(mapped->blob());
    QueryEngine engine(view);
    QueryRequest request;
    request.asn = 64512;
    request.metro = 0;
    request.address = 0xCB007109u;  // 203.0.113.9
    request.min_confidence = 0.5;
    request.want_briefs = true;
    for (std::uint8_t kind = 0; kind < kQueryKindCount; ++kind) {
      request.kind = static_cast<QueryKind>(kind);
      (void)engine.execute(request);
    }
  }
  return 0;
}

#ifdef CLOUDMAP_FUZZER_BUILD
extern "C" std::size_t LLVMFuzzerMutate(std::uint8_t* data, std::size_t size,
                                        std::size_t max_size);

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned seed) {
  (void)seed;
  const std::size_t mutated = LLVMFuzzerMutate(data, size, max_size);
  fuzzhn::fix_snapshot(data, mutated);
  return mutated;
}
#endif
