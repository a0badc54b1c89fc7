// Fixture: the unordered container is declared here, two includes away
// from the file that iterates it.
#pragma once

#include <cstdint>
#include <unordered_set>

namespace cloudmap {

struct Tags {
  std::unordered_set<std::uint32_t> labels;
};

}  // namespace cloudmap
