// Fixture: serializing a member whose unordered type is declared two
// includes away (io/dump.cpp -> model/record.h -> model/tags.h).
#include <cstdint>
#include <ostream>

#include "model/record.h"

namespace cloudmap {

void dump(std::ostream& out, const Record& record) {
  for (const std::uint32_t label : record.tags.labels) out << label << '\n';
}

}  // namespace cloudmap
