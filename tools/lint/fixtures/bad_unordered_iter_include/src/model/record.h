// Fixture: a record that holds the tags by value.
#pragma once

#include "model/tags.h"

namespace cloudmap {

struct Record {
  Tags tags;
};

}  // namespace cloudmap
