#include "io/mapped_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

namespace cloudmap {

MappedSnapshot::~MappedSnapshot() { reset(); }

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept {
  *this = std::move(other);
}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    reset();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    container_ = std::exchange(other.container_, {});
  }
  return *this;
}

void MappedSnapshot::reset() noexcept {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  map_ = nullptr;
  map_size_ = 0;
  container_ = {};
}

std::optional<MappedSnapshot> MappedSnapshot::open(const std::string& path,
                                                   std::string* error) {
  const auto fail = [&](const std::string& message)
      -> std::optional<MappedSnapshot> {
    if (error != nullptr) *error = "snapshot: " + message;
    return std::nullopt;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail("cannot open " + path);
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fail("cannot stat " + path);
  }
  MappedSnapshot snap;
  snap.map_size_ = static_cast<std::size_t>(st.st_size);
  // mmap refuses an empty range; an empty file still goes through the
  // parser (over no bytes) so it is refused with the loader's diagnostic.
  if (snap.map_size_ > 0) {
    void* map = ::mmap(nullptr, snap.map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      return fail("cannot mmap " + path);
    }
    snap.map_ = map;
  }
  ::close(fd);  // the mapping keeps the file alive

  std::optional<SnapshotContainer> container =
      parse_snapshot(static_cast<const unsigned char*>(snap.map_),
                     snap.map_size_, error);
  if (!container) return std::nullopt;  // snap's destructor unmaps
  snap.container_ = std::move(*container);
  return snap;
}

}  // namespace cloudmap
