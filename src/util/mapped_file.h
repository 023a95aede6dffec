// Read-only memory-mapped file (RAII over POSIX mmap).
//
// The zero-copy substrate for VCNIDX05-07 index loading (core/serialize.h):
// the serializer hands a MappedFile to the region-view loader and the
// oracle's spans alias the mapping for its whole lifetime, so opening a
// multi-GB index is a handful of page-table operations instead of a full
// deserializing copy, and multiple processes opening the same index share
// one physical copy through the page cache.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace vicinity::util {

class MappedFile {
 public:
  MappedFile() = default;
  /// Maps `path` read-only (PROT_READ, MAP_PRIVATE). Throws
  /// std::runtime_error naming the path on open/stat/map failure. An empty
  /// file maps to an empty span.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The mapped contents. Valid until destruction/move-assignment; the
  /// kernel keeps the mapping alive even if the file is unlinked.
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(addr_), size_};
  }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace vicinity::util
