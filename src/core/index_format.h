// VCNIDX07 on-disk layout: the directly-mappable index container.
//
// Versions 2-4 were stream containers — a load is a long sequence of
// length-prefixed reads copied field by field into freshly allocated
// vectors; only core::upgrade_index still reads them. Versions 5-7 are
// *region* containers: a fixed 128-byte header, a section table, and
// 64-byte-aligned sections whose bytes are the in-memory arrays
// (little-endian NodeId/Distance/std::uint32_t). An open is mmap +
// structural validation, the oracle's spans aliasing the mapping: no copy,
// near-instant restart, one page-cache copy across server processes.
//
// Version 6 is version 5's layout with one change: the six distance
// sections (store_dists, in_store_dists, table_dist_rows, table_rev_rows,
// table_to_lm, table_from_lm) have elem_size 1 or 4, one width per
// section (core/dist_column.h). The writer stores a column one byte per
// entry when each finite value it holds is at most 254, the byte 255
// standing for kInfDistance, and four bytes (Distance) otherwise — weighted
// and long-diameter graphs keep four. Version 7 is version 6 without the
// vicinity parent sections (ids 22 and 38, reserved like 51): PATH derives
// parents. The writer emits only version 7; the reader opens 7, 6 and 5
// (the last as all four-byte), never reads a parent section, and refuses
// any other distance elem_size and a byte-wide section under a version-5
// header. Every other section keeps its type.
//
// Layout (all offsets absolute from byte 0 of the file):
//
//   [0, 128)                FileHeader (includes the 9-byte legacy
//                           "VCNIDX" + "07" + tag prefix, so every
//                           loader reads the version from the same bytes)
//   [128, 128 + 32·k)       SectionEntry table, k = header.section_count
//   [align64(...), ...)     sections, each 64-byte aligned, in table order
//
// Sections never overlap, end within file_bytes, and carry their element
// size so a reader can bounds- and alignment-check every access before
// trusting it. The RegionView class below is the single sanctioned place
// (together with core/serialize.cpp) where src/core may reinterpret_cast
// raw bytes — scripts/vicinity_lint.py enforces that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace vicinity::core::region {

/// Written as a native std::uint32_t; a reader on a byte-order other than
/// the writer's sees the swapped value and rejects the file instead of
/// silently misreading every array.
/// The same in versions 5-7.
inline constexpr std::uint32_t kEndianMarker = 0x35584E56u;  // "VNX5" LE

/// Every section offset is a multiple of this (cache-line alignment, and
/// comfortably stricter than any element type's natural alignment).
inline constexpr std::uint64_t kSectionAlign = 64;

/// The section table immediately follows the fixed header.
inline constexpr std::uint64_t kSectionTableOffset = 128;

inline constexpr std::uint64_t align_up(std::uint64_t x) {
  return (x + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

enum class SectionId : std::uint32_t {
  kLandmarkNodes = 1,       ///< NodeId[num_landmarks]
  kNearestOutDist = 2,      ///< Distance[n]
  kNearestOutLandmark = 3,  ///< NodeId[n]
  kNearestInDist = 4,       ///< Distance[n] (directed tag only)
  kNearestInLandmark = 5,   ///< NodeId[n] (directed tag only)
  kIndexedNodes = 6,        ///< NodeId[indexed]
  kGraphCsr = 7,            ///< reserved: embedded graph (not yet written)
  // Packed vicinity store (the out-store on directed graphs). The slot
  // arrays are per indexed node in prepare() order; the arenas are the
  // concatenated slices (boundary group then interior group, both strictly
  // ascending by node id). "Dist[...]" below is a distance column: uint8
  // (255 = infinity) or Distance entries, per the section's elem_size.
  kOutStoreRadius = 16,       ///< Distance[slots]
  kOutStoreNearest = 17,      ///< NodeId[slots]
  kOutStoreLen = 18,          ///< uint32[slots]
  kOutStoreBoundaryLen = 19,  ///< uint32[slots]
  kOutStoreMembers = 20,      ///< NodeId[total entries]
  kOutStoreDists = 21,        ///< Dist[total entries]
  kOutStoreParents = 22,      ///< NodeId[total entries], v5-6; never read
  // In-store of an index on a directed graph (same shapes as the out-store
  // sections).
  kInStoreRadius = 32,
  kInStoreNearest = 33,
  kInStoreLen = 34,
  kInStoreBoundaryLen = 35,
  kInStoreMembers = 36,
  kInStoreDists = 37,
  kInStoreParents = 38,
  // Landmark tables (row matrices are row-major, k rows of n entries).
  kTableLandmarks = 48,    ///< NodeId[k]
  kTableDistRows = 49,     ///< Dist[k·n]
  kTableRevRows = 50,      ///< Dist[k·n] (directed tag only)
  /// NodeId[k·n]: landmark-tree parents that older writers could emit.
  /// Ignored on load (trees are derived from the rows); the id stays
  /// reserved.
  kTableParentRows = 51,
  kTableSubsetNodes = 52,  ///< NodeId[s] (subset mode)
  kTableToLm = 53,         ///< Dist[s·k] (subset mode)
  kTableFromLm = 54,       ///< Dist[s·k] (subset mode, directed tag)
};

inline const char* section_name(std::uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kLandmarkNodes: return "landmark_nodes";
    case SectionId::kNearestOutDist: return "nearest_out_dist";
    case SectionId::kNearestOutLandmark: return "nearest_out_landmark";
    case SectionId::kNearestInDist: return "nearest_in_dist";
    case SectionId::kNearestInLandmark: return "nearest_in_landmark";
    case SectionId::kIndexedNodes: return "indexed_nodes";
    case SectionId::kGraphCsr: return "graph_csr";
    case SectionId::kOutStoreRadius: return "store_radius";
    case SectionId::kOutStoreNearest: return "store_nearest";
    case SectionId::kOutStoreLen: return "store_len";
    case SectionId::kOutStoreBoundaryLen: return "store_boundary_len";
    case SectionId::kOutStoreMembers: return "store_members";
    case SectionId::kOutStoreDists: return "store_dists";
    case SectionId::kOutStoreParents: return "store_parents";
    case SectionId::kInStoreRadius: return "in_store_radius";
    case SectionId::kInStoreNearest: return "in_store_nearest";
    case SectionId::kInStoreLen: return "in_store_len";
    case SectionId::kInStoreBoundaryLen: return "in_store_boundary_len";
    case SectionId::kInStoreMembers: return "in_store_members";
    case SectionId::kInStoreDists: return "in_store_dists";
    case SectionId::kInStoreParents: return "in_store_parents";
    case SectionId::kTableLandmarks: return "table_landmarks";
    case SectionId::kTableDistRows: return "table_dist_rows";
    case SectionId::kTableRevRows: return "table_rev_rows";
    case SectionId::kTableParentRows: return "table_parent_rows";
    case SectionId::kTableSubsetNodes: return "table_subset_nodes";
    case SectionId::kTableToLm: return "table_to_lm";
    case SectionId::kTableFromLm: return "table_from_lm";
  }
  return "unknown";
}

/// One section-table row.
struct SectionEntry {
  std::uint32_t id = 0;         ///< SectionId
  std::uint32_t elem_size = 0;  ///< sizeof one element
  std::uint64_t offset = 0;     ///< absolute, kSectionAlign-aligned
  std::uint64_t count = 0;      ///< element count
  std::uint64_t bytes = 0;      ///< == count * elem_size
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// The fixed header at offset 0. Bytes [0, 9) reproduce the legacy stream
/// prefix (magic, two ASCII version digits, backend tag) so pre-v5 readers
/// fail with their versioned "unsupported format version" error and one
/// version check serves every container.
struct FileHeader {
  char magic[6];               ///< "VCNIDX"
  char version_digits[2];      ///< "07" ("05"/"06" in older files)
  std::uint8_t backend_tag;    ///< 0 undirected, 1 directed
  std::uint8_t table_mode;     ///< LandmarkTables::Mode
  std::uint8_t directed_graph;
  std::uint8_t weighted_graph;
  std::uint32_t endian;        ///< kEndianMarker, written natively
  std::uint32_t header_bytes;  ///< sizeof(FileHeader)
  std::uint32_t section_count;
  std::uint64_t file_bytes;    ///< exact file size, trailing bytes rejected
  std::uint64_t num_nodes;
  std::uint64_t num_arcs;
  // OracleOptions mirror (fixed-width, no stream framing).
  double alpha;
  double sampling_constant;
  double update_rebuild_fraction;
  std::uint64_t seed;
  std::uint8_t strategy;
  std::uint8_t store_backend;
  std::uint8_t use_boundary_optimization;
  std::uint8_t iterate_smaller_side;
  std::uint8_t fallback;
  std::uint8_t reserved[43];   ///< zero; room for minor additions
};
static_assert(sizeof(FileHeader) == 128);
static_assert(std::is_trivially_copyable_v<FileHeader>);
static_assert(offsetof(FileHeader, backend_tag) == 8,
              "legacy stream prefix must stay byte-compatible");
static_assert(offsetof(FileHeader, alpha) % alignof(double) == 0);

/// Bounds- and alignment-checked typed reads over a raw byte region (a
/// util::MappedFile's bytes() or a heap buffer holding a slurped stream)
/// whose version digits read `version`. Every access validates
/// offset/length against the region and the actual pointer against T's
/// natural alignment before the cast, so a corrupt section table yields a
/// versioned std::runtime_error, never UB.
class RegionView {
 public:
  RegionView() = default;
  RegionView(std::span<const std::byte> bytes, int version)
      : data_(bytes.data()), size_(bytes.size()), version_(version) {}

  std::uint64_t size() const { return size_; }
  int version() const { return version_; }

  template <typename T>
  const T& pod_at(std::uint64_t offset, const char* what) const {
    static_assert(std::is_trivially_copyable_v<T>);
    check(offset, sizeof(T), alignof(T), what);
    return *reinterpret_cast<const T*>(data_ + offset);
  }

  template <typename T>
  std::span<const T> array_at(std::uint64_t offset, std::uint64_t count,
                              const char* what) const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > std::numeric_limits<std::uint64_t>::max() / sizeof(T)) {
      fail(what, "length overflows");
    }
    check(offset, count * sizeof(T), alignof(T), what);
    return {reinterpret_cast<const T*>(data_ + offset),
            static_cast<std::size_t>(count)};
  }

 private:
  [[noreturn]] void fail(const char* what, const char* why) const {
    throw std::runtime_error("oracle index (version " +
                             std::to_string(version_) + "): " + what + " " +
                             why);
  }
  void check(std::uint64_t offset, std::uint64_t bytes, std::size_t align,
             const char* what) const {
    if (offset > size_ || bytes > size_ - offset) {
      fail(what, "out of range");
    }
    if (reinterpret_cast<std::uintptr_t>(data_ + offset) % align != 0) {
      fail(what, "misaligned");
    }
  }

  const std::byte* data_ = nullptr;
  std::uint64_t size_ = 0;
  int version_ = 0;
};

}  // namespace vicinity::core::region
