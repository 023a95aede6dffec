#include "core/serialize.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <array>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "core/index_format.h"
#include "core/vicinity_builder.h"
#include "util/bit_vector.h"
#include "util/mapped_file.h"
#include "util/mutex.h"

namespace vicinity::core {

namespace {

// Container header: 6-byte magic + 2 ASCII-digit format version + (since
// version 3) one backend-tag byte. Versions 5 and 6 are the region container
// of core/index_format.h (fixed header + section table + 64-byte-aligned
// sections), which loads zero-copy via mmap; the loaders open both, and the
// writer emits version 6, whose distance sections may be byte-wide.
// Versions 2-4 are legacy stream containers that only upgrade_index() reads.
// Version 2 added
// OracleOptions::update_rebuild_fraction (dynamic updates); version 3 added
// the backend tag and the directed-oracle body; version 4 added the packed
// stream body. A stream store body is either the packed blobs (store byte
// 2, version 4) or per-slot member records (store bytes 0 and 1, the
// retired §3.2 hash layouts), and both load into the packed store.
// Version-1 files predate the options field and are rejected up front with
// a versioned error rather than misparsed.
constexpr char kMagic[6] = {'V', 'C', 'N', 'I', 'D', 'X'};
constexpr int kFormatVersion = 6;     // the version written
constexpr int kMinRegionVersion = 5;  // oldest version the loaders open
constexpr int kMinFormatVersion = 2;  // oldest version upgrade_index reads
constexpr int kMinPackedVersion = 4;

enum class BackendTag : std::uint8_t {
  kUndirected = 0,
  kDirected = 1,
};

const char* to_string(BackendTag t) {
  switch (t) {
    case BackendTag::kUndirected: return "vicinity";
    case BackendTag::kDirected: return "vicinity-directed";
  }
  return "?";
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("oracle index: truncated input");
  return v;
}

template <typename T>
std::vector<T> read_vec(std::istream& in) {
  const auto n = read_pod<std::uint64_t>(in);
  if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
    throw std::runtime_error("oracle index: corrupt array length");
  }
  // The length is untrusted input: grow in bounded chunks so a corrupt or
  // truncated file fails with "truncated array" after at most one chunk
  // instead of front-loading a multi-GB allocation (or bad_alloc).
  constexpr std::uint64_t kChunkElems =
      std::max<std::uint64_t>(1, (std::uint64_t{1} << 22) / sizeof(T));
  std::vector<T> v;
  v.reserve(static_cast<std::size_t>(std::min(n, kChunkElems)));
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t step = std::min(n - done, kChunkElems);
    v.resize(static_cast<std::size_t>(done + step));
    in.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(step * sizeof(T)));
    if (!in) throw std::runtime_error("oracle index: truncated array");
    done += step;
  }
  return v;
}

/// Untrusted-input guard used throughout the loaders.
void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("oracle index: ") + what);
}

/// A legacy stream row matrix: `rows` length-prefixed rows of n entries
/// each, concatenated into one row-major matrix.
template <typename T>
std::vector<T> read_rows(std::istream& in, std::uint64_t rows, std::uint64_t n,
                         const char* what) {
  std::vector<T> m;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const auto row = read_vec<T>(in);
    require(row.size() == n, what);
    m.insert(m.end(), row.begin(), row.end());
  }
  return m;
}

struct Header {
  int version;
  BackendTag tag;
};

/// Reads the magic and the two version digits. Versions outside 2-6 are
/// refused here; the caller decides what a legacy version 2-4 means.
int read_version(std::istream& in) {
  char header[8];
  in.read(header, sizeof(header));
  if (!in || std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("oracle index: bad magic");
  }
  if (header[6] < '0' || header[6] > '9' || header[7] < '0' ||
      header[7] > '9') {
    throw std::runtime_error("oracle index: corrupt format version");
  }
  const int version = (header[6] - '0') * 10 + (header[7] - '0');
  if (version < kMinFormatVersion || version > kFormatVersion) {
    throw std::runtime_error(
        "oracle index: unsupported format version " + std::to_string(version) +
        " (this build opens versions " + std::to_string(kMinRegionVersion) +
        "-" + std::to_string(kFormatVersion) + " and upgrades versions " +
        std::to_string(kMinFormatVersion) + "-" +
        std::to_string(kMinRegionVersion - 1) + "; rebuild the index)");
  }
  return version;
}

/// The loaders open only region containers; a legacy stream container is
/// refused before any later field (tag, graph shape) is read.
void require_current(int version) {
  if (version >= kMinRegionVersion) return;
  throw std::runtime_error(
      "oracle index: format version " + std::to_string(version) +
      " is a legacy stream container and this build opens only versions " +
      std::to_string(kMinRegionVersion) + "-" +
      std::to_string(kFormatVersion) +
      "; convert it once with `vicinity_cli index upgrade --graph=G "
      "--in=OLD --out=NEW`");
}

/// The backend-tag byte after the version digits.
BackendTag read_tag(std::istream& in, int version) {
  // Version 2 predates the backend tag; only undirected indexes existed.
  if (version < 3) return BackendTag::kUndirected;
  const auto tag_raw = read_pod<std::uint8_t>(in);
  if (tag_raw > static_cast<std::uint8_t>(BackendTag::kDirected)) {
    throw std::runtime_error("oracle index: unknown backend tag " +
                             std::to_string(tag_raw) + " (format version " +
                             std::to_string(version) + ")");
  }
  return static_cast<BackendTag>(tag_raw);
}

/// An index built on a directed graph carries a second vicinity family.
BackendTag backend_tag_of(const graph::Graph& g) {
  return g.directed() ? BackendTag::kDirected : BackendTag::kUndirected;
}

/// The tag must match the graph the index is loaded against.
void check_backend(const Header& h, const graph::Graph& g) {
  const BackendTag wanted = backend_tag_of(g);
  if (h.tag == wanted) return;
  throw std::runtime_error(
      std::string("oracle index: backend mismatch: format version ") +
      std::to_string(h.version) + " file is tagged '" + to_string(h.tag) +
      "', not '" + to_string(wanted) + "'; the graph is " +
      (g.directed() ? "directed" : "undirected") +
      " (load the index against the graph it was built on)");
}

void check_graph_shape(std::istream& in, const graph::Graph& g) {
  const auto n = read_pod<std::uint64_t>(in);
  const auto arcs = read_pod<std::uint64_t>(in);
  const bool directed = read_pod<std::uint8_t>(in) != 0;
  const bool weighted = read_pod<std::uint8_t>(in) != 0;
  if (n != g.num_nodes() || arcs != g.num_arcs() ||
      directed != g.directed() || weighted != g.weighted()) {
    throw std::runtime_error("oracle index: graph shape mismatch");
  }
}

/// The stream options block. `packed_body` reports which store body
/// follows: the packed blobs (store byte 2) or per-slot member records
/// (bytes 0 and 1, the retired hash layouts). Either loads into the packed
/// store, so the returned options always name it.
OracleOptions read_options(std::istream& in, int version, bool& packed_body) {
  OracleOptions opt;
  opt.alpha = read_pod<double>(in);
  opt.sampling_constant = read_pod<double>(in);
  const auto strategy_raw = read_pod<std::uint8_t>(in);
  require(
      strategy_raw <= static_cast<std::uint8_t>(SamplingStrategy::kTopDegree),
      "corrupt sampling strategy");
  opt.strategy = static_cast<SamplingStrategy>(strategy_raw);
  const auto backend_raw = read_pod<std::uint8_t>(in);
  require(backend_raw <= static_cast<std::uint8_t>(StoreBackend::kPacked),
          "corrupt store backend");
  packed_body = backend_raw == static_cast<std::uint8_t>(StoreBackend::kPacked);
  if (packed_body && version < kMinPackedVersion) {
    // A packed store body only exists from version 4 on; an older file
    // claiming it is corrupt, and misreading its body as per-slot records
    // would shift every later field.
    throw std::runtime_error(
        "oracle index: packed store backend requires format version >= " +
        std::to_string(kMinPackedVersion) + " (file is version " +
        std::to_string(version) + "; rebuild the index)");
  }
  opt.use_boundary_optimization = read_pod<std::uint8_t>(in) != 0;
  opt.iterate_smaller_side = read_pod<std::uint8_t>(in) != 0;
  const auto fallback_raw = read_pod<std::uint8_t>(in);
  require(fallback_raw <=
              static_cast<std::uint8_t>(Fallback::kLandmarkEstimate),
          "corrupt fallback mode");
  opt.fallback = static_cast<Fallback>(fallback_raw);
  // Values above 1 are legitimate ("never fall back to a full rebuild");
  // only negatives and NaN (which fails >= 0) are corrupt.
  opt.update_rebuild_fraction = read_pod<double>(in);
  require(opt.update_rebuild_fraction >= 0.0,
          "corrupt update-rebuild fraction");
  opt.seed = read_pod<std::uint64_t>(in);
  return opt;
}

const char* table_mode_name(std::uint8_t m) {
  switch (static_cast<LandmarkTables::Mode>(m)) {
    case LandmarkTables::Mode::kNone: return "none";
    case LandmarkTables::Mode::kFull: return "full";
    case LandmarkTables::Mode::kSubset: return "subset";
  }
  return "?";
}

struct MemberRecord {
  NodeId node;
  Distance dist;
  NodeId parent;
  std::uint8_t flags;  // bit0 in_ball, bit1 on_boundary
  std::uint8_t pad[3] = {0, 0, 0};
};
static_assert(sizeof(MemberRecord) == 16);

/// One per-slot record of a hash-layout stream body: radius, nearest
/// landmark, member records. Loaded slots are staged; the caller packs.
void read_store_slot(std::istream& in, std::uint64_t n, NodeId u,
                     VicinityStore& store) {
  Vicinity v;
  v.origin = u;
  v.radius = read_pod<Distance>(in);
  v.nearest_landmark = read_pod<NodeId>(in);
  require(v.nearest_landmark < n || v.nearest_landmark == kInvalidNode,
          "vicinity nearest landmark out of range");
  const auto members = read_vec<MemberRecord>(in);
  v.members.reserve(members.size());
  for (const MemberRecord& rec : members) {
    require(rec.node < n, "vicinity member out of range");
    require(rec.parent < n || rec.parent == kInvalidNode,
            "vicinity parent out of range");
    VicinityMember m{rec.node, rec.dist, rec.parent, (rec.flags & 1) != 0,
                     (rec.flags & 2) != 0};
    if (m.in_ball) ++v.ball_size;
    if (m.on_boundary) ++v.boundary_size;
    v.members.push_back(m);
  }
  // Loading is single-threaded; the guard asserts the store's mutation
  // contract to the thread-safety analysis.
  const util::SharedRoleGuard role(store.mutation_role());
  store.set(u, v);
}

/// Packed-arena store body (version-4 stream files, store byte 2): the slot
/// table and the three parallel arena blobs in prepare() order.
void read_packed_store(std::istream& in, VicinityStore& store) {
  VicinityStore::PackedBlob blob;
  blob.radius = read_vec<Distance>(in);
  blob.nearest = read_vec<NodeId>(in);
  blob.len = read_vec<std::uint32_t>(in);
  blob.boundary_len = read_vec<std::uint32_t>(in);
  blob.members = read_vec<NodeId>(in);
  blob.dists = DistColumn(read_vec<Distance>(in));
  blob.parents = read_vec<NodeId>(in);
  const util::RoleGuard role(store.mutation_role());
  store.adopt_packed(std::move(blob));  // validates the untrusted blobs
}

LandmarkSet read_landmark_set(std::istream& in, const OracleOptions& opt,
                              const graph::Graph& g) {
  LandmarkSet landmarks;
  landmarks.nodes = read_vec<NodeId>(in);
  landmarks.alpha = opt.alpha;
  landmarks.strategy = opt.strategy;
  landmarks.member.resize(g.num_nodes());
  for (const NodeId l : landmarks.nodes) {
    require(l < g.num_nodes(), "landmark id out of range");
    landmarks.member.set(l);
  }
  return landmarks;
}

NearestLandmarkInfo read_nearest(std::istream& in, std::uint64_t n) {
  NearestLandmarkInfo info;
  info.dist = read_vec<Distance>(in);
  info.landmark = read_vec<NodeId>(in);
  require(info.dist.size() == n && info.landmark.size() == n,
          "nearest-landmark arrays have wrong length");
  for (const NodeId l : info.landmark) {
    require(l < n || l == kInvalidNode, "nearest landmark out of range");
  }
  return info;
}

std::vector<NodeId> read_indexed(std::istream& in, const graph::Graph& g) {
  auto indexed = read_vec<NodeId>(in);
  util::BitVector seen(g.num_nodes());
  for (const NodeId u : indexed) {
    require(u < g.num_nodes(), "indexed node out of range");
    require(!seen.get(u), "duplicate indexed node");
    seen.set(u);
  }
  return indexed;
}

// ---- VCNIDX05/06 region container (core/index_format.h) ------------------

[[noreturn]] void section_fail(int version, const region::SectionEntry& e,
                               const char* why) {
  throw std::runtime_error("oracle index (version " + std::to_string(version) +
                           "): section " + region::section_name(e.id) + " " +
                           why);
}

/// A validated region container: header + section table over a RegionView
/// (a mapped file or a slurped stream). span_of() and dists_of() hand out
/// typed, bounds-checked views of individual sections; a missing section
/// reads as an empty array (shape validation downstream rejects it where
/// one is required).
struct RegionReader {
  region::RegionView view;
  const region::FileHeader* header = nullptr;
  std::vector<region::SectionEntry> sections;

  const region::SectionEntry* find(region::SectionId id) const {
    for (const auto& e : sections) {
      if (e.id == static_cast<std::uint32_t>(id)) return &e;
    }
    return nullptr;
  }

  template <typename T>
  std::span<const T> span_of(region::SectionId id) const {
    const region::SectionEntry* e = find(id);
    if (e == nullptr) return {};
    if (e->elem_size != sizeof(T)) {
      section_fail(view.version(), *e, "has unexpected element size");
    }
    return view.array_at<T>(e->offset, e->count,
                            region::section_name(e->id));
  }

  /// A distance section: four bytes per entry, or (version 6) one.
  DistView dists_of(region::SectionId id) const {
    const region::SectionEntry* e = find(id);
    if (e == nullptr) return {};
    if (e->elem_size == sizeof(Distance)) return span_of<Distance>(id);
    if (e->elem_size != 1) {
      section_fail(view.version(), *e, "has unexpected element size");
    }
    if (view.version() < 6) {
      section_fail(view.version(), *e,
                   "is byte-wide, which version 5 cannot encode");
    }
    return view.array_at<std::uint8_t>(e->offset, e->count,
                                       region::section_name(e->id));
  }
};

/// Structural validation of an untrusted region: header sanity, then every
/// section entry (element size, byte length, alignment, bounds, overlap,
/// duplicates). O(section count) — independent of the payload size, which
/// is what makes a mapped open near-instant.
RegionReader open_region(region::RegionView view) {
  RegionReader r;
  r.view = view;
  const int version = view.version();
  const auto& h = view.pod_at<region::FileHeader>(0, "file header");
  r.header = &h;
  require(std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0, "bad magic");
  require(h.version_digits[0] == '0' &&
              h.version_digits[1] == '0' + version,
          "corrupt format version");
  if (h.endian != region::kEndianMarker) {
    throw std::runtime_error(
        "oracle index (version " + std::to_string(version) +
        "): endianness mismatch (index written on an incompatible byte "
        "order; rebuild the index on this machine)");
  }
  require(h.header_bytes == sizeof(region::FileHeader), "corrupt header size");
  require(h.backend_tag <= static_cast<std::uint8_t>(BackendTag::kDirected),
          "unknown backend tag");
  require(h.table_mode <=
              static_cast<std::uint8_t>(LandmarkTables::Mode::kSubset),
          "corrupt landmark-table mode");
  require(h.file_bytes == view.size(),
          "file size mismatch (truncated file or trailing bytes)");
  const auto table = view.array_at<region::SectionEntry>(
      region::kSectionTableOffset, h.section_count, "section table");
  r.sections.assign(table.begin(), table.end());
  const std::uint64_t data_start = region::align_up(
      region::kSectionTableOffset +
      static_cast<std::uint64_t>(h.section_count) *
          sizeof(region::SectionEntry));
  for (const auto& e : r.sections) {
    if (e.elem_size == 0) section_fail(version, e, "has zero element size");
    if (e.count > std::numeric_limits<std::uint64_t>::max() / e.elem_size) {
      section_fail(version, e, "length overflows");
    }
    if (e.bytes != e.count * e.elem_size) {
      section_fail(version, e, "byte length mismatch");
    }
    if (e.offset % region::kSectionAlign != 0) {
      section_fail(version, e, "is misaligned");
    }
    if (e.offset < data_start) section_fail(version, e, "overlaps the header");
    if (e.offset > h.file_bytes || e.bytes > h.file_bytes - e.offset) {
      section_fail(version, e, "is out of range");
    }
  }
  auto by_offset = r.sections;
  std::sort(by_offset.begin(), by_offset.end(),
            [](const region::SectionEntry& a, const region::SectionEntry& b) {
              return a.offset < b.offset;
            });
  for (std::size_t i = 1; i < by_offset.size(); ++i) {
    if (by_offset[i - 1].offset + by_offset[i - 1].bytes >
        by_offset[i].offset) {
      section_fail(version, by_offset[i], "overlaps another section");
    }
  }
  auto by_id = r.sections;
  std::sort(by_id.begin(), by_id.end(),
            [](const region::SectionEntry& a, const region::SectionEntry& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < by_id.size(); ++i) {
    if (by_id[i - 1].id == by_id[i].id) {
      section_fail(version, by_id[i], "is duplicated");
    }
  }
  return r;
}

void check_region_graph_shape(const region::FileHeader& h,
                              const graph::Graph& g) {
  if (h.num_nodes != g.num_nodes() || h.num_arcs != g.num_arcs() ||
      (h.directed_graph != 0) != g.directed() ||
      (h.weighted_graph != 0) != g.weighted()) {
    throw std::runtime_error("oracle index: graph shape mismatch");
  }
}

OracleOptions read_region_options(const region::FileHeader& h) {
  OracleOptions opt;
  opt.alpha = h.alpha;
  opt.sampling_constant = h.sampling_constant;
  require(h.strategy <= static_cast<std::uint8_t>(SamplingStrategy::kTopDegree),
          "corrupt sampling strategy");
  opt.strategy = static_cast<SamplingStrategy>(h.strategy);
  // Region containers have only ever recorded the packed layout.
  require(h.store_backend == static_cast<std::uint8_t>(StoreBackend::kPacked),
          "region container requires the packed store backend");
  opt.use_boundary_optimization = h.use_boundary_optimization != 0;
  opt.iterate_smaller_side = h.iterate_smaller_side != 0;
  require(h.fallback <= static_cast<std::uint8_t>(Fallback::kLandmarkEstimate),
          "corrupt fallback mode");
  opt.fallback = static_cast<Fallback>(h.fallback);
  require(h.update_rebuild_fraction >= 0.0,
          "corrupt update-rebuild fraction");
  opt.update_rebuild_fraction = h.update_rebuild_fraction;
  opt.seed = h.seed;
  return opt;
}

LandmarkSet read_region_landmark_set(const RegionReader& r,
                                     const OracleOptions& opt,
                                 const graph::Graph& g) {
  const auto nodes = r.span_of<NodeId>(region::SectionId::kLandmarkNodes);
  LandmarkSet landmarks;
  landmarks.nodes.assign(nodes.begin(), nodes.end());
  landmarks.alpha = opt.alpha;
  landmarks.strategy = opt.strategy;
  landmarks.member.resize(g.num_nodes());
  for (const NodeId l : landmarks.nodes) {
    require(l < g.num_nodes(), "landmark id out of range");
    landmarks.member.set(l);
  }
  return landmarks;
}

NearestLandmarkInfo read_region_nearest(const RegionReader& r,
                                        region::SectionId dist_id,
                                    region::SectionId lm_id, std::uint64_t n) {
  const auto dist = r.span_of<Distance>(dist_id);
  const auto lm = r.span_of<NodeId>(lm_id);
  require(dist.size() == n && lm.size() == n,
          "nearest-landmark arrays have wrong length");
  NearestLandmarkInfo info;
  info.dist.assign(dist.begin(), dist.end());
  info.landmark.assign(lm.begin(), lm.end());
  for (const NodeId l : info.landmark) {
    require(l < n || l == kInvalidNode, "nearest landmark out of range");
  }
  return info;
}

std::vector<NodeId> read_region_indexed(const RegionReader& r,
                                    const graph::Graph& g) {
  const auto span = r.span_of<NodeId>(region::SectionId::kIndexedNodes);
  std::vector<NodeId> indexed(span.begin(), span.end());
  util::BitVector seen(g.num_nodes());
  for (const NodeId u : indexed) {
    require(u < g.num_nodes(), "indexed node out of range");
    require(!seen.get(u), "duplicate indexed node");
    seen.set(u);
  }
  return indexed;
}

/// Hands the store sections to the store: zero-copy (adopt_packed_view)
/// when `backing` keeps the region alive, compact heap copy otherwise.
void adopt_region_store(const RegionReader& r, bool in_store,
                    const std::shared_ptr<const void>& backing, bool verify,
                    VicinityStore& store) {
  const auto base =
      static_cast<std::uint32_t>(in_store ? region::SectionId::kInStoreRadius
                                          : region::SectionId::kOutStoreRadius);
  const auto sid = [base](std::uint32_t off) {
    return static_cast<region::SectionId>(base + off);
  };
  VicinityStore::PackedView v;
  v.radius = r.span_of<Distance>(sid(0));
  v.nearest = r.span_of<NodeId>(sid(1));
  v.len = r.span_of<std::uint32_t>(sid(2));
  v.boundary_len = r.span_of<std::uint32_t>(sid(3));
  v.members = r.span_of<NodeId>(sid(4));
  v.dists = r.dists_of(sid(5));
  v.parents = r.span_of<NodeId>(sid(6));
  const util::RoleGuard role(store.mutation_role());
  if (backing != nullptr) {
    store.adopt_packed_view(v, backing, verify);
    return;
  }
  VicinityStore::PackedBlob blob;
  blob.radius.assign(v.radius.begin(), v.radius.end());
  blob.nearest.assign(v.nearest.begin(), v.nearest.end());
  blob.len.assign(v.len.begin(), v.len.end());
  blob.boundary_len.assign(v.boundary_len.begin(), v.boundary_len.end());
  blob.members.assign(v.members.begin(), v.members.end());
  blob.dists = DistColumn::copy_of(v.dists);
  blob.parents.assign(v.parents.begin(), v.parents.end());
  store.adopt_packed(std::move(blob));  // always deep-validates
}

/// One planned section of a region container being written: identity,
/// shape, and a callback that streams the payload bytes.
struct SectionPlan {
  region::SectionId id;
  std::uint32_t elem_size;
  std::uint64_t count;
  std::function<void(std::ostream&)> emit;
};

template <typename T>
void write_span_bytes(std::ostream& out, std::span<const T> v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
SectionPlan plan_span(region::SectionId id, std::span<const T> v) {
  return {id, sizeof(T), v.size(),
          [v](std::ostream& out) { write_span_bytes(out, v); }};
}

/// A distance column's section, at the column's width.
SectionPlan plan_dists(region::SectionId id, DistView v) {
  return {id, v.elem_size(), v.size(), [v](std::ostream& out) {
            v.visit([&](auto span) { write_span_bytes(out, span); });
          }};
}

void plan_store(std::vector<SectionPlan>& plans,
                const VicinityStore::PackedView& v, bool in_store) {
  const auto base =
      static_cast<std::uint32_t>(in_store ? region::SectionId::kInStoreRadius
                                          : region::SectionId::kOutStoreRadius);
  const auto sid = [base](std::uint32_t off) {
    return static_cast<region::SectionId>(base + off);
  };
  plans.push_back(plan_span(sid(0), v.radius));
  plans.push_back(plan_span(sid(1), v.nearest));
  plans.push_back(plan_span(sid(2), v.len));
  plans.push_back(plan_span(sid(3), v.boundary_len));
  plans.push_back(plan_span(sid(4), v.members));
  plans.push_back(plan_dists(sid(5), v.dists));
  plans.push_back(plan_span(sid(6), v.parents));
}

void write_zeros(std::ostream& out, std::uint64_t count) {
  static constexpr char kZeros[64] = {};
  while (count > 0) {
    const auto step = std::min<std::uint64_t>(count, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(step));
    count -= step;
  }
}

}  // namespace

/// Friend of VicinityOracle / LandmarkTables with full member access.
class OracleSerializer {
 public:
  // ---- Landmark tables, version-2-4 stream layout (the directed variant
  // appends the reverse rows and the from-landmark subset matrix) ---------
  static void load_tables(std::istream& in, const graph::Graph& g,
                          LandmarkTables& t) {
    const auto n = g.num_nodes();
    const bool directed = g.directed();
    const auto mode_raw = read_pod<std::uint8_t>(in);
    require(
        mode_raw <= static_cast<std::uint8_t>(LandmarkTables::Mode::kSubset),
        "corrupt landmark-table mode");
    const auto mode = static_cast<LandmarkTables::Mode>(mode_raw);
    t.mode_ = mode;
    t.directed_ = directed;
    if (mode == LandmarkTables::Mode::kNone) return;
    t.landmark_nodes_ = read_vec<NodeId>(in);
    t.landmark_index_.assign(n, kInvalidNode);
    for (std::size_t i = 0; i < t.landmark_nodes_.size(); ++i) {
      require(t.landmark_nodes_[i] < n, "table landmark out of range");
      t.landmark_index_[t.landmark_nodes_[i]] = static_cast<NodeId>(i);
    }
    const auto rows = read_pod<std::uint64_t>(in);
    require(rows <= n, "corrupt landmark row count");
    t.fwd_ = DistColumn(
        read_rows<Distance>(in, rows, n, "landmark row has wrong length"));
    if (directed) {
      const auto rrows = read_pod<std::uint64_t>(in);
      require(rrows == rows, "corrupt reverse landmark row count");
      t.rev_ = DistColumn(read_rows<Distance>(
          in, rrows, n, "reverse landmark row has wrong length"));
    }
    // Landmark parent rows: checked, then dropped (the tables derive tree
    // paths from the distance rows).
    const auto prows = read_pod<std::uint64_t>(in);
    require(prows == 0 || prows == rows, "corrupt parent row count");
    (void)read_rows<NodeId>(in, prows, n, "parent row has wrong length");
    t.subset_nodes_ = read_vec<NodeId>(in);
    t.subset_index_.assign(n, kInvalidNode);
    for (std::size_t i = 0; i < t.subset_nodes_.size(); ++i) {
      require(t.subset_nodes_[i] < n, "subset node out of range");
      t.subset_index_[t.subset_nodes_[i]] = static_cast<NodeId>(i);
    }
    t.to_lm_ = DistColumn(read_vec<Distance>(in));
    if (directed) t.from_lm_ = DistColumn(read_vec<Distance>(in));
    if (mode == LandmarkTables::Mode::kFull) {
      require(rows == t.landmark_nodes_.size(), "landmark row count mismatch");
    } else {
      require(t.to_lm_.size() ==
                  t.subset_nodes_.size() * t.landmark_nodes_.size(),
              "subset table has wrong length");
      if (directed) {
        require(t.from_lm_.size() == t.to_lm_.size(),
                "subset from-landmark table has wrong length");
      }
    }
  }

  // ---- Landmark tables, region-container sections -----------------------
  static void plan_tables(std::vector<SectionPlan>& plans,
                          const LandmarkTables& t) {
    using S = region::SectionId;
    if (t.mode() == LandmarkTables::Mode::kNone) return;
    plans.push_back(plan_span(S::kTableLandmarks,
                              std::span<const NodeId>(t.landmark_nodes_)));
    plans.push_back(plan_span(S::kTableSubsetNodes,
                              std::span<const NodeId>(t.subset_nodes_)));
    // Matrices a graph kind or mode lacks are empty, and save() drops
    // empty sections.
    plans.push_back(plan_dists(S::kTableDistRows, t.fwd_.view()));
    plans.push_back(plan_dists(S::kTableRevRows, t.rev_.view()));
    plans.push_back(plan_dists(S::kTableToLm, t.to_lm_.view()));
    plans.push_back(plan_dists(S::kTableFromLm, t.from_lm_.view()));
  }

  static void load_region_tables(const RegionReader& r, const graph::Graph& g,
                             const std::shared_ptr<const void>& backing,
                             LandmarkTables& t) {
    using S = region::SectionId;
    const auto n = g.num_nodes();
    const bool directed = g.directed();
    // table_mode was range-checked in open_region.
    t.mode_ = static_cast<LandmarkTables::Mode>(r.header->table_mode);
    t.directed_ = directed;
    if (t.mode_ == LandmarkTables::Mode::kNone) return;
    const auto lm = r.span_of<NodeId>(S::kTableLandmarks);
    t.landmark_nodes_.assign(lm.begin(), lm.end());
    t.landmark_index_.assign(n, kInvalidNode);
    for (std::size_t i = 0; i < t.landmark_nodes_.size(); ++i) {
      require(t.landmark_nodes_[i] < n, "table landmark out of range");
      t.landmark_index_[t.landmark_nodes_[i]] = static_cast<NodeId>(i);
    }
    const std::uint64_t k = t.landmark_nodes_.size();
    t.subset_index_.assign(n, kInvalidNode);
    // A mapped open aliases each matrix; a heap open copies it. Either
    // keeps the section's width.
    const auto adopt = [&](DistColumn& m, DistView section) {
      m = backing != nullptr ? DistColumn::borrow(section)
                             : DistColumn::copy_of(section);
    };
    t.backing_ = backing;
    if (t.mode_ == LandmarkTables::Mode::kFull) {
      require(k <= n, "corrupt landmark row count");
      const DistView dist = r.dists_of(S::kTableDistRows);
      require(dist.size() == k * n, "landmark row matrix has wrong length");
      const DistView rev = r.dists_of(S::kTableRevRows);
      require(directed ? rev.size() == k * n : rev.empty(),
              "reverse landmark row matrix has wrong length");
      // A file written with landmark parents also carries
      // table_parent_rows; the tables keep distances only and ignore it.
      adopt(t.fwd_, dist);
      adopt(t.rev_, rev);
      return;
    }
    // kSubset.
    const auto subset = r.span_of<NodeId>(S::kTableSubsetNodes);
    t.subset_nodes_.assign(subset.begin(), subset.end());
    for (std::size_t i = 0; i < t.subset_nodes_.size(); ++i) {
      require(t.subset_nodes_[i] < n, "subset node out of range");
      t.subset_index_[t.subset_nodes_[i]] = static_cast<NodeId>(i);
    }
    const std::uint64_t s = t.subset_nodes_.size();
    const DistView to_lm = r.dists_of(S::kTableToLm);
    require(to_lm.size() == s * k, "subset table has wrong length");
    const DistView from_lm = r.dists_of(S::kTableFromLm);
    require(directed ? from_lm.size() == to_lm.size() : from_lm.empty(),
            "subset from-landmark table has wrong length");
    adopt(t.to_lm_, to_lm);
    adopt(t.from_lm_, from_lm);
  }

  // ---- Region writer (version 6) -----------------------------------------
  static void save(const VicinityOracle& o, std::ostream& out) {
    using S = region::SectionId;
    const graph::Graph& g = o.graph();
    const std::size_t families = o.families();
    std::vector<SectionPlan> plans;
    plans.push_back(plan_span(S::kLandmarkNodes,
                              std::span<const NodeId>(o.landmarks_.nodes)));
    for (std::size_t f = 0; f < families; ++f) {
      plans.push_back(plan_span(nearest_dist_id(f),
                                std::span<const Distance>(o.nearest_[f].dist)));
      plans.push_back(
          plan_span(nearest_landmark_id(f),
                    std::span<const NodeId>(o.nearest_[f].landmark)));
    }
    plans.push_back(
        plan_span(S::kIndexedNodes, std::span<const NodeId>(o.indexed_)));
    // The scratch blobs hold compacted copies only when a store is not
    // contiguous in slot order; they must outlive the emit loop below.
    std::array<VicinityStore::PackedBlob, 2> scratch;
    for (std::size_t f = 0; f < families; ++f) {
      plan_store(plans, o.stores_[f].export_view(scratch[f]),
                 /*in_store=*/f == 1);
    }
    plan_tables(plans, o.tables_);
    // Empty sections carry no information; a missing section reads back as
    // an empty array.
    std::erase_if(plans, [](const SectionPlan& p) { return p.count == 0; });

    std::vector<region::SectionEntry> entries;
    entries.reserve(plans.size());
    std::uint64_t cursor = region::align_up(
        region::kSectionTableOffset +
        plans.size() * sizeof(region::SectionEntry));
    for (const SectionPlan& p : plans) {
      region::SectionEntry e;
      e.id = static_cast<std::uint32_t>(p.id);
      e.elem_size = p.elem_size;
      e.offset = cursor;
      e.count = p.count;
      e.bytes = p.count * p.elem_size;
      entries.push_back(e);
      cursor = region::align_up(cursor + e.bytes);
    }

    const OracleOptions& opt = o.opt_;
    region::FileHeader h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version_digits[0] = '0';
    h.version_digits[1] = '0' + kFormatVersion;
    h.backend_tag = static_cast<std::uint8_t>(backend_tag_of(g));
    h.table_mode = static_cast<std::uint8_t>(o.tables_.mode());
    h.directed_graph = g.directed() ? 1 : 0;
    h.weighted_graph = g.weighted() ? 1 : 0;
    h.endian = region::kEndianMarker;
    h.header_bytes = sizeof(region::FileHeader);
    h.section_count = static_cast<std::uint32_t>(entries.size());
    h.file_bytes = cursor;
    h.num_nodes = g.num_nodes();
    h.num_arcs = g.num_arcs();
    h.alpha = opt.alpha;
    h.sampling_constant = opt.sampling_constant;
    h.update_rebuild_fraction = opt.update_rebuild_fraction;
    h.seed = opt.seed;
    h.strategy = static_cast<std::uint8_t>(opt.strategy);
    h.store_backend = static_cast<std::uint8_t>(StoreBackend::kPacked);
    h.use_boundary_optimization = opt.use_boundary_optimization ? 1 : 0;
    h.iterate_smaller_side = opt.iterate_smaller_side ? 1 : 0;
    h.fallback = static_cast<std::uint8_t>(opt.fallback);

    write_pod(out, h);
    for (const auto& e : entries) write_pod(out, e);
    std::uint64_t pos = region::kSectionTableOffset +
                        entries.size() * sizeof(region::SectionEntry);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      write_zeros(out, entries[i].offset - pos);
      plans[i].emit(out);
      pos = entries[i].offset + entries[i].bytes;
    }
    write_zeros(out, h.file_bytes - pos);
    if (!out) throw std::runtime_error("oracle index: write failed");
  }

  // ---- Region loader (versions 5 and 6) ---------------------------------
  static VicinityOracle load_region_body(const RegionReader& r,
                                         const graph::Graph& g,
                                     std::shared_ptr<const void> backing,
                                     bool verify) {
    const region::FileHeader& h = *r.header;
    check_backend(
        Header{r.view.version(), static_cast<BackendTag>(h.backend_tag)}, g);
    check_region_graph_shape(h, g);
    VicinityOracle o;
    o.g_ = &g;
    o.opt_ = read_region_options(h);
    o.landmarks_ = read_region_landmark_set(r, o.opt_, g);
    const std::size_t families = o.families();
    for (std::size_t f = 0; f < families; ++f) {
      o.nearest_[f] = read_region_nearest(r, nearest_dist_id(f),
                                      nearest_landmark_id(f), g.num_nodes());
    }
    o.indexed_ = read_region_indexed(r, g);
    for (std::size_t f = 0; f < families; ++f) {
      VicinityStore& store = o.stores_[f];
      store = VicinityStore(g.num_nodes());
      {
        const util::RoleGuard role(store.mutation_role());
        store.prepare(o.indexed_);
      }
      adopt_region_store(r, /*in_store=*/f == 1, backing, verify, store);
    }
    load_region_tables(r, g, backing, o.tables_);
    o.build_stats_ = loaded_stats(o);
    return o;
  }

  // ---- Version-2-4 stream loader ----------------------------------------
  static VicinityOracle load_body(std::istream& in, const graph::Graph& g,
                                  const Header& h) {
    check_backend(h, g);
    check_graph_shape(in, g);
    VicinityOracle o;
    o.g_ = &g;
    bool packed_body = false;
    o.opt_ = read_options(in, h.version, packed_body);
    o.landmarks_ = read_landmark_set(in, o.opt_, g);
    const std::size_t families = o.families();
    for (std::size_t f = 0; f < families; ++f) {
      o.nearest_[f] = read_nearest(in, g.num_nodes());
    }

    o.indexed_ = read_indexed(in, g);
    for (std::size_t f = 0; f < families; ++f) {
      VicinityStore& store = o.stores_[f];
      store = VicinityStore(g.num_nodes());
      const util::RoleGuard role(store.mutation_role());
      store.prepare(o.indexed_);
    }
    if (packed_body) {
      for (std::size_t f = 0; f < families; ++f) {
        read_packed_store(in, o.stores_[f]);
      }
    } else {
      // Hash-layout bodies interleave the families per node.
      for (const NodeId u : o.indexed_) {
        for (std::size_t f = 0; f < families; ++f) {
          read_store_slot(in, g.num_nodes(), u, o.stores_[f]);
        }
      }
      for (std::size_t f = 0; f < families; ++f) {
        VicinityStore& store = o.stores_[f];
        const util::RoleGuard role(store.mutation_role());
        store.pack();
      }
    }

    load_tables(in, g, o.tables_);

    // Rebuild derived statistics so callers see sane numbers after load.
    o.build_stats_ = loaded_stats(o);
    return o;
  }

 private:
  static region::SectionId nearest_dist_id(std::size_t f) {
    return f == 0 ? region::SectionId::kNearestOutDist
                  : region::SectionId::kNearestInDist;
  }
  static region::SectionId nearest_landmark_id(std::size_t f) {
    return f == 0 ? region::SectionId::kNearestOutLandmark
                  : region::SectionId::kNearestInLandmark;
  }

  /// Mean vicinity/boundary/radius statistics over the families (averaged
  /// per indexed node, radii from the out side — build_impl's accounting).
  static OracleBuildStats loaded_stats(const VicinityOracle& o) {
    OracleBuildStats stats;
    stats.indexed_nodes = o.indexed_.size();
    stats.num_landmarks = o.landmarks_.size();
    const std::size_t families = o.families();
    const auto share = 1.0 / static_cast<double>(families);
    for (const NodeId u : o.indexed_) {
      for (std::size_t f = 0; f < families; ++f) {
        stats.mean_vicinity_size +=
            share * static_cast<double>(o.stores_[f].vicinity_size(u));
        stats.mean_boundary_size +=
            share * static_cast<double>(o.stores_[f].boundary_size(u));
      }
      if (o.stores_[0].radius(u) != kInfDistance) {
        stats.mean_radius += static_cast<double>(o.stores_[0].radius(u));
      }
    }
    const auto cnt =
        static_cast<double>(std::max<std::size_t>(1, o.indexed_.size()));
    stats.mean_vicinity_size /= cnt;
    stats.mean_boundary_size /= cnt;
    stats.mean_radius /= cnt;
    return stats;
  }
};

namespace {

/// Reconstructs a region container from a stream whose magic and version
/// digits were already consumed by read_version: re-prepends them so the
/// absolute section offsets stay valid, then slurps the remainder into one
/// heap buffer (operator new's alignment covers every element type).
std::vector<std::byte> slurp_region(std::istream& in, int version) {
  std::vector<std::byte> buf(8);
  std::memcpy(buf.data(), kMagic, sizeof(kMagic));
  buf[6] = static_cast<std::byte>('0');
  buf[7] = static_cast<std::byte>('0' + version);
  constexpr std::size_t kChunk = std::size_t{1} << 22;
  std::size_t pos = buf.size();
  for (;;) {
    buf.resize(pos + kChunk);
    in.read(reinterpret_cast<char*>(buf.data() + pos),
            static_cast<std::streamsize>(kChunk));
    const auto got = static_cast<std::size_t>(in.gcount());
    pos += got;
    if (got < kChunk) break;
  }
  buf.resize(pos);
  return buf;
}

}  // namespace

void save_oracle(const VicinityOracle& oracle, std::ostream& out) {
  OracleSerializer::save(oracle, out);
}

void save_oracle_file(const VicinityOracle& oracle, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  save_oracle(oracle, f);
}

VicinityOracle load_oracle(std::istream& in, const graph::Graph& g) {
  const int version = read_version(in);
  require_current(version);
  const auto buf = slurp_region(in, version);
  const RegionReader r = open_region(region::RegionView(buf, version));
  return OracleSerializer::load_region_body(r, g, nullptr, /*verify=*/true);
}

VicinityOracle load_oracle_file(const std::string& path, const graph::Graph& g,
                                const OpenOptions& opts) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  const int version = read_version(f);
  require_current(version);
  f.close();
  auto mf = std::make_shared<util::MappedFile>(path);
  const RegionReader r = open_region(region::RegionView(mf->bytes(), version));
  if (opts.mode == OpenMode::kHeap) {
    return OracleSerializer::load_region_body(r, g, nullptr, /*verify=*/true);
  }
  return OracleSerializer::load_region_body(r, g, std::move(mf), opts.verify);
}

void upgrade_index(std::istream& legacy, const graph::Graph& g,
                   std::ostream& out) {
  const int version = read_version(legacy);
  if (version >= kMinRegionVersion) {
    throw std::runtime_error(
        "oracle index: format version " + std::to_string(version) +
        " is already current (the loaders open region containers " +
        std::to_string(kMinRegionVersion) + "-" +
        std::to_string(kFormatVersion) + " directly); nothing to upgrade");
  }
  const Header h{version, read_tag(legacy, version)};
  save_oracle(OracleSerializer::load_body(legacy, g, h), out);
}

std::shared_ptr<AnyOracle> load_any_oracle(std::istream& in,
                                           const graph::Graph& g) {
  return make_any_oracle(load_oracle(in, g));
}

std::shared_ptr<AnyOracle> load_any_oracle_file(const std::string& path,
                                                const graph::Graph& g,
                                                const OpenOptions& opts) {
  return make_any_oracle(load_oracle_file(path, g, opts));
}

IndexFileInfo inspect_index_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  IndexFileInfo info;
  info.version = read_version(f);
  if (info.version < kMinRegionVersion) {
    // A legacy stream container: only upgrade_index reads past its tag.
    info.backend = to_string(read_tag(f, info.version));
    return info;
  }
  f.close();
  const util::MappedFile mf(path);
  const RegionReader r =
      open_region(region::RegionView(mf.bytes(), info.version));
  const region::FileHeader& h = *r.header;
  info.backend = to_string(static_cast<BackendTag>(h.backend_tag));
  info.file_bytes = h.file_bytes;
  info.mappable = true;
  info.num_nodes = h.num_nodes;
  info.num_arcs = h.num_arcs;
  info.directed = h.directed_graph != 0;
  info.weighted = h.weighted_graph != 0;
  info.alpha = h.alpha;
  info.store_backend =
      h.store_backend == static_cast<std::uint8_t>(StoreBackend::kPacked)
          ? "packed"
          : "?";
  info.table_mode = table_mode_name(h.table_mode);
  for (const auto& e : r.sections) {
    info.sections.push_back({e.id, region::section_name(e.id), e.elem_size,
                             e.offset, e.count, e.bytes});
  }
  return info;
}

}  // namespace vicinity::core
