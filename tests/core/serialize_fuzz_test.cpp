// Fuzz-ish robustness tests for the oracle index readers: mangled headers,
// corrupt array lengths, wrong backend tags and truncated files must fail
// with the intended "oracle index: ..." runtime_error — never a multi-GB
// allocation, bad_alloc, or out-of-bounds write. Covers both generations of
// the container: VCNIDX02-04 length-prefixed streams (read from the
// checked-in hash-layout goldens through upgrade_index, their only reader)
// and the region container (VCNIDX06, what the writer emits, and VCNIDX05,
// which the loaders also open), the latter through the stream-slurp path,
// the memory-mapped file path and inspect_index_file.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/index_format.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

struct Fixture {
  graph::Graph g;
  std::string bytes;  ///< a valid serialized index for g
};

std::string golden_bytes(const char* name) {
  const std::string path =
      std::string(VICINITY_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("missing golden fixture " + path);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

// The VCNIDX02-04 stream cases read checked-in hash-layout VCNIDX04 files
// (tests/data/golden/README.md): the writer emits only VCNIDX06, and only
// upgrade_index reads a stream container. The hash-body layout is
// byte-identical across versions 2-4, which the version-2/3 rewrites below
// rely on.
Fixture make_fixture() {
  return {testing::random_connected(140, 460, 9101),
          golden_bytes("flat_v04_undirected.idx")};
}

// The writer's VCNIDX06 region container: a FileHeader + section table +
// 64-byte-aligned sections, its distance sections byte-wide on this graph.
Fixture make_packed_fixture() {
  Fixture f;
  f.g = testing::random_connected(200, 700, 1211);
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.seed = 1212;
  opt.fallback = Fallback::kBidirectionalBfs;
  const auto oracle = VicinityOracle::build(f.g, opt);
  std::ostringstream out(std::ios::binary);
  save_oracle(oracle, out);
  f.bytes = out.str();
  return f;
}

Fixture make_directed_fixture() {
  return {testing::random_connected_directed(160, 1100, 9121),
          golden_bytes("flat_v04_directed.idx")};
}

/// upgrade_index() over legacy stream bytes: the VCNIDX06 bytes it writes.
std::string upgrade(const std::string& legacy, const graph::Graph& g) {
  std::istringstream in(legacy, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  upgrade_index(in, g, out);
  return out.str();
}

/// Loads region-container bytes through the stream loader.
VicinityOracle load_bytes(const std::string& bytes, const graph::Graph& g) {
  std::istringstream in(bytes, std::ios::binary);
  return load_oracle(in, g);
}

// Header layout: magic(6) + version(2) + backend tag(1).
constexpr std::size_t kBackendTagOffset = 8;

// Byte offset of the first vector length field (the landmark node list):
// header(9) + graph shape(8+8+1+1) +
// options(8+8+1+1+1+1+1+8+8: ... fallback, update_rebuild_fraction, seed).
constexpr std::size_t kFirstVecLenOffset = 64;

/// Rewrites valid version-4 hash-backend undirected bytes into the
/// version-2 layout (same body, no backend-tag byte) — the oldest loadable
/// on-disk format.
std::string as_version2(const std::string& v4) {
  std::string v2 = v4.substr(0, kBackendTagOffset) +
                   v4.substr(kBackendTagOffset + 1);
  v2[6] = '0';
  v2[7] = '2';
  return v2;
}

// Byte offset of OracleOptions::backend within the body:
// header(9) + graph shape(18) + alpha(8) + sampling_constant(8) +
// strategy(1).
constexpr std::size_t kBackendByteOffset = 44;

// ---- Region-container surgery helpers -----------------------------------

template <typename T>
void stamp(std::string& bytes, std::size_t off, T value) {
  ASSERT_LE(off + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + off, &value, sizeof(value));
}

constexpr std::size_t entry_off(std::size_t i) {
  return region::kSectionTableOffset + i * sizeof(region::SectionEntry);
}

/// Writes `bytes` to a temp file named after the running test: ctest runs
/// each case as its own process, so a shared name would let one case
/// truncate a file another case still has mapped (SIGBUS).
std::filesystem::path write_temp(const std::string& bytes) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto p = std::filesystem::temp_directory_path() /
                 (std::string("vicinity_fuzz_") + info->name() + ".idx");
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.close();
  return p;
}

/// The corrupt container must be refused through BOTH load paths: the
/// stream slurp (load_oracle) and the bounds-checked mapped RegionView
/// (load_oracle_file over mmap).
void expect_v5_rejected(const std::string& bytes, const graph::Graph& g,
                        const char* label) {
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW((void)load_oracle(in, g), std::runtime_error)
      << label << " (stream)";
  const auto p = write_temp(bytes);
  EXPECT_THROW((void)load_oracle_file(p.string(), g), std::runtime_error)
      << label << " (mapped)";
  std::filesystem::remove(p);
}

TEST(SerializeFuzzTest, ValidBufferLoadsAndAnswers) {
  const Fixture f = make_fixture();
  auto oracle = load_bytes(upgrade(f.bytes, f.g), f.g);
  QueryContext ctx;
  util::Rng rng(1203);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    EXPECT_EQ(oracle.distance(s, t, ctx).dist,
              testing::ref_distance(f.g, s, t));
  }
}

TEST(SerializeFuzzTest, TruncatedInputThrowsAtEveryCutPoint) {
  const Fixture f = make_fixture();
  ASSERT_GT(f.bytes.size(), 200u);
  // Every strict prefix is invalid; sample densely through the header and
  // coarsely through the body (plus the exact last byte).
  for (std::size_t cut = 0; cut < f.bytes.size();
       cut += (cut < 256 ? 1 : 997)) {
    EXPECT_THROW((void)upgrade(f.bytes.substr(0, cut), f.g),
                 std::runtime_error)
        << "cut=" << cut;
  }
  EXPECT_THROW((void)upgrade(f.bytes.substr(0, f.bytes.size() - 1), f.g),
               std::runtime_error);
}

TEST(SerializeFuzzTest, HugeLengthFieldIsRejectedAsTruncation) {
  // Pre-fix, read_vec() constructed std::vector<T>(n) straight from the
  // untrusted 64-bit length — this value demanded ~64 exabytes.
  const Fixture f = make_fixture();
  std::string mangled = f.bytes;
  const std::uint64_t huge = 0x7fffffffffffffffull;
  std::memcpy(mangled.data() + kFirstVecLenOffset, &huge, sizeof(huge));
  EXPECT_THROW((void)upgrade(mangled, f.g), std::runtime_error);
}

TEST(SerializeFuzzTest, ModeratelyOversizedLengthAlsoThrows) {
  const Fixture f = make_fixture();
  std::string mangled = f.bytes;
  const std::uint64_t big = f.bytes.size() * 4;  // plausible but too large
  std::memcpy(mangled.data() + kFirstVecLenOffset, &big, sizeof(big));
  EXPECT_THROW((void)upgrade(mangled, f.g), std::runtime_error);
}

TEST(SerializeFuzzTest, SingleByteCorruptionNeverEscalates) {
  // Flip one byte at a time through the header-heavy region: the upgrade
  // must either still succeed (cosmetic fields like the seed) or fail with
  // the reader's runtime_error — never bad_alloc or a crash.
  const Fixture f = make_fixture();
  const std::size_t limit = std::min<std::size_t>(f.bytes.size(), 512);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x5a);
    try {
      (void)upgrade(mangled, f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
      // expected for most positions
    }
  }
}

TEST(SerializeFuzzTest, EveryVectorLengthFieldCorruptionIsGraceful) {
  // Stamp a huge length over every 8-byte-aligned window in the first
  // couple hundred bytes — whichever of them are real length fields must
  // fail as truncation, and none may over-allocate.
  const Fixture f = make_fixture();
  const std::uint64_t huge = 0x0123456789abcdefull;
  const std::size_t limit = std::min<std::size_t>(f.bytes.size() - 8, 256);
  for (std::size_t pos = 8; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    std::memcpy(mangled.data() + pos, &huge, sizeof(huge));
    try {
      (void)upgrade(mangled, f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SerializeFuzzTest, OldFormatVersionIsRejectedNotMisparsed) {
  // A version-1 file (pre update_rebuild_fraction) has the same magic with
  // "01" in the version slot and 8 fewer option bytes. Loading it must fail
  // up front on the version field — silently misparsing would shift every
  // later field by 8 bytes.
  const Fixture f = make_fixture();
  std::string mangled = f.bytes;
  ASSERT_EQ(mangled[6], '0');
  ASSERT_EQ(mangled[7], '4');
  mangled[7] = '1';
  std::istringstream in(mangled, std::ios::binary);
  try {
    (void)load_oracle(in, f.g);
    FAIL() << "version-1 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeFuzzTest, FutureAndGarbageVersionsAreRejected) {
  const Fixture f = make_fixture();
  for (const char* version : {"06", "07", "99", "12", "00"}) {
    std::string mangled = f.bytes;
    mangled[6] = version[0];
    mangled[7] = version[1];
    std::istringstream in(mangled, std::ios::binary);
    EXPECT_THROW(load_oracle(in, f.g), std::runtime_error)
        << "version=" << version;
  }
  // Non-digit version bytes are corrupt-header errors, not versions.
  std::string mangled = f.bytes;
  mangled[6] = 'z';
  mangled[7] = '!';
  std::istringstream in(mangled, std::ios::binary);
  EXPECT_THROW(load_oracle(in, f.g), std::runtime_error);
}

TEST(SerializeFuzzTest, Version2FilesStillLoad) {
  // Backward compatibility: a VCNIDX02 file (no backend tag, undirected
  // hash-backend body) must upgrade to the same bytes as its version-4
  // twin, and the result must load through load_oracle AND load_any_oracle
  // and answer exactly like the version-4 upgrade.
  const Fixture f = make_fixture();
  const std::string v2 = upgrade(as_version2(f.bytes), f.g);
  const std::string v4 = upgrade(f.bytes, f.g);
  EXPECT_TRUE(v2 == v4);
  auto from_v4 = load_bytes(v4, f.g);
  auto from_v2 = load_bytes(v2, f.g);
  QueryContext ctx;
  util::Rng rng(1204);
  for (int i = 0; i < 100; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    const auto a = from_v4.distance(s, t, ctx);
    const auto b = from_v2.distance(s, t, ctx);
    ASSERT_EQ(a.dist, b.dist);
    ASSERT_EQ(a.method, b.method);
    ASSERT_EQ(a.hash_lookups, b.hash_lookups);
  }
  std::istringstream in_any(v2, std::ios::binary);
  auto any = load_any_oracle(in_any, f.g);
  ASSERT_NE(any, nullptr);
  EXPECT_STREQ(any->backend_name(), "vicinity");
}

TEST(SerializeFuzzTest, Version3FilesStillLoad) {
  // A hash-backend version-3 file is byte-identical to version 4 apart
  // from the version digits.
  const Fixture f = make_fixture();
  std::string v3 = f.bytes;
  v3[7] = '3';
  auto oracle = load_bytes(upgrade(v3, f.g), f.g);
  QueryContext ctx;
  util::Rng rng(1205);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    EXPECT_EQ(oracle.distance(s, t, ctx).dist,
              testing::ref_distance(f.g, s, t));
  }
}

TEST(SerializeFuzzTest, PackedBackendPredatingVersion4IsRejected) {
  // A version-2/3 stream whose options byte claims the packed backend is
  // corrupt (the packed body only exists from VCNIDX04 on); it must fail
  // with the versioned error, not be misparsed as per-slot records. Built
  // by retagging the flat-hash stream fixture, since the writer itself no
  // longer emits pre-v5 packed bodies.
  const Fixture f = make_fixture();
  ASSERT_EQ(static_cast<unsigned char>(f.bytes[kBackendByteOffset]), 0u);
  std::string v3 = f.bytes;
  v3[7] = '3';
  v3[kBackendByteOffset] = 2;  // StoreBackend::kPacked
  try {
    (void)upgrade(v3, f.g);
    FAIL() << "pre-version-4 packed file upgraded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("packed store backend requires format version >= 4"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
}

TEST(SerializeFuzzTest, PackedRoundTripLoadsAndAnswers) {
  const Fixture f = make_packed_fixture();
  std::istringstream in(f.bytes, std::ios::binary);
  auto oracle = load_oracle(in, f.g);
  EXPECT_EQ(oracle.options().backend, StoreBackend::kPacked);
  EXPECT_TRUE(oracle.store().fully_packed());
  QueryContext ctx;
  util::Rng rng(1206);
  for (int i = 0; i < 50; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(f.g.num_nodes()));
    EXPECT_EQ(oracle.distance(s, t, ctx).dist,
              testing::ref_distance(f.g, s, t));
  }
}

TEST(SerializeFuzzTest, PackedTruncationAndCorruptionAreGraceful) {
  // The VCNIDX05 region container is a 128-byte header, a section table
  // and 64-byte-aligned payload sections; every cut point and every
  // corrupted byte in the header+table region must fail with the loader's
  // runtime_error — never bad_alloc, never a crash, and in particular
  // never an out-of-bounds binary search over an unsorted slice.
  const Fixture f = make_packed_fixture();
  ASSERT_GT(f.bytes.size(), 200u);
  for (std::size_t cut = 0; cut < f.bytes.size();
       cut += (cut < 256 ? 1 : 997)) {
    std::istringstream in(f.bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW(load_oracle(in, f.g), std::runtime_error) << "cut=" << cut;
  }
  const std::size_t limit = std::min<std::size_t>(f.bytes.size(), 512);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x5a);
    std::istringstream in(mangled, std::ios::binary);
    try {
      (void)load_oracle(in, f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
      // expected for most positions
    }
  }
}

TEST(SerializeFuzzTest, PackedBlobLengthCorruptionIsGraceful) {
  // Stamp a huge 64-bit value over every window of the header + section
  // table: whichever land on real offset/count/bytes fields must fail the
  // section-table validation, and none may over-allocate.
  const Fixture f = make_packed_fixture();
  const std::uint64_t huge = 0x0123456789abcdefull;
  const std::size_t limit = std::min<std::size_t>(f.bytes.size() - 8, 512);
  for (std::size_t pos = 8; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    std::memcpy(mangled.data() + pos, &huge, sizeof(huge));
    std::istringstream in(mangled, std::ios::binary);
    try {
      (void)load_oracle(in, f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SerializeFuzzTest, V5BadEndianMarkerIsRejected) {
  // The endian marker is written in native byte order; a byte-swapped (or
  // garbage) marker means the file came from an incompatible producer and
  // every multi-byte field after it would be misread.
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  stamp<std::uint32_t>(mangled, offsetof(region::FileHeader, endian),
                       0xdeadbeefu);
  expect_v5_rejected(mangled, f.g, "bad endian marker");
}

TEST(SerializeFuzzTest, V5WrongFileBytesFieldIsRejected) {
  // header.file_bytes must equal the actual region size exactly — both a
  // short claim and a long claim are refused, as is trailing garbage
  // appended to an otherwise valid container.
  const Fixture f = make_packed_fixture();
  for (const std::int64_t delta : {-64, -1, +1, +4096}) {
    std::string mangled = f.bytes;
    stamp<std::uint64_t>(mangled, offsetof(region::FileHeader, file_bytes),
                         f.bytes.size() + static_cast<std::uint64_t>(delta));
    expect_v5_rejected(mangled, f.g, "wrong file_bytes");
  }
  std::string padded = f.bytes + std::string(64, '\xff');
  expect_v5_rejected(padded, f.g, "trailing garbage");
}

TEST(SerializeFuzzTest, V5ZeroElemSizeSectionIsRejected) {
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  stamp<std::uint32_t>(
      mangled, entry_off(0) + offsetof(region::SectionEntry, elem_size), 0u);
  expect_v5_rejected(mangled, f.g, "zero elem_size");
}

TEST(SerializeFuzzTest, V5MisalignedSectionOffsetIsRejected) {
  // Section payloads are 64-byte aligned by construction; a misaligned
  // offset would hand the oracle spans whose element pointers violate
  // alignof(T) — UB under UBSan. The loader must refuse it up front with
  // the versioned error (the writer's container is version 6).
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  std::uint64_t off = 0;
  std::memcpy(&off,
              mangled.data() + entry_off(0) + offsetof(region::SectionEntry,
                                                       offset),
              sizeof(off));
  stamp<std::uint64_t>(mangled,
                       entry_off(0) + offsetof(region::SectionEntry, offset),
                       off + 4);
  std::istringstream in(mangled, std::ios::binary);
  try {
    (void)load_oracle(in, f.g);
    FAIL() << "misaligned section loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 6"), std::string::npos)
        << e.what();
  }
  expect_v5_rejected(mangled, f.g, "misaligned section offset");
}

/// Index of the first section-table entry with id `id`.
std::size_t entry_of(const std::string& bytes, region::SectionId id) {
  region::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  for (std::size_t i = 0; i < h.section_count; ++i) {
    std::uint32_t got = 0;
    std::memcpy(&got, bytes.data() + entry_off(i), sizeof(got));
    if (got == static_cast<std::uint32_t>(id)) return i;
  }
  throw std::runtime_error("no such section");
}

/// `load` must throw a runtime_error whose message holds every `needle`.
template <typename Load>
void expect_error_naming(Load load, std::initializer_list<const char*> needles,
                         const char* label) {
  try {
    load();
    ADD_FAILURE() << label << ": loaded";
  } catch (const std::runtime_error& e) {
    for (const char* needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << label << ": " << e.what();
    }
  }
}

/// The same error through the stream loader and the mapped loader.
void expect_region_error(const std::string& bytes, const graph::Graph& g,
                         std::initializer_list<const char*> needles,
                         const char* label) {
  expect_error_naming([&] { (void)load_bytes(bytes, g); }, needles, label);
  const auto p = write_temp(bytes);
  expect_error_naming([&] { (void)load_oracle_file(p.string(), g); }, needles,
                      label);
  std::filesystem::remove(p);
}

TEST(SerializeFuzzTest, DistanceSectionWidthsAreChecked) {
  // A distance section is one or four bytes per entry. Any other element
  // size, a byte-wide section under a version-5 header (version 5 has no
  // byte-wide encoding) and a byte length that disagrees with the count
  // are each refused with the versioned error, never read.
  const Fixture f = make_packed_fixture();
  for (const auto id : {region::SectionId::kOutStoreDists,
                        region::SectionId::kTableDistRows}) {
    const std::size_t i = entry_of(f.bytes, id);
    region::SectionEntry e;
    std::memcpy(&e, f.bytes.data() + entry_off(i), sizeof(e));
    ASSERT_EQ(e.elem_size, 1u);

    std::string two = f.bytes;
    e.elem_size = 2;
    e.count /= 2;
    e.bytes = e.count * 2;
    stamp(two, entry_off(i), e);
    expect_region_error(two, f.g, {"version 6", "unexpected element size"},
                        "elem_size 2");

    std::string v5 = f.bytes;
    v5[7] = '5';
    expect_region_error(v5, f.g, {"version 5", "byte-wide"},
                        "byte-wide under a v5 header");

    std::string long_bytes = f.bytes;
    std::memcpy(&e, f.bytes.data() + entry_off(i), sizeof(e));
    ++e.bytes;
    stamp(long_bytes, entry_off(i), e);
    expect_region_error(long_bytes, f.g, {"version 6", "byte length mismatch"},
                        "byte length != count");
  }
}

TEST(SerializeFuzzTest, V5OutOfRangeSectionOffsetIsRejected) {
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  // Far past EOF but still 64-byte aligned, so only the range check can
  // catch it.
  stamp<std::uint64_t>(mangled,
                       entry_off(0) + offsetof(region::SectionEntry, offset),
                       std::uint64_t{1} << 40);
  expect_v5_rejected(mangled, f.g, "out-of-range section offset");
}

TEST(SerializeFuzzTest, V5SectionCountOverflowIsRejected) {
  // count * elem_size must not wrap; a count in the 2^62 range overflows
  // 64-bit multiplication with elem_size 4.
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  stamp<std::uint64_t>(mangled,
                       entry_off(0) + offsetof(region::SectionEntry, count),
                       std::uint64_t{1} << 62);
  expect_v5_rejected(mangled, f.g, "section count overflow");
}

TEST(SerializeFuzzTest, V5OverlappingSectionsAreRejected) {
  // Point the second section at the first section's payload: the two
  // ranges overlap, which a valid writer can never produce.
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  std::uint64_t first_off = 0;
  std::memcpy(&first_off,
              mangled.data() + entry_off(0) + offsetof(region::SectionEntry,
                                                       offset),
              sizeof(first_off));
  stamp<std::uint64_t>(mangled,
                       entry_off(1) + offsetof(region::SectionEntry, offset),
                       first_off);
  expect_v5_rejected(mangled, f.g, "overlapping sections");
}

TEST(SerializeFuzzTest, V5DuplicateSectionIdIsRejected) {
  const Fixture f = make_packed_fixture();
  std::string mangled = f.bytes;
  std::uint32_t first_id = 0;
  std::memcpy(&first_id,
              mangled.data() + entry_off(0) +
                  offsetof(region::SectionEntry, id),
              sizeof(first_id));
  stamp<std::uint32_t>(mangled,
                       entry_off(1) + offsetof(region::SectionEntry, id),
                       first_id);
  expect_v5_rejected(mangled, f.g, "duplicate section id");
}

TEST(SerializeFuzzTest, V5MappedTruncationThrowsAtEveryCutPoint) {
  // Same contract as the stream truncation test, but through the mmap
  // path: a RegionView over a short file must fail validation, never fault
  // on a read past the mapping.
  const Fixture f = make_packed_fixture();
  ASSERT_GT(f.bytes.size(), 1024u);
  const std::size_t table_end =
      region::kSectionTableOffset + 20 * sizeof(region::SectionEntry);
  for (std::size_t cut = 0; cut < f.bytes.size();
       cut += (cut < table_end ? 7 : 4099)) {
    const auto p = write_temp(f.bytes.substr(0, cut));
    EXPECT_THROW((void)load_oracle_file(p.string(), f.g), std::runtime_error)
        << "cut=" << cut;
    std::filesystem::remove(p);
  }
}

TEST(SerializeFuzzTest, V5MappedCorruptionNeverEscalates) {
  // Single-byte flips through the header + section table via the mapped
  // loader: each either still loads (cosmetic fields) or throws the
  // loader's runtime_error — never bad_alloc, never UB (this binary runs
  // under ASan/UBSan in CI).
  const Fixture f = make_packed_fixture();
  const std::size_t limit = std::min<std::size_t>(f.bytes.size(), 576);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x5a);
    const auto p = write_temp(mangled);
    try {
      (void)load_oracle_file(p.string(), f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
      // expected for most positions
    }
    std::filesystem::remove(p);
  }
}

TEST(SerializeFuzzTest, InspectCorruptionNeverEscalates) {
  // inspect_index_file over single-byte flips of the header + section
  // table of a VCNIDX05 golden: each either still reads (cosmetic fields)
  // or throws runtime_error. A corrupt section_count must never size an
  // allocation (bad_alloc) before the table is bounds-checked.
  const std::string bytes = golden_bytes("packed_v05_undirected.idx");
  const std::size_t limit = std::min<std::size_t>(bytes.size(), 576);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    std::string mangled = bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x5a);
    const auto p = write_temp(mangled);
    try {
      (void)inspect_index_file(p.string());
    } catch (const std::runtime_error&) {
      // expected for most positions
    } catch (const std::exception& e) {
      ADD_FAILURE() << "pos=" << pos << ": " << e.what();
    }
    std::filesystem::remove(p);
  }
  std::string huge = bytes;
  stamp<std::uint32_t>(huge, offsetof(region::FileHeader, section_count),
                       0xFFFFFFFFu);
  const auto p = write_temp(huge);
  EXPECT_THROW((void)inspect_index_file(p.string()), std::runtime_error);
  std::filesystem::remove(p);
}

TEST(SerializeFuzzTest, MappedOpenOfStreamContainerIsRejected) {
  // The file loaders open only region containers; pointing either
  // OpenMode at a VCNIDX04 stream must fail with the actionable upgrade
  // hint, not a misparse.
  const Fixture f = make_fixture();
  const auto p = write_temp(f.bytes);
  for (const OpenMode mode : {OpenMode::kMapped, OpenMode::kHeap}) {
    OpenOptions opts;
    opts.mode = mode;
    try {
      (void)load_oracle_file(p.string(), f.g, opts);
      FAIL() << "stream container opened";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("format version 4"), std::string::npos) << what;
      EXPECT_NE(what.find("vicinity_cli index upgrade"), std::string::npos)
          << what;
    }
  }
  std::filesystem::remove(p);
}

TEST(SerializeFuzzTest, WrongBackendTagFailsWithVersionedError) {
  // An undirected file retagged as directed disagrees with its undirected
  // graph and must be refused — by upgrade_index for the version-4 stream,
  // by load_oracle for the version-6 container — with an error naming the
  // format version and both backends, not misparsed as a directed body.
  const Fixture f = make_fixture();
  const Fixture v5 = make_packed_fixture();
  for (const bool legacy : {true, false}) {
    const Fixture& fx = legacy ? f : v5;
    std::string mangled = fx.bytes;
    ASSERT_EQ(mangled[kBackendTagOffset], '\0');
    mangled[kBackendTagOffset] = 1;
    try {
      if (legacy) {
        (void)upgrade(mangled, fx.g);
      } else {
        (void)load_bytes(mangled, fx.g);
      }
      FAIL() << "wrong-backend file loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("backend mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find(legacy ? "format version 4" : "format version 6"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("vicinity-directed"), std::string::npos) << what;
    }
  }
  // The symmetric direction: a directed file retagged as undirected (and a
  // version-2 file, which is implicitly undirected) is refused against its
  // directed graph.
  const Fixture d = make_directed_fixture();
  std::string retagged = d.bytes;
  ASSERT_EQ(retagged[kBackendTagOffset], '\1');
  retagged[kBackendTagOffset] = 0;
  for (const std::string& bytes : {retagged, as_version2(d.bytes)}) {
    try {
      (void)upgrade(bytes, d.g);
      FAIL() << "undirected-tagged file upgraded against a directed graph";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("backend mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SerializeFuzzTest, UnknownBackendTagIsRejected) {
  // Refused by upgrade_index in a version-4 stream, and by both loaders in
  // a version-5 container.
  const Fixture f = make_fixture();
  const Fixture v5 = make_packed_fixture();
  for (const std::uint8_t tag : {2, 7, 255}) {
    std::string legacy = f.bytes;
    legacy[kBackendTagOffset] = static_cast<char>(tag);
    std::string current = v5.bytes;
    current[kBackendTagOffset] = static_cast<char>(tag);
    const auto expect_unknown_tag = [tag](auto load) {
      try {
        load();
        FAIL() << "unknown tag " << int(tag) << " loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("unknown backend tag"),
                  std::string::npos)
            << e.what();
      }
    };
    expect_unknown_tag([&] { (void)upgrade(legacy, f.g); });
    expect_unknown_tag([&] { (void)load_bytes(current, v5.g); });
    std::istringstream in_any(current, std::ios::binary);
    EXPECT_THROW((void)load_any_oracle(in_any, v5.g), std::runtime_error);
    const auto p = write_temp(current);
    expect_unknown_tag([&] { (void)load_oracle_file(p.string(), v5.g); });
    std::filesystem::remove(p);
  }
}

TEST(SerializeFuzzTest, DirectedTruncationAndCorruptionAreGraceful) {
  const Fixture f = make_directed_fixture();
  ASSERT_GT(f.bytes.size(), 200u);
  for (std::size_t cut = 0; cut < f.bytes.size();
       cut += (cut < 256 ? 1 : 997)) {
    EXPECT_THROW((void)upgrade(f.bytes.substr(0, cut), f.g),
                 std::runtime_error)
        << "cut=" << cut;
  }
  const std::size_t limit = std::min<std::size_t>(f.bytes.size(), 384);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    std::string mangled = f.bytes;
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x5a);
    try {
      (void)upgrade(mangled, f.g);
    } catch (const std::bad_alloc&) {
      FAIL() << "bad_alloc at pos=" << pos;
    } catch (const std::runtime_error&) {
      // expected for most positions
    }
  }
}

TEST(SerializeFuzzTest, RoundTripPreservesUpdateRebuildFraction) {
  Fixture f;
  f.g = testing::random_connected(120, 400, 1207);
  OracleOptions opt;
  opt.alpha = 3.0;
  opt.update_rebuild_fraction = 0.125;
  const auto oracle = VicinityOracle::build(f.g, opt);
  std::ostringstream out(std::ios::binary);
  save_oracle(oracle, out);
  std::istringstream in(out.str(), std::ios::binary);
  const auto loaded = load_oracle(in, f.g);
  EXPECT_DOUBLE_EQ(loaded.options().update_rebuild_fraction, 0.125);
}

TEST(SerializeFuzzTest, EmptyAndGarbageStreams) {
  const Fixture f = make_fixture();
  {
    std::istringstream in(std::string{}, std::ios::binary);
    EXPECT_THROW(load_oracle(in, f.g), std::runtime_error);
  }
  {
    std::istringstream in(std::string(64, '\xff'), std::ios::binary);
    EXPECT_THROW(load_oracle(in, f.g), std::runtime_error);
  }
}

}  // namespace
}  // namespace vicinity::core
