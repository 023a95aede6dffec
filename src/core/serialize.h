// Oracle persistence: save a built index and reload it against the same
// graph, skipping preprocessing on restart (practically relevant: the paper
// targets "offline phase" / "online phase" deployments, §2.1).
//
// Every container starts with the "VCNIDX" magic, a 2 ASCII-digit version
// and a backend tag (0 = vicinity oracle on an undirected graph, 1 = on a
// directed graph, with a second vicinity family). The loaders open one
// generation:
//
//  * Versions 5-7 are REGION containers (core/index_format.h): fixed
//    header, section table, 64-byte-aligned sections whose file bytes equal
//    the in-memory arrays. Every save writes version 7, whose distance
//    sections hold one byte per entry when the column's values fit (four
//    otherwise) and which stores no vicinity parents; version 6 adds them,
//    which no reader reads, and version 5 is version 6 with four-byte
//    distance sections. All three open as they are, either zero-copy via
//    util::MappedFile — the oracle's spans alias the mapping, so a
//    multi-GB index opens in milliseconds and server processes share one
//    physical copy — or into owned heap storage (OpenMode::kHeap), each
//    column keeping its file width. Mutating a mapped oracle
//    (apply_update) transparently copies on write.
//  * Versions 2-4 are legacy STREAM containers: a length-prefixed field
//    sequence. The loaders refuse them on the version digits, before any
//    other field, with a versioned std::runtime_error that names
//    `vicinity_cli index upgrade`. upgrade_index() is the only reader left
//    for them; it writes the same index as version 7, including files whose
//    store body is one of the retired per-node hash layouts.
//
// The writer takes the tag from the oracle's graph (directed() -> 1). The
// loaders refuse an index built for a different graph, a tag that
// disagrees with the graph's direction, or an unknown tag — each with a
// versioned std::runtime_error.
//
// load_any_oracle() returns the loaded index behind the type-erased
// core::AnyOracle interface — the symmetric half of AnyOracle::save().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/any_oracle.h"
#include "core/oracle.h"

namespace vicinity::core {

/// How load_oracle_file brings a VCNIDX05-07 container into memory.
enum class OpenMode {
  kMapped,  ///< zero-copy mmap (the default)
  kHeap,    ///< copy into owned heap storage
};

struct OpenOptions {
  OpenMode mode = OpenMode::kMapped;
  /// Deep-validate the packed arenas on a *mapped* open: member id ranges,
  /// per-group sort order and group disjointness — an
  /// O(total entries) scan. Heap and stream loads always deep-validate; a
  /// default mapped open runs structural validation only (header, section
  /// table, slot shapes, small arrays), which is what makes it
  /// O(sections + slots). The query kernels only compare arena values, so
  /// trusting a corrupt arena yields wrong answers, never UB.
  bool verify = false;
};

void save_oracle(const VicinityOracle& oracle, std::ostream& out);
void save_oracle_file(const VicinityOracle& oracle, const std::string& path);

/// The graph must be the one the oracle was built on (shape-checked) and
/// must outlive the returned oracle. Accepts version-5 to -7 files whose tag
/// matches the graph: undirected on an undirected graph, directed on a
/// directed one; a mismatch fails with a versioned "backend mismatch"
/// runtime_error, and a version 2-4 file with the upgrade hint. The stream
/// overload always loads onto the heap (the stream is slurped and
/// region-parsed).
VicinityOracle load_oracle(std::istream& in, const graph::Graph& g);
VicinityOracle load_oracle_file(const std::string& path, const graph::Graph& g,
                                const OpenOptions& opts = {});

/// Converts a legacy VCNIDX02-04 stream container for `g` into the
/// version-7 container a fresh save of the same index writes: the legacy
/// stream load (fully validated, graph shape- and tag-checked) followed by
/// save_oracle(). Refuses a version-5, -6 or -7 input — the loaders open
/// them, so there is nothing to upgrade — and every other version with the
/// loaders' errors.
void upgrade_index(std::istream& legacy, const graph::Graph& g,
                   std::ostream& out);

/// load_oracle() wrapped in the AnyOracle adapter (mutable, so
/// apply_update works through QueryEngine). The returned oracle keeps `g`
/// by reference; `g` must outlive it.
std::shared_ptr<AnyOracle> load_any_oracle(std::istream& in,
                                           const graph::Graph& g);
std::shared_ptr<AnyOracle> load_any_oracle_file(const std::string& path,
                                                const graph::Graph& g,
                                                const OpenOptions& opts = {});

// ---- Header-only inspection (vicinity_cli `index info`) -------------------

struct IndexSectionInfo {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t elem_size = 0;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// A legacy VCNIDX02-04 file reports only version and backend; every other
/// field describes a version-5 to -7 region container.
struct IndexFileInfo {
  int version = 0;
  std::string backend;  ///< "vicinity" | "vicinity-directed"
  std::uint64_t file_bytes = 0;
  /// Versions 5-7; false for a legacy stream container.
  bool mappable = false;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_arcs = 0;
  bool directed = false;
  bool weighted = false;
  double alpha = 0.0;
  std::string store_backend;  ///< "packed"
  std::string table_mode;     ///< "none" | "full" | "subset"
  std::vector<IndexSectionInfo> sections;
};

/// Reads only the header and the section table, through the loaders'
/// O(section count) structural validation — never the section payloads, so
/// inspecting a multi-GB index touches a few pages. Throws
/// std::runtime_error on unreadable or corrupt headers and tables.
IndexFileInfo inspect_index_file(const std::string& path);

}  // namespace vicinity::core
