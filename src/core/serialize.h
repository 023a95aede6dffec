// Oracle persistence: save a built index and reload it against the same
// graph, skipping preprocessing on restart (practically relevant: the paper
// targets "offline phase" / "online phase" deployments, §2.1).
//
// Two container generations share the "VCNIDX" magic + 2 ASCII-digit
// version + backend-tag prefix (0 = vicinity oracle on an undirected graph,
// 1 = on a directed graph, with a second vicinity family):
//
//  * Versions 2-4 are STREAM containers: a length-prefixed field sequence
//    copied into owned vectors on load. Nothing writes them any more; they
//    keep loading via the legacy stream path, including files whose store
//    body is one of the retired per-node hash layouts (those are rebuilt
//    into the packed store and pack()ed on load).
//  * Version 5 is a REGION container (core/index_format.h): fixed header,
//    section table, 64-byte-aligned sections whose file bytes equal the
//    in-memory arrays. Every save writes version 5, which loads either
//    zero-copy via util::MappedFile — the oracle's spans alias the
//    mapping, so a multi-GB index opens in milliseconds and server
//    processes share one physical copy — or into owned heap storage
//    (OpenMode::kHeap). Mutating a mapped oracle (apply_update)
//    transparently copies on write.
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

/// How the file loaders bring a VCNIDX05 region container into memory.
/// Stream containers (versions 2-4) always load onto the heap.
enum class OpenMode {
  kAuto,    ///< mmap region containers, stream-load the rest (the default)
  kMapped,  ///< require mmap; a pre-v5 stream container is an error
  kHeap,    ///< always copy into owned heap storage
};

struct OpenOptions {
  OpenMode mode = OpenMode::kAuto;
  /// Deep-validate the packed arenas on a *mapped* open: member/parent id
  /// ranges, per-group sort order and group disjointness — an
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
/// must outlive the returned oracle. Accepts version-2 through version-5
/// files whose tag matches the graph: undirected on an undirected graph,
/// directed (version 3 and later) on a directed one; a mismatch fails with
/// a versioned "backend mismatch" runtime_error. The stream overload
/// always loads onto the heap (a version-5 stream is slurped and
/// region-parsed).
VicinityOracle load_oracle(std::istream& in, const graph::Graph& g);
VicinityOracle load_oracle_file(const std::string& path, const graph::Graph& g,
                                const OpenOptions& opts = {});

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

struct IndexFileInfo {
  int version = 0;
  std::string backend;  ///< "vicinity" | "vicinity-directed"
  std::uint64_t file_bytes = 0;
  bool mappable = false;  ///< region container (version >= 5)
  std::uint64_t num_nodes = 0;
  std::uint64_t num_arcs = 0;
  bool directed = false;
  bool weighted = false;
  double alpha = 0.0;
  /// "packed"; VCNIDX02-04 files may also record the retired hash layouts
  /// "flat-hash" | "std-unordered-map".
  std::string store_backend;
  std::string table_mode;     ///< "none" | "full" | "subset" (version >= 5)
  std::vector<IndexSectionInfo> sections;  ///< version >= 5 only
};

/// Reads only the header (and, for region containers, the section table) —
/// never the section payloads, so inspecting a multi-GB index is O(1) I/O.
/// Throws std::runtime_error on unreadable or corrupt headers.
IndexFileInfo inspect_index_file(const std::string& path);

}  // namespace vicinity::core
