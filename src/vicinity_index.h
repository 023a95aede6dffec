// vicinity::Index — the top-level facade and documented quickstart: build
// (or open) a shortest-path index over any supported backend, query it,
// persist it, and stand up a concurrent serving engine — all through one
// backend-agnostic surface (core::AnyOracle underneath).
//
//   #include "vicinity.h"
//   using namespace vicinity;
//
//   util::Rng rng(7);
//   graph::Graph g = gen::powerlaw_cluster(100'000, 9, 0.4, rng);
//   auto index = Index::build(g);        // undirected or directed — the
//                                        // oracle reads it from g
//   auto r = index.distance(12, 3456);   // sub-millisecond, exact
//   auto p = index.path(12, 3456);       // the actual shortest path
//
//   index.save("social.idx");            // offline phase done (§2.1)
//   auto online = Index::open("social.idx", g);
//   core::QueryEngine engine = online.engine(/*threads=*/8);
//   auto results = engine.run_batch(queries);
//
// Capability probing (core/any_oracle.h) replaces downcasting: a baseline
// estimator adopted via Index::adopt() serves distance queries through the
// exact same engine but refuses path()/apply_update()/save() with
// CapabilityError.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/any_oracle.h"
#include "core/options.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vicinity {

class Index {
 public:
  /// Builds the vicinity oracle for `g` (one vicinity family when `g` is
  /// undirected, out- and in-vicinities when directed). The graph must
  /// outlive the index.
  static Index build(const graph::Graph& g,
                     const core::OracleOptions& options = {});

  /// Loads a persisted VCNIDX05/06 index (either backend tag) against the
  /// graph it was built on. It is memory-mapped by default
  /// (core::OpenMode::kMapped) — pass {.mode = core::OpenMode::kHeap} to
  /// force an owned heap copy, or set opts.verify to deep-validate the
  /// mapped arenas up front. A legacy VCNIDX02-04 file is refused with a
  /// runtime_error naming `vicinity_cli index upgrade`.
  static Index open(const std::string& path, const graph::Graph& g,
                    const core::OpenOptions& opts = {});
  static Index open(std::istream& in, const graph::Graph& g);

  /// Wraps an already-built backend (e.g. a baseline adapter from
  /// baselines/baseline_adapters.h, or a concrete oracle through
  /// core::make_any_oracle). Throws std::invalid_argument on null.
  static Index adopt(std::shared_ptr<core::AnyOracle> oracle);

  /// Persists the index in the backend-tagged container. Refuses with
  /// CapabilityError when the backend lacks Capability::kPersistable.
  void save(const std::string& path) const;
  void save(std::ostream& out) const;

  core::Capabilities capabilities() const { return oracle_->capabilities(); }
  bool can(core::Capability c) const { return capabilities().has(c); }
  const char* backend_name() const { return oracle_->backend_name(); }
  const graph::Graph& graph() const { return oracle_->graph(); }
  core::OracleMemoryStats memory_stats() const {
    return oracle_->memory_stats();
  }

  /// The type-erased backend; shared_oracle() for callers wiring their own
  /// serving layers.
  const core::AnyOracle& oracle() const { return *oracle_; }
  std::shared_ptr<core::AnyOracle> shared_oracle() const { return oracle_; }

  /// Typed escape hatches for introspection (build stats, landmark sets);
  /// null unless the backend is a vicinity oracle on an undirected (resp.
  /// directed) graph. Behavioral dispatch should probe capabilities()
  /// instead.
  const core::VicinityOracle* undirected() const {
    return oracle_->as_undirected();
  }
  const core::VicinityOracle* directed() const {
    return oracle_->as_directed();
  }

  /// Concurrent serving engine sharing this index (updates through
  /// engine.apply_update() are visible to every handle sharing the oracle).
  /// threads == 0 selects hardware concurrency.
  core::QueryEngine engine(unsigned threads = 0) const;

  /// engine() with full options — notably the hot-pair result cache
  /// (QueryEngineOptions::enable_cache + cache sizing).
  core::QueryEngine engine(const core::QueryEngineOptions& options) const;

  /// Convenience queries through an internal mutex-guarded context — safe
  /// from any thread but serialized; concurrent callers should use engine()
  /// or AnyOracle with one QueryContext per thread.
  core::QueryResult distance(NodeId s, NodeId t) const;
  core::PathResult path(NodeId s, NodeId t) const;

  /// One edge mutation + in-place index repair (Capability::kUpdatable).
  /// NOT fenced against concurrent queries: the caller must quiesce every
  /// query path into the shared oracle — this Index's distance()/path(),
  /// caller-owned contexts, and any engine() batches — while an update is
  /// in flight. QueryEngine::apply_update fences only that engine's own
  /// run_batch() traffic; route all serving through one engine to get the
  /// epoch-fenced contract.
  core::UpdateStats apply_update(graph::Graph& g,
                                 const core::GraphUpdate& update);

 private:
  explicit Index(std::shared_ptr<core::AnyOracle> oracle);

  /// Mutex + context bundle backing the convenience queries. Bundling the
  /// mutex next to the state it guards keeps the GUARDED_BY relation
  /// expressible to the thread-safety analysis; the unique_ptr keeps Index
  /// movable.
  struct ContextSlot {
    util::Mutex mu;
    core::QueryContext ctx VICINITY_GUARDED_BY(mu);
  };

  std::shared_ptr<core::AnyOracle> oracle_;
  std::unique_ptr<ContextSlot> slot_;
};

}  // namespace vicinity
