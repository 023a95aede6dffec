// QueryEngine — concurrent batch-query serving on top of any built oracle
// backend (the paper's §5 parallelization question, answered the way
// production route/path servers do it: one immutable shared index, one
// mutable context per worker).
//
// The engine serves through the type-erased core::AnyOracle interface
// (core/any_oracle.h), so batch serving, epoch-fenced updates and
// QueryStats work identically for the vicinity oracle (either graph kind)
// and the baseline estimators; operations a backend cannot perform fail
// with CapabilityError at the call, not with a template error at compile
// time against only one concrete type. Concrete oracles are wrapped with
// core::make_any_oracle first.
//
// Thread-safety contract:
//   * Shared-immutable: the graph, the vicinity store, the landmark tables
//     and every other byte of a built oracle. Queries through the const
//     context-taking overloads never mutate the oracle.
//   * Per-context mutable: fallback bidirectional-search scratch (visit
//     stamps, frontiers, heaps) and QueryStats accumulation live in
//     QueryContext.
//     A context must not be used by two threads at once; contexts are
//     reusable across any number of queries with zero per-query allocation
//     on the hot path.
//
// The engine owns a persistent ThreadPool and one QueryContext per worker
// slot, so run_batch() dispatches onto warm threads instead of rebuilding a
// pool per call. Results are deterministic: for a fixed oracle the answer
// vector is bit-identical for every thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/bidirectional_bfs.h"
#include "cache/result_cache.h"
#include "core/any_oracle.h"
#include "core/dynamic.h"
#include "core/oracle.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace vicinity::core {

/// One point-to-point distance request.
struct Query {
  NodeId s = 0;
  NodeId t = 0;
};

/// Engine construction knobs beyond the oracle itself.
struct QueryEngineOptions {
  /// Worker pool size; 0 selects hardware concurrency.
  unsigned threads = 0;
  /// Hot-pair result cache in front of the oracle (cache/result_cache.h).
  /// Off by default: with it on, run_batch answers repeated (s, t) pairs
  /// from a single hash probe instead of re-running the oracle. Results
  /// stay bit-identical — entries carry the full QueryResult and are keyed
  /// by the batch epoch, so apply_update() invalidates them lazily.
  bool enable_cache = false;
  cache::ResultCacheOptions cache;
};

/// Per-context (and mergeable) query accounting: how a slice of traffic was
/// answered. Mirrors Table 3's resolution-method mix at serving time.
struct QueryStats {
  std::uint64_t queries = 0;
  std::uint64_t exact = 0;
  std::uint64_t hash_lookups = 0;
  std::array<std::uint64_t, kNumQueryMethods> by_method{};

  void record(const QueryResult& r) {
    ++queries;
    exact += r.exact ? 1 : 0;
    hash_lookups += r.hash_lookups;
    ++by_method[static_cast<std::size_t>(r.method)];
  }

  void merge(const QueryStats& other) {
    queries += other.queries;
    exact += other.exact;
    hash_lookups += other.hash_lookups;
    for (std::size_t i = 0; i < by_method.size(); ++i) {
      by_method[i] += other.by_method[i];
    }
  }

  std::uint64_t method_count(QueryMethod m) const {
    return by_method[static_cast<std::size_t>(m)];
  }
};

/// Per-thread mutable query state: exact-fallback search scratch plus stats.
/// Create one per worker (QueryEngine does this internally; callers running
/// their own threads use VicinityOracle::distance(s, t, ctx) with one
/// context per thread). Default-constructed contexts size their scratch
/// lazily on the first fallback search.
class QueryContext {
 public:
  QueryContext() = default;

  QueryStats& stats() { return stats_; }
  const QueryStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueryStats{}; }

  /// Heap footprint of the scratch (0 until the first exact fallback).
  std::size_t memory_bytes() const { return scratch_.memory_bytes(); }

 private:
  friend class VicinityOracle;

  algo::BidirBfsScratch scratch_;
  QueryStats stats_;
};

/// Concurrent batch-query server. Construction is cheap relative to oracle
/// build: it spawns the worker pool once and allocates one context per
/// worker slot. run_batch() is internally serialized (one batch at a time);
/// single queries through oracle().distance(s, t, ctx) need no lock at all.
///
/// Epoch/consistency contract for dynamic updates: the engine carries a
/// monotonically increasing epoch(), advanced once per apply_update().
/// Updates take the same exclusive lock as batches, so an update lands
/// strictly between batches — every query of one run_batch() call sees one
/// epoch of the index, and for a fixed epoch the answer vector stays
/// bit-identical across thread counts. apply_update() requires an engine
/// constructed over a mutable AnyOracle (make_any_oracle of a
/// shared_ptr<VicinityOracle> or of an oracle adopted by value); engines
/// over const oracles serve frozen snapshots and refuse updates.
class QueryEngine {
 public:
  /// Serves queries against any backend through the type-erased interface.
  /// The const overload serves a frozen snapshot (apply_update() refuses);
  /// the mutable overload allows apply_update() when the backend supports
  /// it. threads == 0 selects hardware concurrency.
  explicit QueryEngine(std::shared_ptr<const AnyOracle> oracle,
                       unsigned threads = 0);
  explicit QueryEngine(std::shared_ptr<AnyOracle> oracle,
                       unsigned threads = 0);

  /// Options-taking overloads: same const/mutable split, plus the result
  /// cache when options.enable_cache is set.
  QueryEngine(std::shared_ptr<const AnyOracle> oracle,
              const QueryEngineOptions& options);
  QueryEngine(std::shared_ptr<AnyOracle> oracle,
              const QueryEngineOptions& options);

  unsigned thread_count() const { return pool_.thread_count(); }

  /// The backend being served. Single queries go through
  /// oracle().distance(s, t, ctx) / path(s, t, ctx) on a caller-owned
  /// context. Probe oracle().capabilities() for what it supports;
  /// as_undirected()/as_directed() expose the concrete oracles for
  /// introspection.
  const AnyOracle& oracle() const { return *oracle_; }
  Capabilities capabilities() const { return oracle_->capabilities(); }

  /// Answers queries[i] into the returned vector's slot i. threads == 0
  /// uses every pool worker; smaller values restrict the batch to that many
  /// concurrent lanes (larger values are allowed — extra lanes queue).
  /// Results are identical for every `threads` value. Rethrows the first
  /// exception a worker raised (e.g. out-of-range node ids).
  std::vector<QueryResult> run_batch(std::span<const Query> queries,
                                     unsigned threads = 0)
      VICINITY_EXCLUDES(mu_);

  /// In-place variant: results.size() must equal queries.size().
  void run_batch(std::span<const Query> queries,
                 std::span<QueryResult> results, unsigned threads = 0)
      VICINITY_EXCLUDES(mu_);

  /// In-place batch that also reports the epoch it ran at, read under the
  /// batch lock — so a serving layer coalescing network requests can stamp
  /// every answer of the batch with the exact index version that produced
  /// it (a post-hoc epoch() read could race a concurrent apply_update()).
  std::uint64_t run_batch_epoch(std::span<const Query> queries,
                                std::span<QueryResult> results,
                                unsigned threads = 0) VICINITY_EXCLUDES(mu_);

  /// Applies one edge mutation to `g` (the graph the oracle was built on)
  /// and repairs the oracle in place (AnyOracle::apply_update), fenced from
  /// batches by the engine lock and advancing epoch() by one. Safe to call
  /// from any thread, including concurrently with run_batch() — the update
  /// waits for the in-flight batch and the next batch sees the new epoch.
  /// Throws std::logic_error when the engine was constructed over a const
  /// oracle, and CapabilityError (a logic_error) when the backend lacks
  /// Capability::kUpdatable. Caller-owned QueryContext queries issued
  /// outside run_batch()/apply_update() are NOT fenced and must be quiesced
  /// by the caller while an update is in flight.
  UpdateStats apply_update(graph::Graph& g, const GraphUpdate& update)
      VICINITY_EXCLUDES(mu_);

  /// Number of updates applied so far; every batch is served entirely at
  /// one epoch.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Aggregated statistics over everything this engine has served.
  QueryStats stats() const VICINITY_EXCLUDES(mu_);
  void reset_stats() VICINITY_EXCLUDES(mu_);

  /// The hot-pair result cache, or null when the engine was constructed
  /// without one (the default). Batch queries probe it before the oracle;
  /// single queries through oracle() never touch it (those are unfenced,
  /// so no batch-lock-pinned epoch exists to key by). Mutable
  /// access is for benchmarks (clear(), reset_counters()); the cache's own
  /// sharded locks make that safe concurrently with batches.
  cache::ResultCache* result_cache() const { return cache_.get(); }

 private:
  std::shared_ptr<const AnyOracle> oracle_;
  /// Same object as oracle_ when constructed mutable; null for engines over
  /// const snapshots (apply_update then throws).
  std::shared_ptr<AnyOracle> mutable_oracle_;
  util::ThreadPool pool_;
  /// Serializes batches/updates and guards contexts_. The worker lambdas of
  /// a batch run on pool threads while this thread keeps mu_ held for the
  /// whole dispatch — run_batch hands each lane its raw context pointer
  /// instead of sharing the guarded vector (see the snapshot there).
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<QueryContext>> contexts_
      VICINITY_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> epoch_{0};
  /// Hot-pair cache (null unless QueryEngineOptions::enable_cache). Guarded
  /// internally by its own sharded locks, not by mu_: batch workers probe
  /// and fill it concurrently while this thread holds mu_ for the dispatch.
  std::unique_ptr<cache::ResultCache> cache_;
};

}  // namespace vicinity::core
