// Per-layer replay for the traced run: the benchmark's own code times calls
// into each layer's public functions on inputs generated from the run's
// seed — frame codec, oracle, store kernel, result cache, engine batches
// and index updates — so every wire number can be attributed to a layer
// without instrumenting the program.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/any_oracle.h"
#include "core/query_engine.h"
#include "graph/graph.h"
#include "metrics.h"
#include "truth.h"
#include "workload.h"

namespace perfbench {

/// Per-unit results of one oracle replay, kept for the derived layers.
struct OracleReplay {
  std::vector<vicinity::core::Query> units;  ///< DISTANCE(S) units in order
  std::vector<vicinity::core::QueryResult> results;
  std::vector<double> unit_ns;  ///< wall time of each distance() call
};

/// net.protocol.encode_ns / decode_ns over the first frames of `plan`.
void replay_protocol(const Plan& plan, unsigned fanout, MetricSet& out);

/// core.oracle.*: every read unit through AnyOracle::distance on one
/// context (method shares, per-method and percentile times, probes), and
/// PATH reads (or, in a mix without them, 2000 of the units) through
/// AnyOracle::path (core.oracle.path_us).
OracleReplay replay_oracle(const vicinity::core::AnyOracle& oracle,
                           std::span<const Request> reads,
                           const std::vector<NodeId>& targets, unsigned fanout,
                           MetricSet& out);

/// core.store.*: VicinityStore::intersect_min on the intersection-resolved
/// pairs, iterating the side the oracle's cost model picks.
void replay_store(const vicinity::core::VicinityOracle& oracle,
                  const OracleReplay& replay, MetricSet& out);

/// cache.probe_ns: ResultCache::lookup on the replayed unit stream (a
/// private cache of `cache_mb`, filled with the replayed answers).
void replay_cache(const OracleReplay& replay, std::size_t cache_mb,
                  MetricSet& out);

struct BatchTimes {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double units_per_s = 0.0;
};

/// QueryEngine::run_batch_epoch over the replayed units cut into batches
/// of `batch_units` (the served batch size at a rate point).
BatchTimes replay_engine(vicinity::core::QueryEngine& engine,
                         const OracleReplay& replay, std::size_t batch_units);

/// Slowest lane over mean lane per batch, from the measured per-unit times
/// and the engine's contiguous balanced split across `lanes`.
double lane_imbalance(const OracleReplay& replay, std::size_t batch_units,
                      unsigned lanes);

/// core.dynamic.*: each toggle through QueryEngine::apply_update, appending
/// the applied updates (with their epochs) to `log`.
void replay_updates(vicinity::core::QueryEngine& engine,
                    vicinity::graph::Graph& g, std::span<const Request> toggles,
                    MetricSet& out, std::vector<AppliedUpdate>& log);

}  // namespace perfbench
