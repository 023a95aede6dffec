#include "core/query_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vicinity::core {

QueryEngine::QueryEngine(std::shared_ptr<const AnyOracle> oracle,
                         unsigned threads)
    : oracle_(std::move(oracle)), pool_(threads) {
  if (!oracle_) {
    throw std::invalid_argument("QueryEngine: null oracle");
  }
  contexts_.reserve(pool_.thread_count());
  for (unsigned i = 0; i < pool_.thread_count(); ++i) {
    contexts_.push_back(std::make_unique<QueryContext>());
  }
}

QueryEngine::QueryEngine(std::shared_ptr<AnyOracle> oracle, unsigned threads)
    : QueryEngine(std::shared_ptr<const AnyOracle>(oracle), threads) {
  mutable_oracle_ = std::move(oracle);
}

QueryEngine::QueryEngine(std::shared_ptr<const AnyOracle> oracle,
                         const QueryEngineOptions& options)
    : QueryEngine(std::move(oracle), options.threads) {
  if (options.enable_cache) {
    cache_ = std::make_unique<cache::ResultCache>(options.cache);
  }
}

QueryEngine::QueryEngine(std::shared_ptr<AnyOracle> oracle,
                         const QueryEngineOptions& options)
    : QueryEngine(std::shared_ptr<const AnyOracle>(oracle), options) {
  mutable_oracle_ = std::move(oracle);
}

UpdateStats QueryEngine::apply_update(graph::Graph& g,
                                      const GraphUpdate& update) {
  if (!mutable_oracle_) {
    throw std::logic_error(
        "QueryEngine::apply_update: engine serves a const oracle snapshot");
  }
  // The batch lock is the epoch fence: no queries are in flight while the
  // index and graph mutate, and the next batch observes the new epoch.
  const util::MutexLock lock(mu_);
  UpdateStats stats = mutable_oracle_->apply_update(g, update);
  epoch_.fetch_add(1, std::memory_order_release);
  return stats;
}

std::vector<QueryResult> QueryEngine::run_batch(std::span<const Query> queries,
                                                unsigned threads) {
  std::vector<QueryResult> out(queries.size());
  run_batch(queries, out, threads);
  return out;
}

void QueryEngine::run_batch(std::span<const Query> queries,
                            std::span<QueryResult> results, unsigned threads) {
  (void)run_batch_epoch(queries, results, threads);
}

std::uint64_t QueryEngine::run_batch_epoch(std::span<const Query> queries,
                                           std::span<QueryResult> results,
                                           unsigned threads) {
  if (results.size() != queries.size()) {
    throw std::invalid_argument("QueryEngine::run_batch: size mismatch");
  }
  if (queries.empty()) return epoch_.load(std::memory_order_acquire);
  const util::MutexLock lock(mu_);
  // Updates hold mu_ for their whole mutation, so under the lock the epoch
  // is pinned: every query below is answered at exactly this value.
  const std::uint64_t at_epoch = epoch_.load(std::memory_order_acquire);
  // More lanes than queries would allocate contexts that can never receive
  // work (contexts_ persists for the engine's lifetime), so cap at the
  // batch size; chunking never changes the answers, only who computes them.
  const unsigned lanes = static_cast<unsigned>(
      std::min<std::size_t>(threads == 0 ? pool_.thread_count() : threads,
                            queries.size()));
  while (contexts_.size() < lanes) {
    contexts_.push_back(std::make_unique<QueryContext>());
  }
  // Per-lane context pointers, snapshotted while mu_ is held. The worker
  // lambdas execute on pool threads, where the analysis cannot see that
  // this frame keeps mu_ locked for the whole dispatch — and the old
  // `contexts_[lane]` access from the lambda was exactly the unverifiable
  // shape the annotations exist to flush out. Each lane gets its pointer up
  // front; the guarded vector never crosses into the workers.
  std::vector<QueryContext*> lane_ctx(lanes);
  for (unsigned i = 0; i < lanes; ++i) lane_ctx[i] = contexts_[i].get();
  const AnyOracle& oracle = *oracle_;
  // One query, cache-aware. The epoch is pinned for the whole batch (mu_ is
  // held), so a cache hit tagged at_epoch is exactly the answer the oracle
  // would produce right now — including method/exactness/probe accounting,
  // which the hit replays into the lane's stats. Misses go to the oracle
  // (which records its own stats) and fill the cache on the way out.
  cache::ResultCache* const cache = cache_.get();
  const auto serve = [&oracle, cache, at_epoch, queries, results](
                         std::size_t i, QueryContext& ctx) {
    const Query q = queries[i];
    if (cache != nullptr) {
      QueryResult r;
      if (cache->lookup(q.s, q.t, at_epoch, r)) {
        ctx.stats().record(r);
        results[i] = r;
        return;
      }
      results[i] = oracle.distance(q.s, q.t, ctx);
      cache->insert(q.s, q.t, at_epoch, results[i]);
      return;
    }
    results[i] = oracle.distance(q.s, q.t, ctx);
  };
  if (lanes == 1) {
    QueryContext& ctx = *lane_ctx[0];
    for (std::size_t i = 0; i < queries.size(); ++i) serve(i, ctx);
    return at_epoch;
  }
  // Static contiguous balanced chunking, one context per lane. Each query
  // is independent and deterministic against the immutable index, so the
  // partition never changes the answers — only who computes them. (With the
  // cache on, a duplicated pair inside one batch may be answered by the
  // oracle in two lanes instead of one hitting the other's fill; both
  // produce the identical QueryResult, so the answer vector is still
  // bit-identical across thread counts.)
  // parallel_for_ranges rethrows the first worker exception.
  pool_.parallel_for_ranges(
      queries.size(), lanes,
      [&lane_ctx, &serve](std::uint64_t lo, std::uint64_t hi, unsigned lane) {
        QueryContext& ctx = *lane_ctx[lane];
        for (std::uint64_t i = lo; i < hi; ++i) serve(i, ctx);
      });
  return at_epoch;
}

QueryStats QueryEngine::stats() const {
  const util::MutexLock lock(mu_);
  QueryStats total;
  for (const auto& ctx : contexts_) total.merge(ctx->stats());
  return total;
}

void QueryEngine::reset_stats() {
  const util::MutexLock lock(mu_);
  for (auto& ctx : contexts_) ctx->reset_stats();
}

}  // namespace vicinity::core
