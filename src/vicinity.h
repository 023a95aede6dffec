// Umbrella header for libvicinity — a reproduction of "Shortest Paths in
// Less Than a Millisecond" (Agarwal, Caesar, Godfrey, Zhao; WOSN'12).
//
// Quick start — one facade for every backend (vicinity_index.h):
//
//   #include "vicinity.h"
//   using namespace vicinity;
//
//   util::Rng rng(7);
//   graph::Graph g = gen::powerlaw_cluster(100'000, 9, 0.4, rng);
//   auto index = Index::build(g);        // undirected or directed: the
//                                        // oracle reads it from g
//   auto r = index.distance(12, 3456);   // sub-millisecond, exact
//   auto p = index.path(12, 3456);       // the actual shortest path
//
//   index.save("social.idx");            // offline phase done (§2.1)
//   auto online = Index::open("social.idx", g);   // online phase: restart
//   auto engine = online.engine(8);               // concurrent serving
//   auto results = engine.run_batch(queries);     // + epoch-fenced updates
//
// Every backend — the vicinity oracle (one class for undirected and
// directed graphs) and the TZ, sketch and landmark baselines — serves
// through the same type-erased core::AnyOracle contract
// (core/any_oracle.h); probe capabilities() (exact / paths / updatable /
// directed / persistable) instead of downcasting. The concrete classes
// (core::VicinityOracle, ...) stay available for direct use.
//
// See README.md for the architecture overview and bench/ for the
// experiment harness that regenerates the paper's tables and figures.
#pragma once

#include "algo/alt.h"
#include "algo/bfs.h"
#include "algo/bidirectional_bfs.h"
#include "algo/bidirectional_dijkstra.h"
#include "algo/dijkstra.h"
#include "algo/naive_bidirectional_bfs.h"
#include "algo/path.h"
#include "baselines/baseline_adapters.h"
#include "baselines/landmark_est.h"
#include "baselines/sketch_oracle.h"
#include "baselines/tz_oracle.h"
#include "cache/result_cache.h"
#include "core/any_oracle.h"
#include "core/dist_column.h"
#include "core/dynamic.h"
#include "core/index_format.h"
#include "core/landmark_table.h"
#include "core/landmarks.h"
#include "core/options.h"
#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "core/vicinity_builder.h"
#include "core/vicinity_store.h"
#include "gen/affiliation.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/powerlaw_cluster.h"
#include "gen/profiles.h"
#include "gen/rmat.h"
#include "gen/watts_strogatz.h"
#include "graph/builder.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "graph/gstats.h"
#include "graph/io.h"
#include "graph/transform.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/ring_buffer.h"
#include "net/server.h"
#include "util/bit_vector.h"
#include "util/bucket_queue.h"
#include "util/csv.h"
#include "util/fault_inject.h"
#include "util/flat_hash.h"
#include "util/log.h"
#include "util/mapped_file.h"
#include "util/memory.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/types.h"
#include "util/visit_stamp.h"
#include "vicinity_index.h"
