// Ground-truth check of sampled wire answers: every sampled reply is
// compared with algo::bfs on the graph as it stood at the reply's epoch,
// rebuilt from the pristine graph by replaying the acknowledged updates in
// epoch order. PATH replies must also be real paths of the reported length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "loadgen.h"

namespace perfbench {

/// An update the server acknowledged; `epoch` is the engine epoch after it.
struct AppliedUpdate {
  std::uint64_t epoch = 0;
  Request req;
};

struct TruthReport {
  std::size_t sources = 0;  ///< BFS runs
  std::size_t answers = 0;  ///< distances compared (paths included)
  std::size_t paths = 0;    ///< paths walked
  std::size_t wrong = 0;
  std::string first_error;
};

/// Checks up to `max_sources` samples, spread evenly over `samples`.
TruthReport check_against_bfs(const vicinity::graph::Graph& pristine,
                              std::vector<AppliedUpdate> log,
                              std::vector<SampledReply> samples,
                              std::size_t max_sources);

}  // namespace perfbench
