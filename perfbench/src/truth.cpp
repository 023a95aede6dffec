#include "truth.h"

#include <algorithm>
#include <string>

#include "algo/bfs.h"
#include "algo/path.h"

namespace perfbench {

namespace {

std::string describe(const SampledReply& s, NodeId t, std::uint32_t got,
                     std::uint32_t want) {
  return "epoch " + std::to_string(s.epoch) + " d(" + std::to_string(s.req.s) +
         ", " + std::to_string(t) + "): served " + std::to_string(got) +
         ", bfs " + std::to_string(want);
}

}  // namespace

TruthReport check_against_bfs(const vicinity::graph::Graph& pristine,
                              std::vector<AppliedUpdate> log,
                              std::vector<SampledReply> samples,
                              std::size_t max_sources) {
  TruthReport rep;
  if (samples.size() > max_sources && max_sources > 0) {
    std::vector<SampledReply> picked;
    picked.reserve(max_sources);
    for (std::size_t k = 0; k < max_sources; ++k) {
      picked.push_back(std::move(samples[k * samples.size() / max_sources]));
    }
    samples = std::move(picked);
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const SampledReply& a, const SampledReply& b) {
                     return a.epoch < b.epoch;
                   });
  std::sort(log.begin(), log.end(),
            [](const AppliedUpdate& a, const AppliedUpdate& b) {
              return a.epoch < b.epoch;
            });

  vicinity::graph::Graph g = pristine;
  std::size_t applied = 0;
  const auto fail = [&rep](std::string msg) {
    if (rep.wrong++ == 0) rep.first_error = std::move(msg);
  };
  for (const SampledReply& s : samples) {
    while (applied < log.size() && log[applied].epoch <= s.epoch) {
      const Request& u = log[applied++].req;
      if (u.kind == Kind::kInsert) {
        g.add_edge(u.s, u.t);
      } else {
        g.remove_edge(u.s, u.t);
      }
    }
    const vicinity::algo::BfsTree tree = vicinity::algo::bfs(g, s.req.s);
    ++rep.sources;
    const std::vector<NodeId> one{s.req.t};
    const std::vector<NodeId>& targets =
        s.req.kind == Kind::kDistances ? s.targets : one;
    if (targets.size() != s.records.size()) {
      fail("reply carries " + std::to_string(s.records.size()) +
           " records for " + std::to_string(targets.size()) + " targets");
      continue;
    }
    for (std::size_t k = 0; k < targets.size(); ++k) {
      ++rep.answers;
      const auto& rec = s.records[k];
      const std::uint32_t want = tree.dist[targets[k]];
      if (!rec.exact || rec.dist != want) {
        fail(describe(s, targets[k], rec.dist, want));
      }
    }
    if (s.req.kind == Kind::kPath) {
      ++rep.paths;
      const bool walkable =
          vicinity::algo::is_valid_path(g, s.path, s.req.s, s.req.t);
      if (!walkable ||
          vicinity::algo::path_length(g, s.path) != s.records[0].dist) {
        fail("epoch " + std::to_string(s.epoch) + " path(" +
             std::to_string(s.req.s) + ", " + std::to_string(s.req.t) +
             ") is not a shortest path of the reported length");
      }
    }
  }
  return rep;
}

}  // namespace perfbench
