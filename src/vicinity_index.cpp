#include "vicinity_index.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/oracle.h"
#include "core/serialize.h"

namespace vicinity {

Index::Index(std::shared_ptr<core::AnyOracle> oracle)
    : oracle_(std::move(oracle)), slot_(std::make_unique<ContextSlot>()) {
  if (!oracle_) throw std::invalid_argument("Index: null oracle");
}

Index Index::build(const graph::Graph& g, const core::OracleOptions& options) {
  return Index(core::make_any_oracle(core::VicinityOracle::build(g, options)));
}

Index Index::open(const std::string& path, const graph::Graph& g,
                  const core::OpenOptions& opts) {
  return Index(core::load_any_oracle_file(path, g, opts));
}

Index Index::open(std::istream& in, const graph::Graph& g) {
  return Index(core::load_any_oracle(in, g));
}

Index Index::adopt(std::shared_ptr<core::AnyOracle> oracle) {
  return Index(std::move(oracle));
}

void Index::save(std::ostream& out) const { oracle_->save(out); }

void Index::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  save(f);
}

core::QueryEngine Index::engine(unsigned threads) const {
  return core::QueryEngine(oracle_, threads);
}

core::QueryEngine Index::engine(const core::QueryEngineOptions& options) const {
  return core::QueryEngine(oracle_, options);
}

core::QueryResult Index::distance(NodeId s, NodeId t) const {
  ContextSlot& slot = *slot_;
  const util::MutexLock lock(slot.mu);
  return oracle_->distance(s, t, slot.ctx);
}

core::PathResult Index::path(NodeId s, NodeId t) const {
  ContextSlot& slot = *slot_;
  const util::MutexLock lock(slot.mu);
  return oracle_->path(s, t, slot.ctx);
}

core::UpdateStats Index::apply_update(graph::Graph& g,
                                      const core::GraphUpdate& update) {
  return oracle_->apply_update(g, update);
}

}  // namespace vicinity
