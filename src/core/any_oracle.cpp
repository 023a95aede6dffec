#include "core/any_oracle.h"

#include <utility>

#include "core/query_engine.h"
#include "core/serialize.h"

namespace vicinity::core {

const char* to_string(Capability c) {
  switch (c) {
    case Capability::kExact: return "exact";
    case Capability::kPaths: return "paths";
    case Capability::kUpdatable: return "updatable";
    case Capability::kDirected: return "directed";
    case Capability::kPersistable: return "persistable";
  }
  return "?";
}

std::string Capabilities::to_string() const {
  std::string out;
  for (const Capability c :
       {Capability::kExact, Capability::kPaths, Capability::kUpdatable,
        Capability::kDirected, Capability::kPersistable}) {
    if (!has(c)) continue;
    if (!out.empty()) out += '|';
    out += core::to_string(c);
  }
  return out.empty() ? "none" : out;
}

void AnyOracle::refuse(Capability missing, const char* operation) const {
  throw CapabilityError(
      std::string(backend_name()) + ": " + operation +
          " requires capability '" + core::to_string(missing) +
          "' (backend capabilities: " + capabilities().to_string() + ")",
      missing);
}

PathResult AnyOracle::path(NodeId, NodeId, QueryContext&) const {
  refuse(Capability::kPaths, "path()");
}

UpdateStats AnyOracle::apply_update(graph::Graph&, const GraphUpdate&) {
  refuse(Capability::kUpdatable, "apply_update()");
}

void AnyOracle::save(std::ostream&) const {
  refuse(Capability::kPersistable, "save()");
}

namespace {

/// The vicinity oracle behind AnyOracle: `ro` is the query handle, `rw`
/// the same object when updates are allowed (null for frozen snapshots).
class VicinityAdapter final : public AnyOracle {
 public:
  VicinityAdapter(std::shared_ptr<const VicinityOracle> ro,
                  std::shared_ptr<VicinityOracle> rw)
      : ro_(std::move(ro)), rw_(std::move(rw)) {
    if (!ro_) throw std::invalid_argument("make_any_oracle: null oracle");
  }

  const char* backend_name() const override {
    return ro_->directed() ? "vicinity-directed" : "vicinity";
  }

  Capabilities capabilities() const override {
    Capabilities c;
    c.set(Capability::kExact)
        .set(Capability::kPaths)
        .set(Capability::kPersistable);
    if (ro_->directed()) c.set(Capability::kDirected);
    // apply_update additionally requires a full index (build(), not
    // build_for()) — capabilities() must predict the refusal, not let a
    // probed caller hit a logic_error.
    if (rw_ &&
        ro_->indexed_nodes().size() == ro_->graph().num_nodes()) {
      c.set(Capability::kUpdatable);
    }
    return c;
  }

  const graph::Graph& graph() const override { return ro_->graph(); }

  QueryResult distance(NodeId s, NodeId t, QueryContext& ctx) const override {
    return ro_->distance(s, t, ctx);
  }

  PathResult path(NodeId s, NodeId t, QueryContext& ctx) const override {
    return ro_->path(s, t, ctx);
  }

  UpdateStats apply_update(graph::Graph& g,
                           const GraphUpdate& update) override {
    if (!capabilities().has(Capability::kUpdatable)) {
      refuse(Capability::kUpdatable, "apply_update()");
    }
    return rw_->apply_update(g, update);
  }

  void save(std::ostream& out) const override { save_oracle(*ro_, out); }

  OracleMemoryStats memory_stats() const override {
    return ro_->memory_stats();
  }

  const VicinityOracle* as_undirected() const override {
    return ro_->directed() ? nullptr : ro_.get();
  }
  const VicinityOracle* as_directed() const override {
    return ro_->directed() ? ro_.get() : nullptr;
  }

 private:
  std::shared_ptr<const VicinityOracle> ro_;
  std::shared_ptr<VicinityOracle> rw_;
};

}  // namespace

std::shared_ptr<AnyOracle> make_any_oracle(std::shared_ptr<VicinityOracle> o) {
  return std::make_shared<VicinityAdapter>(o, o);
}

std::shared_ptr<const AnyOracle> make_any_oracle(
    std::shared_ptr<const VicinityOracle> o) {
  return std::make_shared<VicinityAdapter>(std::move(o), nullptr);
}

std::shared_ptr<AnyOracle> make_any_oracle(VicinityOracle&& o) {
  return make_any_oracle(std::make_shared<VicinityOracle>(std::move(o)));
}

}  // namespace vicinity::core
