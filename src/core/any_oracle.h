// AnyOracle — the backend-agnostic online-phase contract. The paper's online
// phase is one interface: answer d(s, t) (and optionally the path) from a
// prebuilt index (§2.1). This header erases the concrete index type behind
// that contract so serving (QueryEngine), persistence (core/serialize.h) and
// the vicinity::Index facade work identically for:
//
//   * VicinityOracle  (exact, paths, updatable; directed when built on a
//                      directed graph)
//   * the related-work baselines (TZ / sketches / landmarks) via
//     baselines/baseline_adapters.h (approximate, distance-only)
//
// Callers probe a Capabilities bitset instead of downcasting: an operation a
// backend cannot perform (path() on a distance-only estimator, apply_update()
// on a frozen snapshot, save() on a baseline) fails with CapabilityError —
// a typed, documented refusal rather than a template error or silent wrong
// answer. Per-query exactness is still reported per result: QueryResult::
// exact is the ground truth for one answer; Capability::kExact describes the
// backend's guarantee for resolved queries as a whole.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/dynamic.h"
#include "core/oracle.h"

namespace vicinity::core {

/// One probe-able property of a backend.
enum class Capability : std::uint8_t {
  kExact = 1 << 0,      ///< resolved answers are exact shortest-path lengths
                        ///< (modulo per-result QueryResult::exact flags for
                        ///< configured estimate fallbacks)
  kPaths = 1 << 1,      ///< path(s, t, ctx) retrieves an actual path
  kUpdatable = 1 << 2,  ///< apply_update() repairs the index in place
  kDirected = 1 << 3,   ///< index answers d(s -> t) on a directed graph
  kPersistable = 1 << 4,  ///< save() writes the backend-tagged container
};

const char* to_string(Capability c);

/// Small value-type bitset over Capability. Probe with has(); the paper's
/// query contract (distance) needs no capability — every backend has it.
class Capabilities {
 public:
  constexpr Capabilities() = default;

  constexpr bool has(Capability c) const {
    return (bits_ & static_cast<std::uint8_t>(c)) != 0;
  }
  constexpr Capabilities& set(Capability c) {
    bits_ |= static_cast<std::uint8_t>(c);
    return *this;
  }
  constexpr bool operator==(const Capabilities&) const = default;

  /// "exact|paths|updatable" — for logs, error messages and docs.
  std::string to_string() const;

 private:
  std::uint8_t bits_ = 0;
};

/// Thrown when an operation needs a capability the backend lacks. Derives
/// std::logic_error: using a backend beyond its contract is a programming
/// error, and callers that probed capabilities() first never see it.
class CapabilityError : public std::logic_error {
 public:
  CapabilityError(const std::string& what, Capability missing)
      : std::logic_error(what), missing_(missing) {}
  Capability missing() const { return missing_; }

 private:
  Capability missing_;
};

/// The type-erased oracle interface. Thread-safety contract matches the
/// concrete oracles: the backend is shared-immutable under distance()/path()
/// (all mutable per-query state lives in the caller's QueryContext, one per
/// thread), while apply_update() mutates and must be fenced from queries by
/// the caller (QueryEngine does this with its batch lock).
class AnyOracle {
 public:
  virtual ~AnyOracle() = default;

  /// Stable short name ("vicinity", "vicinity-directed", "tz", ...).
  virtual const char* backend_name() const = 0;
  virtual Capabilities capabilities() const = 0;
  /// The graph the index was built on (never null; outlives the oracle).
  virtual const graph::Graph& graph() const = 0;

  /// Distance query. Every backend supports it; approximate backends mark
  /// results via QueryResult::exact and the kBaseline* methods. Records
  /// into ctx.stats() exactly like the concrete oracles.
  virtual QueryResult distance(NodeId s, NodeId t, QueryContext& ctx) const = 0;

  /// Path retrieval. Default refuses with CapabilityError(kPaths).
  virtual PathResult path(NodeId s, NodeId t, QueryContext& ctx) const;

  /// One edge mutation applied to `g` (the graph the index was built on)
  /// plus in-place index repair. Default refuses with
  /// CapabilityError(kUpdatable).
  virtual UpdateStats apply_update(graph::Graph& g, const GraphUpdate& update);

  /// Writes the backend-tagged VCNIDX container (core/serialize.h). Default
  /// refuses with CapabilityError(kPersistable).
  virtual void save(std::ostream& out) const;

  virtual OracleMemoryStats memory_stats() const = 0;

  // Typed escape hatches for introspection (build stats, landmark lists —
  // things outside the serving contract). Behavioral dispatch must use
  // capabilities(), not these. Null unless the backend is a vicinity
  // oracle built on an undirected (resp. directed) graph.
  virtual const VicinityOracle* as_undirected() const { return nullptr; }
  virtual const VicinityOracle* as_directed() const { return nullptr; }

 protected:
  /// Uniform refusal: throws CapabilityError naming the backend, the
  /// operation and the missing capability.
  [[noreturn]] void refuse(Capability missing, const char* operation) const;
};

/// Adapter factories for the vicinity backend ("vicinity", or
/// "vicinity-directed" with Capability::kDirected when the oracle was built
/// on a directed graph). Wrapping a const pointer yields a frozen snapshot
/// (kUpdatable clear); wrapping a mutable pointer or adopting by value
/// yields an updatable oracle. All throw std::invalid_argument on null.
/// Baseline adapters live in baselines/baseline_adapters.h.
std::shared_ptr<AnyOracle> make_any_oracle(std::shared_ptr<VicinityOracle> o);
std::shared_ptr<const AnyOracle> make_any_oracle(
    std::shared_ptr<const VicinityOracle> o);
std::shared_ptr<AnyOracle> make_any_oracle(VicinityOracle&& o);

}  // namespace vicinity::core
