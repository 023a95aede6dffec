// Exhaustive option-matrix sweep: every combination of boundary
// optimization, side selection and fallback must preserve exactness of
// answered queries against BFS ground truth (methods may differ only
// between fallback flavors), both for a fresh build and for a legacy
// VCNIDX04 stream index that records one of the retired hash layouts,
// converted by upgrade_index.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/oracle.h"
#include "core/query_engine.h"
#include "core/serialize.h"
#include "test_support.h"

namespace vicinity::core {
namespace {

/// Where the oracle under test comes from. kBuild is a fresh build. The
/// other two upgrade the checked-in stream golden flat_v04_undirected.idx
/// with its store byte set to one of the retired hash layouts a VCNIDX02-04
/// file may record (0 flat hash, 1 std::unordered_map); its per-slot
/// records convert into the packed store like any other legacy file.
enum class Source : std::uint8_t {
  kFlatStream = 0,
  kStdMapStream = 1,
  kBuild = 2,
};

using MatrixParam =
    std::tuple<Source, bool /*boundary*/, bool /*smaller*/, Fallback>;

// Offset of the store byte in a stream index: header(9) + graph shape(18) +
// alpha(8) + sampling_constant(8) + strategy(1). The boundary-optimization,
// side-selection and fallback bytes follow it.
constexpr std::size_t kStoreByteOffset = 44;

/// The stream golden with its store byte and query options rewritten,
/// converted by upgrade_index and loaded from the VCNIDX07 bytes.
VicinityOracle load_stream_golden(const graph::Graph& g, Source source,
                                  bool boundary, bool smaller,
                                  Fallback fallback) {
  const std::string path =
      std::string(VICINITY_TEST_DATA_DIR) + "/golden/flat_v04_undirected.idx";
  std::ifstream f(path, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(f), {});
  if (bytes.size() <= kStoreByteOffset + 3) {
    throw std::runtime_error("missing golden fixture " + path);
  }
  bytes[kStoreByteOffset] = static_cast<char>(source);
  bytes[kStoreByteOffset + 1] = boundary ? 1 : 0;
  bytes[kStoreByteOffset + 2] = smaller ? 1 : 0;
  bytes[kStoreByteOffset + 3] = static_cast<char>(fallback);
  std::istringstream legacy(bytes, std::ios::binary);
  std::stringstream upgraded(std::ios::in | std::ios::out | std::ios::binary);
  upgrade_index(legacy, g, upgraded);
  return load_oracle(upgraded, g);
}

class OptionsMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(OptionsMatrix, AnsweredQueriesExactUnderAnyConfiguration) {
  const auto [source, boundary, smaller, fallback] = GetParam();
  const bool built = source == Source::kBuild;
  // The stream golden's graph: tests/data/golden/README.md.
  const auto g = built ? testing::random_connected(700, 2800, 1001)
                       : testing::random_connected(140, 460, 9101);
  OracleOptions opt;
  opt.alpha = 2.0;
  opt.seed = 1002;
  opt.use_boundary_optimization = boundary;
  opt.iterate_smaller_side = smaller;
  opt.fallback = fallback;
  auto oracle =
      built ? VicinityOracle::build(g, opt)
            : load_stream_golden(g, source, boundary, smaller, fallback);
  ASSERT_EQ(oracle.options().use_boundary_optimization, boundary);
  ASSERT_EQ(oracle.options().iterate_smaller_side, smaller);
  ASSERT_EQ(oracle.options().fallback, fallback);

  util::Rng rng(1003);
  QueryContext ctx;
  for (int i = 0; i < 120; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto r = oracle.distance(s, t, ctx);
    const auto truth = testing::ref_distance(g, s, t);
    if (r.method == QueryMethod::kNotFound) {
      EXPECT_EQ(fallback, Fallback::kNone);
      continue;
    }
    if (r.exact) {
      ASSERT_EQ(r.dist, truth) << to_string(r.method);
    } else {
      ASSERT_EQ(r.method, QueryMethod::kFallbackEstimate);
      ASSERT_GE(r.dist, truth);  // upper bound
    }
    // Path agrees with distance whenever the method is exact.
    if (r.exact) {
      const auto p = oracle.path(s, t, ctx);
      if (!p.path.empty()) {
        ASSERT_EQ(static_cast<Distance>(p.path.size() - 1), truth);
      }
    }
  }
}

std::string matrix_name(
    const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [source, boundary, smaller, fallback] = info.param;
  std::string s;
  switch (source) {
    case Source::kFlatStream: s += "flat"; break;
    case Source::kStdMapStream: s += "stdmap"; break;
    case Source::kBuild: s += "packed"; break;
  }
  s += boundary ? "_boundary" : "_full";
  s += smaller ? "_smaller" : "_fixed";
  switch (fallback) {
    case Fallback::kNone: s += "_nofb"; break;
    case Fallback::kBidirectionalBfs: s += "_bidifb"; break;
    case Fallback::kLandmarkEstimate: s += "_estfb"; break;
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, OptionsMatrix,
    ::testing::Combine(::testing::Values(Source::kFlatStream,
                                         Source::kStdMapStream,
                                         Source::kBuild),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(Fallback::kNone,
                                         Fallback::kBidirectionalBfs,
                                         Fallback::kLandmarkEstimate)),
    matrix_name);

TEST(OptionsMatrixTest, AllConfigurationsAgreeOnDistances) {
  // Every (boundary, side) configuration answers the same queries by the
  // same method, and every answer is the BFS distance.
  const auto g = testing::random_connected(500, 2000, 1004);
  std::vector<VicinityOracle> oracles;
  for (const bool boundary : {true, false}) {
    for (const bool smaller : {true, false}) {
      OracleOptions opt;
      opt.alpha = 4.0;
      opt.seed = 1005;  // same landmarks everywhere
      opt.use_boundary_optimization = boundary;
      opt.iterate_smaller_side = smaller;
      oracles.push_back(VicinityOracle::build(g, opt));
    }
  }
  util::Rng rng(1006);
  QueryContext ctx;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto truth = testing::ref_distance(g, s, t);
    const auto first = oracles.front().distance(s, t, ctx);
    for (std::size_t k = 0; k < oracles.size(); ++k) {
      const auto r = oracles[k].distance(s, t, ctx);
      ASSERT_EQ(r.method, first.method) << "config " << k;
      if (r.method != QueryMethod::kNotFound) {
        ASSERT_EQ(r.dist, truth) << "config " << k << " " << s << "->" << t;
      }
    }
  }
}

}  // namespace
}  // namespace vicinity::core
