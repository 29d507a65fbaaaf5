// Differential test of the one goodness primitive, Network::good_masks:
// on meshes, tori, hypercubes and a topology that keeps the base probe, the
// batch masks must equal Definition 5 evaluated from neighbor() and
// distance() alone — over randomized (position, destination) pairs that
// include the at == dst case. Everything the engine and the analysis know
// about goodness (restricted, Type A, advances) is derived from these
// masks.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "test_support.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/network.hpp"
#include "topology/types.hpp"
#include "util/rng.hpp"

namespace hp::net {
namespace {

/// Definition 5, straight from the model: direction d is good iff its arc
/// exists and enters a node strictly closer to `dst`.
std::uint32_t definition5(const Network& net, NodeId at, NodeId dst) {
  std::uint32_t mask = 0;
  const int here = net.distance(at, dst);
  for (Dir d = 0; d < net.num_dirs(); ++d) {
    const NodeId nb = net.neighbor(at, d);
    if (nb != kInvalidNode && net.distance(nb, dst) < here) {
      mask |= std::uint32_t{1} << d;
    }
  }
  return mask;
}

/// Checks one good_masks() batch over `at`/`dst` against definition5().
void expect_batch_matches(const Network& net, const std::vector<NodeId>& at,
                          const std::vector<NodeId>& dst) {
  std::vector<std::uint32_t> batch(at.size());
  net.good_masks(at.data(), dst.data(), batch.data(), at.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    ASSERT_EQ(batch[i], definition5(net, at[i], dst[i]))
        << net.name() << " at=" << at[i] << " dst=" << dst[i];
    if (at[i] == dst[i]) {
      ASSERT_EQ(batch[i], 0u) << "arrived packets have no good direction";
    }
  }
}

/// `count` random pairs, every 16th forced to at == dst.
void expect_matches_definition5(const Network& net, std::uint64_t seed,
                                std::size_t count = 512) {
  Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(net.num_nodes());
  std::vector<NodeId> at(count);
  std::vector<NodeId> dst(count);
  for (std::size_t i = 0; i < count; ++i) {
    at[i] = static_cast<NodeId>(rng.uniform(n));
    dst[i] = (i % 16 == 0) ? at[i] : static_cast<NodeId>(rng.uniform(n));
  }
  expect_batch_matches(net, at, dst);
}

/// Every (at, dst) pair of the network, no sampling at all.
void expect_exhaustive_match(const Network& net) {
  const auto n = static_cast<NodeId>(net.num_nodes());
  std::vector<NodeId> at;
  std::vector<NodeId> dst;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      at.push_back(a);
      dst.push_back(b);
    }
  }
  expect_batch_matches(net, at, dst);
}

TEST(GoodMaskEquivalence, Mesh2D) {
  expect_matches_definition5(Mesh(2, 7), 0xA11CE1u);
}

TEST(GoodMaskEquivalence, Mesh3D) {
  expect_matches_definition5(Mesh(3, 5), 0xB0B0Bu);
}

TEST(GoodMaskEquivalence, Mesh4DSmallSide) {
  expect_matches_definition5(Mesh(4, 3), 0xC4C4u);
}

TEST(GoodMaskEquivalence, Torus2D) {
  expect_matches_definition5(Mesh(2, 6, /*wrap=*/true), 0xD00Du);
}

TEST(GoodMaskEquivalence, Torus3DOddSide) {
  // Odd side: no antipodal tie on any axis; even side (above) has them.
  expect_matches_definition5(Mesh(3, 5, /*wrap=*/true), 0xE55Eu);
}

TEST(GoodMaskEquivalence, Hypercube) {
  expect_matches_definition5(Hypercube(6), 0xF00Fu);
}

TEST(GoodMaskEquivalence, HypercubeMaxDim) {
  expect_matches_definition5(Hypercube(10), 0xFACEu);
}

TEST(GoodMaskEquivalence, ExhaustiveTinyMesh) {
  expect_exhaustive_match(Mesh(2, 3));
  expect_exhaustive_match(Mesh(2, 3, /*wrap=*/true));
}

TEST(GoodMaskEquivalence, ExhaustiveSmallHypercubes) {
  for (const int dim : {1, 2, 3, 4}) expect_exhaustive_match(Hypercube(dim));
}

TEST(GoodMaskEquivalence, BaseProbeOnDoublingRing) {
  expect_exhaustive_match(test::DoublingRing{});
}

TEST(GoodDirs, MeshOverrideMatchesDefinition) {
  expect_matches_definition5(Mesh(2, 9), 1);
  expect_matches_definition5(Mesh(3, 4), 2);
  expect_matches_definition5(Mesh(1, 6), 3);
}

TEST(GoodDirs, TorusOverrideMatchesDefinition) {
  // Even sides have antipodal ties, where both directions of an axis are
  // good; side 2 makes + and − reach the same node.
  expect_matches_definition5(Mesh(2, 8, /*wrap=*/true), 3);
  expect_matches_definition5(Mesh(2, 7, /*wrap=*/true), 4);
  expect_matches_definition5(Mesh(3, 5, /*wrap=*/true), 5);
  expect_exhaustive_match(Mesh(2, 2, /*wrap=*/true));
}

TEST(GoodDirs, HypercubeOverrideMatchesDefinition) {
  expect_matches_definition5(Hypercube(6), 6);
}

TEST(GoodDirs, HelpersExpandTheBatchMask) {
  // good_mask() and good_dirs() are thin non-virtual views of good_masks():
  // one packet, and the mask's bits in ascending direction order.
  const Mesh torus(2, 8, /*wrap=*/true);
  const NodeId at = torus.node_at(test::xy(0, 0));
  const NodeId dst = torus.node_at(test::xy(4, 3));
  EXPECT_EQ(torus.good_mask(at, dst), definition5(torus, at, dst));
  const DirList dirs = torus.good_dirs(at, dst);
  ASSERT_EQ(dirs.size(), 3u);
  EXPECT_EQ(dirs[0], 0);
  EXPECT_EQ(dirs[1], 1);
  EXPECT_EQ(dirs[2], 2);
}

}  // namespace
}  // namespace hp::net
