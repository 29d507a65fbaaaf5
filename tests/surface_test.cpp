// Surface-arc machinery tests (Definitions 9 & 11, Figures 3 & 4, Lemma 14).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/surface.hpp"
#include "routing/restricted_priority.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::xy;

std::vector<int> empty_occupancy(const net::Mesh& mesh) {
  return std::vector<int>(mesh.num_nodes(), 0);
}

TEST(Surface, NoBadNodesNoSurface) {
  net::Mesh mesh(2, 6);
  auto occ = empty_occupancy(mesh);
  occ[0] = 2;   // ≤ d = 2: good
  occ[10] = 1;
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.packets_in_bad, 0);
  EXPECT_EQ(snap.packets_in_good, 3);
  EXPECT_EQ(snap.bad_nodes, 0);
  EXPECT_EQ(snap.surface_arcs, 0);
}

TEST(Surface, SingleInteriorBadNodeHasAllSurfaceArcs) {
  // One isolated bad node: every one of its 2d arcs is a surface arc
  // (all 2-neighbors are good).
  net::Mesh mesh(2, 8);
  auto occ = empty_occupancy(mesh);
  occ[static_cast<std::size_t>(mesh.node_at(xy(4, 4)))] = 3;
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.packets_in_bad, 3);
  EXPECT_EQ(snap.bad_nodes, 1);
  EXPECT_EQ(snap.surface_arcs, 4);
}

TEST(Surface, CornerBadNodeCountsOffMeshArcs) {
  // Definition 11: arcs that lead "out of the mesh" count as surface arcs,
  // as do directions whose 2-neighbor does not exist.
  net::Mesh mesh(2, 8);
  auto occ = empty_occupancy(mesh);
  occ[static_cast<std::size_t>(mesh.node_at(xy(0, 0)))] = 3;
  const auto snap = core::analyze_congestion(mesh, occ);
  // 2 missing arcs (west, south) + 2 existing arcs whose 2-neighbors are
  // good ⇒ 4 surface arcs.
  EXPECT_EQ(snap.surface_arcs, 4);
}

TEST(Surface, AdjacentBadNodesStillFullSurface) {
  // Two bad nodes that are direct neighbors are in different parity
  // classes, so neither shields the other: each contributes 2d faces.
  net::Mesh mesh(2, 8);
  auto occ = empty_occupancy(mesh);
  occ[static_cast<std::size_t>(mesh.node_at(xy(4, 4)))] = 3;
  occ[static_cast<std::size_t>(mesh.node_at(xy(5, 4)))] = 3;
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.surface_arcs, 8);
}

TEST(Surface, TwoNeighborBadNodesShieldEachOther) {
  // Bad nodes at 2-neighbor positions (same parity class) share a "face":
  // the arc from each toward the other is NOT a surface arc.
  net::Mesh mesh(2, 8);
  auto occ = empty_occupancy(mesh);
  occ[static_cast<std::size_t>(mesh.node_at(xy(4, 4)))] = 3;
  occ[static_cast<std::size_t>(mesh.node_at(xy(6, 4)))] = 3;
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.surface_arcs, 6);  // 8 arcs minus the two facing ones
}

TEST(Surface, BadBlockScalesLikePerimeter) {
  // A solid square of bad nodes in ONE parity class of side s has
  // volume s² and exactly 4s... faces per class geometry: the class is an
  // (n/2)×(n/2) mesh, a solid s×s square there has perimeter 4s.
  net::Mesh mesh(2, 16);
  auto occ = empty_occupancy(mesh);
  const int s = 3;
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < s; ++j) {
      occ[static_cast<std::size_t>(mesh.node_at(xy(4 + 2 * i, 4 + 2 * j)))] = 4;
    }
  }
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.bad_nodes, s * s);
  EXPECT_EQ(snap.surface_arcs, 4 * s);
  // Lemma 14: F ≥ (2d)^{1/d} B^{(d−1)/d} with B = 4s².
  EXPECT_GE(static_cast<double>(snap.surface_arcs),
            core::lemma14_bound(2, static_cast<double>(snap.packets_in_bad)));
}

/// Definition 11 probed one direction at a time through arc_exists() and
/// two_neighbor(): the count analyze_congestion() takes in closed form.
core::CongestionSnapshot probe_congestion(const net::Mesh& mesh,
                                          const std::vector<int>& occ) {
  const int d = mesh.dim();
  core::CongestionSnapshot snap;
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    const int load = occ[static_cast<std::size_t>(v)];
    if (load <= d) {
      snap.packets_in_good += load;
      continue;
    }
    snap.packets_in_bad += load;
    ++snap.bad_nodes;
    for (net::Dir e = 0; e < mesh.num_dirs(); ++e) {
      const net::NodeId nn = mesh.two_neighbor(v, e);
      if (!mesh.arc_exists(v, e) || nn == net::kInvalidNode ||
          occ[static_cast<std::size_t>(nn)] <= d) {
        ++snap.surface_arcs;
      }
    }
  }
  return snap;
}

TEST(Surface, ClosedFormMatchesPerDirectionProbes) {
  Rng rng(1411);
  for (int dim = 1; dim <= 4; ++dim) {
    for (const int side : {2, 3, 4, 5, 7}) {
      for (const bool wrap : {false, true}) {
        const net::Mesh mesh(dim, side, wrap);
        for (int trial = 0; trial < 6; ++trial) {
          SCOPED_TRACE(mesh.name() + " trial " + std::to_string(trial));
          // Denser occupancies as the trial grows: from isolated bad
          // nodes to nearly every node bad.
          std::vector<int> occ(mesh.num_nodes());
          for (int& load : occ) {
            load = rng.uniform(6) < static_cast<std::uint64_t>(trial)
                       ? static_cast<int>(rng.uniform(2 * dim + 2))
                       : 0;
          }
          const auto got = core::analyze_congestion(mesh, occ);
          const auto want = probe_congestion(mesh, occ);
          EXPECT_EQ(got.packets_in_bad, want.packets_in_bad);
          EXPECT_EQ(got.packets_in_good, want.packets_in_good);
          EXPECT_EQ(got.bad_nodes, want.bad_nodes);
          EXPECT_EQ(got.surface_arcs, want.surface_arcs);
        }
      }
    }
  }
}

TEST(Surface, Lemma14BoundValues) {
  // d = 2: (2·2)^{1/2}·B^{1/2} = 2√B.
  EXPECT_DOUBLE_EQ(core::lemma14_bound(2, 16.0), 8.0);
  EXPECT_DOUBLE_EQ(core::lemma14_bound(2, 0.0), 0.0);
  // d = 3: 6^{1/3}·B^{2/3}.
  EXPECT_NEAR(core::lemma14_bound(3, 8.0), std::cbrt(6.0) * 4.0, 1e-12);
}

TEST(Surface, ThreeDBadNodeFullSurface) {
  net::Mesh mesh(3, 8);
  auto occ = std::vector<int>(mesh.num_nodes(), 0);
  net::Coord c;
  c.push_back(4);
  c.push_back(4);
  c.push_back(4);
  occ[static_cast<std::size_t>(mesh.node_at(c))] = 4;  // > d = 3: bad
  const auto snap = core::analyze_congestion(mesh, occ);
  EXPECT_EQ(snap.surface_arcs, 6);
  EXPECT_EQ(snap.packets_in_bad, 4);
}

TEST(SurfaceTracker, RecordsSeriesAndChecksLemma14) {
  net::Mesh mesh(2, 8);
  Rng rng(77);
  auto problem = workload::random_many_to_many(mesh, 100, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::SurfaceTracker tracker(mesh);
  engine.add_observer(&tracker);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(tracker.b_series().size(), result.steps_executed);
  EXPECT_TRUE(tracker.lemma14_violations().empty());
  // B + G = packets in flight at each step (nonincreasing over time).
  for (std::size_t t = 0; t + 1 < tracker.b_series().size(); ++t) {
    EXPECT_GE(tracker.b_series()[t] + tracker.g_series()[t],
              tracker.b_series()[t + 1] + tracker.g_series()[t + 1]);
  }
  if (tracker.min_lemma14_ratio() !=
      std::numeric_limits<double>::infinity()) {
    EXPECT_GE(tracker.min_lemma14_ratio(), 1.0);
  }
}

TEST(SurfaceTracker, Lemma14HoldsOnThreeDimensionalRuns) {
  net::Mesh mesh(3, 4);
  Rng rng(78);
  auto problem = workload::saturated_random(mesh, 6, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  core::SurfaceTracker tracker(mesh);
  engine.add_observer(&tracker);
  const auto result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(tracker.lemma14_violations().empty());
  // This load guarantees bad nodes exist at t = 0 (some node holds > 3).
  EXPECT_GT(tracker.b_series()[0], 0);
}

TEST(SurfaceTracker, RefusesTorus) {
  net::Mesh torus(2, 8, /*wrap=*/true);
  EXPECT_THROW(core::SurfaceTracker{torus}, CheckError);
}

}  // namespace
}  // namespace hp
