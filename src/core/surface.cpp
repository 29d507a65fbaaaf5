#include "core/surface.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace hp::core {

CongestionSnapshot analyze_congestion(const net::Mesh& mesh,
                                      const std::vector<int>& occupancy) {
  HP_REQUIRE(occupancy.size() == mesh.num_nodes(),
             "occupancy size must match node count");
  const int d = mesh.dim();
  const int side = mesh.side();
  const bool wrap = mesh.wraps();
  // Definition 11 for the arc out of bad node v (coordinate `pos` on an
  // axis of stride `stride`) in direction `sign`: a surface arc iff the
  // arc or the 2-neighbor is missing, or the 2-neighbor is good. On the
  // torus both always exist, two steps along the ring.
  const auto is_surface = [&](net::NodeId v, int pos, net::NodeId stride,
                              int sign) {
    int two = pos + 2 * sign;  // the 2-neighbor's coordinate
    if (two < 0 || two >= side) {
      if (!wrap) return true;
      two += two < 0 ? side : -side;
    }
    return occupancy[static_cast<std::size_t>(v + (two - pos) * stride)] <= d;
  };
  CongestionSnapshot snap;
  for (net::NodeId v = 0; v < static_cast<net::NodeId>(mesh.num_nodes());
       ++v) {
    const int load = occupancy[static_cast<std::size_t>(v)];
    if (load <= d) {
      snap.packets_in_good += load;
      continue;
    }
    snap.packets_in_bad += load;
    ++snap.bad_nodes;
    // Every one of the 2d directions is considered, from one coordinate
    // decode of the node.
    const net::Coord c = mesh.coords(v);
    for (int axis = 0; axis < d; ++axis) {
      const int pos = c[static_cast<std::size_t>(axis)];
      const net::NodeId stride = mesh.stride(axis);
      if (is_surface(v, pos, stride, +1)) ++snap.surface_arcs;
      if (is_surface(v, pos, stride, -1)) ++snap.surface_arcs;
    }
  }
  return snap;
}

double lemma14_bound(int d, double packets_in_bad) {
  if (packets_in_bad <= 0) return 0.0;
  const double dd = static_cast<double>(d);
  return std::pow(2.0 * dd, 1.0 / dd) *
         std::pow(packets_in_bad, (dd - 1.0) / dd);
}

SurfaceTracker::SurfaceTracker(const net::Mesh& mesh)
    : mesh_(mesh),
      occupancy_(mesh.num_nodes(), 0),
      min_ratio_(std::numeric_limits<double>::infinity()) {
  HP_REQUIRE(!mesh.wraps(),
             "surface-arc analysis is defined on the mesh, not the torus");
}

void SurfaceTracker::on_step(const sim::Engine& /*engine*/,
                             const sim::StepRecord& record) {
  // Occupancy at the beginning of the step: assignments are grouped by the
  // node each packet was routed from.
  for (net::NodeId v : touched_) occupancy_[static_cast<std::size_t>(v)] = 0;
  touched_.clear();
  for (const sim::Assignment& a : record.assignments) {
    if (occupancy_[static_cast<std::size_t>(a.node)] == 0) {
      touched_.push_back(a.node);
    }
    ++occupancy_[static_cast<std::size_t>(a.node)];
  }

  const CongestionSnapshot snap = analyze_congestion(mesh_, occupancy_);
  b_.push_back(snap.packets_in_bad);
  g_.push_back(snap.packets_in_good);
  f_.push_back(snap.surface_arcs);

  if (snap.packets_in_bad > 0) {
    const double bound =
        lemma14_bound(mesh_.dim(), static_cast<double>(snap.packets_in_bad));
    const double ratio = static_cast<double>(snap.surface_arcs) / bound;
    min_ratio_ = std::min(min_ratio_, ratio);
    if (static_cast<double>(snap.surface_arcs) < bound) {
      lemma14_violations_.push_back(record.step);
    }
  }
}

}  // namespace hp::core
