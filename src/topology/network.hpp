// Abstract synchronous network topology (Section 2 of the paper).
//
// A network is a graph of processors whose arcs come in antiparallel pairs
// and are partitioned into directions. The routing layers only interact
// with topologies through this interface, so the same greedy algorithms
// run unchanged on meshes, tori, and hypercubes.
#pragma once

#include <string>

#include "topology/types.hpp"

namespace hp::net {

class Network {
 public:
  virtual ~Network() = default;

  /// Total number of processors.
  virtual std::size_t num_nodes() const = 0;

  /// Number of direction labels (2d for the d-dim mesh, m for the
  /// m-dimensional hypercube). Every arc belongs to exactly one direction.
  virtual int num_dirs() const = 0;

  /// The node reached by following direction `dir` out of `node`, or
  /// kInvalidNode if no such arc exists (e.g. off the edge of a mesh).
  virtual NodeId neighbor(NodeId node, Dir dir) const = 0;

  /// The direction of the antiparallel arc: following `reverse_dir(d)`
  /// from `neighbor(v, d)` returns to `v`.
  virtual Dir reverse_dir(Dir dir) const = 0;

  /// Length of the shortest path between two nodes.
  virtual int distance(NodeId a, NodeId b) const = 0;

  /// Maximum distance between any two nodes.
  virtual int diameter() const = 0;

  /// Human-readable topology name for logs and tables.
  virtual std::string name() const = 0;

  /// Out-degree of `node` (number of directions with an existing arc).
  /// The base implementation probes every direction with neighbor();
  /// topologies override it with closed forms.
  virtual int degree(NodeId node) const;

  /// True iff an arc in direction `dir` leaves `node`.
  bool arc_exists(NodeId node, Dir dir) const {
    return neighbor(node, dir) != kInvalidNode;
  }

  /// Good directions (Definition 5) for `count` packets, batched over
  /// parallel position/destination arrays: out[i] gets bit d set iff the
  /// arc in direction d leaves at[i] and enters a node strictly closer to
  /// dst[i]. Zero iff at[i] == dst[i]. This is the one goodness primitive
  /// — the engine evaluates it once per step over the dense flight
  /// columns, and every other goodness fact (restricted, Type A,
  /// advances) is derived from its masks. The base version probes every
  /// direction with neighbor() + distance(); topologies override it with
  /// branch-free closed forms so the loop vectorizes.
  virtual void good_masks(const NodeId* at, const NodeId* dst,
                          std::uint32_t* out, std::size_t count) const;

  /// good_masks() for a single packet.
  std::uint32_t good_mask(NodeId at, NodeId dst) const {
    std::uint32_t mask = 0;
    good_masks(&at, &dst, &mask, 1);
    return mask;
  }

  /// good_mask() expanded into ascending direction order.
  DirList good_dirs(NodeId at, NodeId dst) const {
    return dirlist_from_mask(good_mask(at, dst));
  }

  /// Total number of directed arcs in the network.
  std::size_t num_arcs() const;
};

}  // namespace hp::net
