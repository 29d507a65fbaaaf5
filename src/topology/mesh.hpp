// The d-dimensional mesh (Definition 1) and its optional torus variant.
//
// Nodes are d-dimensional vectors over {0, …, n−1} (the paper uses 1-based
// coordinates; we use 0-based, which changes nothing). Two nodes are
// adjacent iff their L1 distance is 1. Directions follow Definition 3:
// label 2a is "+" along axis a, label 2a+1 is "−" along axis a.
//
// The mesh also exposes the 2-neighbor relation (Definition 4) and the 2^d
// parity equivalence classes of its transitive closure, which the surface-
// arc analysis of Section 3 relies on.
//
// A node id is its coordinate vector in base `side`, so every coordinate
// decode divides by `side`. The mesh does that by multiplying with an exact
// reciprocal taken once at construction, never with a divide instruction
// (see div_side()).
#pragma once

#include <cstdint>
#include <string>

#include "topology/network.hpp"

namespace hp::net {

class Mesh : public Network {
 public:
  /// A `dim`-dimensional mesh with `side` nodes per axis. With wrap=true
  /// every axis closes into a ring (the torus used by several related-work
  /// baselines); the paper's analysis itself concerns wrap=false.
  Mesh(int dim, int side, bool wrap = false);

  std::size_t num_nodes() const override { return num_nodes_; }
  int num_dirs() const override { return 2 * dim_; }
  NodeId neighbor(NodeId node, Dir dir) const override;
  Dir reverse_dir(Dir dir) const override;
  int distance(NodeId a, NodeId b) const override;
  int diameter() const override;
  std::string name() const override;

  /// Closed form: 2·dim on a torus; otherwise one arc per axis end the
  /// node does not sit on. Agrees with the base probe loop bit-for-bit.
  int degree(NodeId node) const override;

  /// Closed-form Definition 5: one coordinate decode per packet instead of
  /// the base class's per-direction neighbor() + distance() probes.
  void good_masks(const NodeId* at, const NodeId* dst, std::uint32_t* out,
                  std::size_t count) const override;

  int dim() const { return dim_; }
  int side() const { return side_; }
  bool wraps() const { return wrap_; }

  /// Axis and sign of a direction label. sign is +1 for "+", −1 for "−".
  static int axis_of(Dir dir) { return dir / 2; }
  static int sign_of(Dir dir) { return (dir % 2 == 0) ? +1 : -1; }
  /// Direction label for (axis, sign).
  static Dir dir_of(int axis, int sign) {
    return static_cast<Dir>(2 * axis + (sign < 0 ? 1 : 0));
  }

  /// Coordinate vector of a node; component a is the position on axis a.
  Coord coords(NodeId node) const;

  /// Node at a coordinate vector. All components must lie in [0, side).
  NodeId node_at(const Coord& c) const;

  /// Coordinate of `node` along one axis, without materializing the vector.
  int coord(NodeId node, int axis) const;

  /// Id offset of one step along `axis`: side^axis.
  NodeId stride(int axis) const { return stride_[axis]; }

  /// The 2-neighbor of `node` in direction `dir` (Definition 4): the node
  /// two hops away along `dir`, or kInvalidNode if that walks off the mesh.
  /// Only meaningful for wrap=false (the analysis setting).
  NodeId two_neighbor(NodeId node, Dir dir) const;

  /// Index in [0, 2^dim) of the equivalence class of `node` under the
  /// transitive closure of the 2-neighbor relation — the vector of
  /// coordinate parities. Nodes are in the same class iff all their
  /// coordinate parities agree.
  int parity_class(NodeId node) const;

 private:
  int dim_;
  int side_;
  bool wrap_;
  std::size_t num_nodes_;
  // stride_[a] = side^a, so coordinate a of node v is (v / stride_[a]) % side.
  NodeId stride_[kMaxDim];
  // floor(v / side) = (v · side_mul_) >> side_shift_ for every v < 2^30
  // (Lemire, Kaser & Kurz 2019). With L = ceil(log2 side) and
  // side_mul_ = ceil(2^(30+L) / side), the rounding error
  // e = side_mul_ · side − 2^(30+L) lies in [0, side), so v · e < 2^(30+L)
  // and the shifted product never reaches the next integer. side ≥ 2 keeps
  // side_mul_ ≤ 2^31, so v · side_mul_ < 2^61 fits a 64-bit product.
  std::uint32_t side_mul_;
  int side_shift_;

  /// floor(v / side) for 0 ≤ v < 2^30 (every node id and every quotient
  /// of one): a 32×32→64-bit multiply and a shift.
  std::uint32_t div_side(std::uint32_t v) const {
    return static_cast<std::uint32_t>((std::uint64_t{v} * side_mul_) >>
                                      side_shift_);
  }
  /// Splits v into (v mod side, v / side): the low coordinate and the rest.
  int pop_coord(std::uint32_t& v) const {
    const std::uint32_t q = div_side(v);
    const auto c = static_cast<int>(v - q * static_cast<std::uint32_t>(side_));
    v = q;
    return c;
  }
};

}  // namespace hp::net
