// The arcs of a network as one 32-bit word per node (Section 2 model: a
// fixed set of arcs, partitioned into directions).
//
// Every topology in this repository reaches the neighbor in direction d by
// adding one of at most two node-id offsets: the mesh has one per
// direction, the torus wrap and the hypercube's node ^ (1 << d) have two.
// So a node's arcs fit in one word — bit d says the arc in direction d
// exists, bit 16 + d that it uses the direction's alternate offset — and
// two small per-direction offset arrays turn every arc query into a bit
// test and an add, with no virtual call. The table is built once by
// probing Network::neighbor on every (node, direction) pair; a direction
// that shows a third offset is rejected with hp::CheckError.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "topology/network.hpp"

namespace hp::net {

class ArcTable {
 public:
  /// Directions the table can hold: the low and high halves of a word.
  static constexpr int kMaxDirs = 16;

  explicit ArcTable(const Network& net);

  /// Bit d set iff an arc in direction d leaves `node`.
  std::uint32_t out_mask(NodeId node) const {
    return words_[static_cast<std::size_t>(node)] & 0xFFFFU;
  }
  /// Out-degree of `node`.
  int degree(NodeId node) const { return std::popcount(out_mask(node)); }
  /// Target of the arc `dir` out of `node`; the arc must exist.
  NodeId target(NodeId node, Dir dir) const {
    const auto d = static_cast<std::size_t>(dir);
    const std::uint32_t word = words_[static_cast<std::size_t>(node)];
    const bool wrap = ((word >> (kMaxDirs + d)) & 1U) != 0;
    return node + (wrap ? wrap_step_[d] : step_[d]);
  }

  /// Heap bytes of the table: 4 per node.
  std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> words_;
  NodeId step_[kMaxDirs] = {};
  NodeId wrap_step_[kMaxDirs] = {};
};

}  // namespace hp::net
