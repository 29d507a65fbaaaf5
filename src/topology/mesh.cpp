#include "topology/mesh.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace hp::net {

Mesh::Mesh(int dim, int side, bool wrap) : dim_(dim), side_(side), wrap_(wrap) {
  HP_REQUIRE(dim >= 1 && dim <= kMaxDim, "mesh dimension out of range");
  HP_REQUIRE(side >= 2, "mesh side must be at least 2");
  std::int64_t nodes = 1;
  for (int a = 0; a < dim; ++a) {
    stride_[a] = static_cast<NodeId>(nodes);
    nodes *= side;
    HP_REQUIRE(nodes <= (1LL << 30), "mesh too large for NodeId");
  }
  num_nodes_ = static_cast<std::size_t>(nodes);
  const auto d = static_cast<std::uint64_t>(side);
  side_shift_ = 30 + static_cast<int>(std::bit_width(d - 1));  // ceil(log2)
  side_mul_ = static_cast<std::uint32_t>(((std::uint64_t{1} << side_shift_) +
                                          d - 1) / d);
}

int Mesh::coord(NodeId node, int axis) const {
  auto v = static_cast<std::uint32_t>(node);
  for (int a = 0; a < axis; ++a) v = div_side(v);
  return pop_coord(v);
}

int Mesh::degree(NodeId node) const {
  if (wrap_) return 2 * dim_;
  int deg = 2 * dim_;
  auto v = static_cast<std::uint32_t>(node);
  for (int a = 0; a < dim_; ++a) {
    const int pos = pop_coord(v);
    if (pos == 0) --deg;
    if (pos == side_ - 1) --deg;
  }
  return deg;
}

Coord Mesh::coords(NodeId node) const {
  HP_REQUIRE(node >= 0 && node < static_cast<NodeId>(num_nodes_),
             "node id out of range");
  Coord c;
  auto v = static_cast<std::uint32_t>(node);
  for (int a = 0; a < dim_; ++a) c.push_back(pop_coord(v));
  return c;
}

NodeId Mesh::node_at(const Coord& c) const {
  HP_REQUIRE(static_cast<int>(c.size()) == dim_,
             "coordinate arity does not match mesh dimension");
  NodeId id = 0;
  for (int a = 0; a < dim_; ++a) {
    HP_REQUIRE(c[static_cast<std::size_t>(a)] >= 0 &&
                   c[static_cast<std::size_t>(a)] < side_,
               "coordinate out of range");
    id += c[static_cast<std::size_t>(a)] * stride_[a];
  }
  return id;
}

NodeId Mesh::neighbor(NodeId node, Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  const int axis = axis_of(dir);
  const int sign = sign_of(dir);
  const int pos = coord(node, axis);
  int next = pos + sign;
  if (next < 0 || next >= side_) {
    if (!wrap_) return kInvalidNode;
    next = next < 0 ? side_ - 1 : 0;
  }
  return node + (next - pos) * stride_[axis];
}

Dir Mesh::reverse_dir(Dir dir) const {
  HP_REQUIRE(dir >= 0 && dir < num_dirs(), "direction out of range");
  return static_cast<Dir>(dir ^ 1);
}

int Mesh::distance(NodeId a, NodeId b) const {
  auto va = static_cast<std::uint32_t>(a);
  auto vb = static_cast<std::uint32_t>(b);
  int total = 0;
  for (int axis = 0; axis < dim_; ++axis) {
    int delta = std::abs(pop_coord(va) - pop_coord(vb));
    if (wrap_) delta = std::min(delta, side_ - delta);
    total += delta;
  }
  return total;
}

void Mesh::good_masks(const NodeId* at, const NodeId* dst, std::uint32_t* out,
                      std::size_t count) const {
  if (wrap_) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t mask = 0;
      auto va = static_cast<std::uint32_t>(at[i]);
      auto vb = static_cast<std::uint32_t>(dst[i]);
      for (int axis = 0; axis < dim_; ++axis) {
        const int ca = pop_coord(va);
        const int cb = pop_coord(vb);
        if (ca == cb) continue;
        const int fwd = cb > ca ? cb - ca : cb - ca + side_;
        const int bwd = side_ - fwd;
        // Antipodal coordinates (fwd == bwd) are closer both ways.
        if (fwd <= bwd) mask |= std::uint32_t{1} << (2 * axis);
        if (bwd <= fwd) mask |= std::uint32_t{1} << (2 * axis + 1);
      }
      out[i] = mask;
    }
    return;
  }
  // Dense non-wrap path: a short fixed-trip-count inner loop of
  // multiply-shift decodes and compares per element, no branches on data —
  // the routing phase's hottest arithmetic, laid out for the vectorizer.
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t mask = 0;
    auto va = static_cast<std::uint32_t>(at[i]);
    auto vb = static_cast<std::uint32_t>(dst[i]);
    for (int axis = 0; axis < dim_; ++axis) {
      const int ca = pop_coord(va);
      const int cb = pop_coord(vb);
      mask |= static_cast<std::uint32_t>(cb > ca) << (2 * axis);
      mask |= static_cast<std::uint32_t>(cb < ca) << (2 * axis + 1);
    }
    out[i] = mask;
  }
}

int Mesh::diameter() const {
  const int per_axis = wrap_ ? side_ / 2 : side_ - 1;
  return dim_ * per_axis;
}

std::string Mesh::name() const {
  std::ostringstream os;
  os << (wrap_ ? "torus" : "mesh") << "-" << dim_ << "d-" << side_;
  return os.str();
}

NodeId Mesh::two_neighbor(NodeId node, Dir dir) const {
  const NodeId mid = neighbor(node, dir);
  if (mid == kInvalidNode) return kInvalidNode;
  return neighbor(mid, dir);
}

int Mesh::parity_class(NodeId node) const {
  int cls = 0;
  auto v = static_cast<std::uint32_t>(node);
  for (int axis = 0; axis < dim_; ++axis) {
    cls |= (pop_coord(v) & 1) << axis;
  }
  return cls;
}

}  // namespace hp::net
