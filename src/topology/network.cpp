#include "topology/network.hpp"

namespace hp::net {

int Network::degree(NodeId node) const {
  int deg = 0;
  for (Dir d = 0; d < num_dirs(); ++d) {
    if (arc_exists(node, d)) ++deg;
  }
  return deg;
}

void Network::good_masks(const NodeId* at, const NodeId* dst,
                         std::uint32_t* out, std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t mask = 0;
    const int here = distance(at[i], dst[i]);
    for (Dir d = 0; d < num_dirs(); ++d) {
      const NodeId nb = neighbor(at[i], d);
      if (nb != kInvalidNode && distance(nb, dst[i]) < here) {
        mask |= std::uint32_t{1} << d;
      }
    }
    out[i] = mask;
  }
}

std::size_t Network::num_arcs() const {
  std::size_t arcs = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(num_nodes()); ++v) {
    arcs += static_cast<std::size_t>(degree(v));
  }
  return arcs;
}

}  // namespace hp::net
