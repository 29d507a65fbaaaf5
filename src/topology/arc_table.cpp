#include "topology/arc_table.hpp"

#include <string>

#include "util/check.hpp"

namespace hp::net {

ArcTable::ArcTable(const Network& net) : words_(net.num_nodes(), 0) {
  const int dirs = net.num_dirs();
  HP_REQUIRE(dirs <= kMaxDirs, "the arc table holds at most 16 directions");
  bool seen[kMaxDirs] = {};
  bool wrap_seen[kMaxDirs] = {};
  for (std::size_t v = 0; v < words_.size(); ++v) {
    const auto node = static_cast<NodeId>(v);
    std::uint32_t word = 0;
    for (Dir d = 0; d < dirs; ++d) {
      const NodeId nb = net.neighbor(node, d);
      if (nb == kInvalidNode) continue;
      const auto i = static_cast<std::size_t>(d);
      const NodeId offset = nb - node;
      word |= std::uint32_t{1} << i;
      if (!seen[i]) {
        seen[i] = true;
        step_[i] = offset;
      }
      if (offset == step_[i]) continue;
      if (!wrap_seen[i]) {
        wrap_seen[i] = true;
        wrap_step_[i] = offset;
      }
      HP_CHECK(offset == wrap_step_[i],
               net.name() + ": direction " + std::to_string(d) +
                   " has a third node-id offset; an arc table holds two");
      word |= std::uint32_t{1} << (kMaxDirs + i);
    }
    words_[v] = word;
  }
}

}  // namespace hp::net
