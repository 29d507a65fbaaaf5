#include "routing/matching.hpp"

#include <bit>

#include "util/check.hpp"

namespace hp::routing {

namespace {

constexpr int kUnassigned = -1;

/// Assigns every packet in `order` without an out direction a free arc
/// according to `rule`. `used_mask` has a bit set per taken direction.
void deflect_remaining(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::uint32_t used_mask, std::span<net::Dir> out) {
  for (std::size_t idx : order) {
    if (out[idx] != net::kInvalidDir) continue;
    const sim::PacketView& p = packets[idx];

    // Collect the free arcs at this node.
    net::DirList free;
    for (net::Dir d : ctx.avail_dirs) {
      if (((used_mask >> d) & 1u) == 0) free.push_back(d);
    }
    HP_CHECK(!free.empty(), "no free arc for a resident packet — the node "
                            "holds more packets than arcs");

    net::Dir chosen = net::kInvalidDir;
    switch (rule) {
      case DeflectRule::kFirstFree:
        chosen = free.front();
        break;
      case DeflectRule::kRandom:
        chosen = free[ctx.rng.uniform(free.size())];
        break;
      case DeflectRule::kReverseEntry:
        if (p.entry_dir != net::kInvalidDir) {
          const net::Dir back = ctx.net.reverse_dir(p.entry_dir);
          if (free.contains(back)) chosen = back;
        }
        if (chosen == net::kInvalidDir) chosen = free.front();
        break;
      case DeflectRule::kStraight:
        if (p.entry_dir != net::kInvalidDir && free.contains(p.entry_dir)) {
          chosen = p.entry_dir;
        }
        if (chosen == net::kInvalidDir) chosen = free.front();
        break;
    }
    out[idx] = chosen;
    used_mask |= std::uint32_t{1} << chosen;
  }
}

}  // namespace

void assign_sequential(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::span<net::Dir> out) {
  HP_REQUIRE(packets.size() == out.size() && packets.size() == order.size(),
             "assignment arity mismatch");
  for (auto& dir : out) dir = net::kInvalidDir;

  std::uint32_t used_mask = 0;
  for (std::size_t idx : order) {
    // Lowest free good direction, if any.
    const std::uint32_t free_good = packets[idx].good_mask & ~used_mask;
    if (free_good == 0) continue;
    const auto g = static_cast<net::Dir>(std::countr_zero(free_good));
    out[idx] = g;
    used_mask |= std::uint32_t{1} << g;
  }
  deflect_remaining(ctx, packets, order, rule, used_mask, out);
}

namespace {

/// Kuhn's augmenting DFS: tries to advance packet `idx`, possibly rerouting
/// already-matched packets to alternate good arcs. `owner[d]` is the packet
/// currently matched to direction d (or kUnassigned). `visited` is a
/// per-attempt direction bitmask.
bool try_augment(std::span<const sim::PacketView> packets, std::size_t idx,
                 std::span<int> owner, std::uint32_t& visited) {
  // Good directions in ascending order.
  for (std::uint32_t good = packets[idx].good_mask; good != 0;
       good &= good - 1) {
    const auto g = static_cast<net::Dir>(std::countr_zero(good));
    const std::uint32_t bit = std::uint32_t{1} << g;
    if (visited & bit) continue;
    visited |= bit;
    if (owner[static_cast<std::size_t>(g)] == kUnassigned ||
        try_augment(packets,
                    static_cast<std::size_t>(owner[static_cast<std::size_t>(g)]),
                    owner, visited)) {
      owner[static_cast<std::size_t>(g)] = static_cast<int>(idx);
      return true;
    }
  }
  return false;
}

}  // namespace

void assign_augmenting(const sim::NodeContext& ctx,
                       std::span<const sim::PacketView> packets,
                       std::span<const std::size_t> order, DeflectRule rule,
                       std::span<net::Dir> out) {
  HP_REQUIRE(packets.size() == out.size() && packets.size() == order.size(),
             "assignment arity mismatch");
  for (auto& dir : out) dir = net::kInvalidDir;

  InlineVector<int, 2 * net::kMaxDim> owner;
  for (int d = 0; d < ctx.net.num_dirs(); ++d) owner.push_back(kUnassigned);

  for (std::size_t idx : order) {
    std::uint32_t visited = 0;
    try_augment(packets, idx, std::span<int>(owner.data(), owner.size()),
                visited);
  }

  std::uint32_t used_mask = 0;
  for (int d = 0; d < ctx.net.num_dirs(); ++d) {
    const int pkt = owner[static_cast<std::size_t>(d)];
    if (pkt != kUnassigned) {
      out[static_cast<std::size_t>(pkt)] = static_cast<net::Dir>(d);
      used_mask |= std::uint32_t{1} << d;
    }
  }
  deflect_remaining(ctx, packets, order, rule, used_mask, out);
}

}  // namespace hp::routing
