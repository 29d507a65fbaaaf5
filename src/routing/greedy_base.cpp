#include "routing/greedy_base.hpp"

#include "util/inline_vector.hpp"

namespace hp::routing {

void PriorityGreedyPolicy::route(const sim::NodeContext& ctx,
                                 std::span<const sim::PacketView> packets,
                                 std::span<net::Dir> out) {
  InlineVector<std::size_t, 2 * net::kMaxDim> order;
  for (std::size_t i = 0; i < packets.size(); ++i) order.push_back(i);

  if (options_.randomize_ties) {
    ctx.rng.shuffle(std::span<std::size_t>(order.data(), order.size()));
  }

  InlineVector<int, 2 * net::kMaxDim> ranks;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ranks.push_back(rank(ctx, packets[i]));
  }
  // Stable insertion sort (at most 2d entries, no scratch buffer): ties
  // keep the (possibly shuffled) preliminary order.
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t moving = order[i];
    std::size_t j = i;
    for (; j > 0 && ranks[moving] < ranks[order[j - 1]]; --j) {
      order[j] = order[j - 1];
    }
    order[j] = moving;
  }

  const std::span<const std::size_t> order_span(order.data(), order.size());
  if (options_.maximize_advancing) {
    assign_augmenting(ctx, packets, order_span, options_.deflect, out);
  } else {
    assign_sequential(ctx, packets, order_span, options_.deflect, out);
  }
}

}  // namespace hp::routing
