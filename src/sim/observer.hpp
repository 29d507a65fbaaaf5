// Step observers: how the analysis layer watches a run.
//
// The potential-function machinery of Sections 3–4 is implemented as
// observers that audit every step of a real execution — Property 8 at every
// node, the Lemma 12 two-step drop, greediness per Definition 6, and so on.
//
// The interface is a *streaming* one: the engine hands each observer, once
// per step, spans into its own per-step buffers — the routing decisions
// grouped by node and the full records of the packets delivered by this
// step's movement. Nothing is copied per step and nothing references the
// ever-growing set of delivered packets, so observers compose with
// continuous-injection runs of unbounded length. Spans are valid only for
// the duration of the on_step call; observers that need history must copy
// what they keep.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/packet.hpp"
#include "topology/types.hpp"

namespace hp::sim {

class Engine;

/// One packet's routing decision in one step, with the pre-move facts the
/// analysis needs. Assignments for the same node are contiguous in the
/// step record. Whether the packet advanced, how many good directions it
/// had and whether it was Type A are derived from `good_mask`, `out` and
/// the history bits, never stored beside them.
struct Assignment {
  PacketId pkt = 0;
  net::NodeId node = net::kInvalidNode;  ///< node the packet was routed from
  net::Dir out = net::kInvalidDir;       ///< chosen outgoing direction
  /// History bits at the start of the step (see Packet).
  bool prev_advanced = false;
  /// Bit i set iff direction i was good for this packet at `node`.
  std::uint32_t good_mask = 0;
  int prev_num_good = -1;

  /// The chosen arc was good for the packet (Definition 5).
  bool advances() const { return ((good_mask >> out) & 1u) != 0; }
  /// Good directions at `node` (pre-move).
  int num_good() const { return std::popcount(good_mask); }
  /// Restricted Type A at the start of the step (§4.1).
  bool was_type_a() const {
    return num_good() == 1 && prev_num_good == 1 && prev_advanced;
  }
};

/// Everything that happened in one engine step, streamed by reference.
struct StepRecord {
  /// Time at the beginning of the step; movement happens between `step`
  /// and `step + 1`.
  std::uint64_t step = 0;
  /// All routing decisions, grouped contiguously by node.
  std::span<const Assignment> assignments;
  /// Final records of the packets that reached their destination by this
  /// movement (arrived_at == step + 1). They are absorbed and do not
  /// appear in later steps; this span is the last time the engine offers
  /// their full record on the hot path.
  std::span<const Packet> arrivals;
  /// Packets still in flight after the movement was applied.
  std::size_t in_flight_after = 0;
};

/// Calls fn(begin, end) once per node group of `as`: each maximal run
/// [begin, end) of assignments at the same node, in record order. Relies
/// on the contract above that one node's assignments are contiguous.
template <typename Fn>
void for_each_node_group(std::span<const Assignment> as, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < as.size()) {
    std::size_t end = begin;
    while (end < as.size() && as[end].node == as[begin].node) ++end;
    fn(begin, end);
    begin = end;
  }
}

class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Called once per step, after movement has been applied. The engine's
  /// flight table reflects post-move state; pre-move positions are in the
  /// record's assignments. The record's spans die with this call.
  virtual void on_step(const Engine& engine, const StepRecord& record) = 0;
};

}  // namespace hp::sim
