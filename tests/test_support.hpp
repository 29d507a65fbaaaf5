// Shared helpers for the hotpotato test suite.
#pragma once

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "topology/mesh.hpp"
#include "workload/workload.hpp"

namespace hp::test {

inline net::Coord xy(int x, int y) {
  net::Coord c;
  c.push_back(x);
  c.push_back(y);
  return c;
}

inline workload::Problem make_problem(
    std::vector<workload::PacketSpec> specs) {
  workload::Problem p;
  p.name = "test";
  p.packets = std::move(specs);
  return p;
}

/// A ring whose single direction jumps to 2v mod 5: offsets 0, +1, +2, -2
/// and -1 — more than the two an ArcTable direction can hold. It overrides
/// none of Network's defaults, so it also exercises the base good_masks().
class DoublingRing final : public net::Network {
 public:
  std::size_t num_nodes() const override { return 5; }
  int num_dirs() const override { return 1; }
  net::NodeId neighbor(net::NodeId node, net::Dir) const override {
    return (2 * node) % 5;
  }
  net::Dir reverse_dir(net::Dir dir) const override { return dir; }
  int distance(net::NodeId a, net::NodeId b) const override {
    return a == b ? 0 : 1;
  }
  int diameter() const override { return 1; }
  std::string name() const override { return "doubling-ring"; }
};

/// A deliberately simple baseline policy for engine-mechanics tests: each
/// packet takes its first good arc if free, else the first free arc.
/// (Equivalent to sequential greedy in arrival order.)
class FirstGoodPolicy : public sim::RoutingPolicy {
 public:
  std::string name() const override { return "first-good"; }
  bool deterministic() const override { return true; }

  void route(const sim::NodeContext& ctx,
             std::span<const sim::PacketView> packets,
             std::span<net::Dir> out) override {
    std::uint32_t used = 0;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      out[i] = net::kInvalidDir;
      const std::uint32_t free_good = packets[i].good_mask & ~used;
      if (free_good != 0) {
        out[i] = static_cast<net::Dir>(std::countr_zero(free_good));
        used |= std::uint32_t{1} << out[i];
      }
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (out[i] != net::kInvalidDir) continue;
      for (net::Dir d : ctx.avail_dirs) {
        if (((used >> d) & 1u) == 0) {
          out[i] = d;
          used |= std::uint32_t{1} << d;
          break;
        }
      }
    }
  }
};

/// Runs `problem` on `net` under `policy` with the Definition 6 checker
/// attached; returns the result after asserting the greedy property held.
struct CheckedRun {
  sim::RunResult result;
  std::vector<std::string> greedy_violations;
  std::vector<std::string> preference_violations;
};

inline CheckedRun run_checked(const net::Network& network,
                              const workload::Problem& problem,
                              sim::RoutingPolicy& policy,
                              sim::EngineConfig config = {}) {
  sim::Engine engine(network, problem, policy, config);
  core::GreedyChecker greedy;
  core::RestrictedPreferenceChecker preference;
  engine.add_observer(&greedy);
  engine.add_observer(&preference);
  CheckedRun out;
  out.result = engine.run();
  out.greedy_violations = greedy.violations();
  out.preference_violations = preference.violations();
  return out;
}

}  // namespace hp::test
