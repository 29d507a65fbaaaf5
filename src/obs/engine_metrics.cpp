#include "obs/engine_metrics.hpp"

#include <cstddef>

namespace hp::obs {

namespace {

// Histogram ranges: [0, hi) with fixed-width bins; out-of-range samples
// clamp to the edge bins, the summary stats stay exact.
constexpr double kLatencyHi = 4096.0;
constexpr std::size_t kLatencyBins = 64;
constexpr double kDeflectionsHi = 256.0;
constexpr std::size_t kDeflectionsBins = 64;
// Definition 9 bad-node threshold d: a node is bad when it holds more than
// this many packets.
constexpr std::size_t kBadThreshold = 2;

}  // namespace

EngineMetrics::EngineMetrics(MetricsRegistry& registry)
    : registry_(&registry),
      steps_(registry.counter("engine.steps")),
      delivered_(registry.counter("packets.delivered")),
      advances_(registry.counter("packets.advances")),
      deflections_(registry.counter("packets.deflections")),
      bad_node_steps_(registry.counter("engine.bad_node_steps")),
      in_flight_now_(registry.gauge("engine.in_flight")),
      bad_nodes_now_(registry.gauge("engine.bad_nodes")),
      latency_(registry.distribution("packet.latency", 0.0, kLatencyHi,
                                     kLatencyBins)),
      stretch_(registry.distribution("packet.stretch", 0.0, 16.0, 64)),
      deflections_per_packet_(
          registry.distribution("packet.deflections", 0.0, kDeflectionsHi,
                                kDeflectionsBins)),
      occupancy_(registry.distribution("node.occupancy", 0.0, 32.0, 32)),
      in_flight_(registry.distribution("step.in_flight", 0.0, 4096.0, 64)) {}

void EngineMetrics::on_step(const sim::Engine& /*engine*/,
                            const sim::StepRecord& record) {
  steps_.add(1);
  in_flight_now_.set(static_cast<double>(record.in_flight_after));
  in_flight_.add(static_cast<double>(record.in_flight_after));

  for (const sim::Packet& p : record.arrivals) {
    delivered_.add(1);
    const std::uint64_t latency = p.arrived_at - p.injected_at;
    latency_.add(static_cast<double>(latency));
    deflections_per_packet_.add(static_cast<double>(p.deflections));
    if (p.initial_distance > 0) {
      stretch_.add(static_cast<double>(latency) /
                   static_cast<double>(p.initial_distance));
    }
  }

  // Pre-move occupancy per node: each node group is one node's packets.
  std::uint64_t bad_nodes = 0;
  const auto& as = record.assignments;
  sim::for_each_node_group(as, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (as[i].advances()) {
        advances_.add(1);
      } else {
        deflections_.add(1);
      }
    }
    occupancy_.add(static_cast<double>(end - begin));
    if (end - begin > kBadThreshold) ++bad_nodes;
  });
  bad_nodes_now_.set(static_cast<double>(bad_nodes));
  bad_node_steps_.add(bad_nodes);

  // The registrations below repeat every step so the gauges track the
  // trackers' post-step state without EngineMetrics knowing the step plan.
  if (potential_ != nullptr) {
    potential_gauges(*potential_);
  }
  if (surface_ != nullptr) {
    surface_gauges(*surface_);
  }
}

void EngineMetrics::potential_gauges(const core::PotentialTracker& tracker) {
  // Resolved lazily: the gauges only exist in snapshots of runs that had
  // a potential tracker attached.
  registry_->gauge("potential.phi").set(static_cast<double>(tracker.phi()));
  registry_->gauge("potential.min_slack")
      .set(static_cast<double>(tracker.min_slack()));
}

void EngineMetrics::surface_gauges(const core::SurfaceTracker& tracker) {
  if (tracker.b_series().empty()) return;
  registry_->gauge("surface.b").set(
      static_cast<double>(tracker.b_series().back()));
  registry_->gauge("surface.g").set(
      static_cast<double>(tracker.g_series().back()));
  registry_->gauge("surface.f").set(
      static_cast<double>(tracker.f_series().back()));
}

}  // namespace hp::obs
