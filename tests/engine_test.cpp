// Engine mechanics: the Section 2 model — synchronous steps, hot-potato
// discipline, one packet per directed arc, absorption, injection rules,
// observers, and state digests.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/livelock.hpp"
#include "test_support.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::FirstGoodPolicy;
using test::make_problem;
using test::xy;

TEST(Engine, SinglePacketWalksShortestPath) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(5, 3))}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 8u);  // L1 distance, no one to conflict with
  EXPECT_EQ(result.total_deflections, 0u);
  EXPECT_EQ(result.packets[0].arrived_at, 8u);
}

TEST(Engine, PacketAtItsDestinationCostsZeroSteps) {
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{5, 5}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_EQ(engine.in_flight(), 0u);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.packets[0].arrived_at, 0u);
}

TEST(Engine, StepReturnsFalseWhenIdle) {
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{0, 0}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, TwoPacketsCrossOnAntiparallelArcs) {
  // a: (0,0)→(1,0), b: (1,0)→(0,0). They swap in one step — antiparallel
  // arcs are distinct links, so this is legal and collision-free.
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{mesh.node_at(xy(0, 0)), mesh.node_at(xy(1, 0))},
                               {mesh.node_at(xy(1, 0)), mesh.node_at(xy(0, 0))}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.steps, 1u);
}

TEST(Engine, DeflectionHappensWhenArcsContended) {
  // Two packets at the same node want the same single good arc: one is
  // deflected (hot-potato: it must still move somewhere).
  net::Mesh mesh(2, 4);
  const auto src = mesh.node_at(xy(1, 1));
  const auto dst = mesh.node_at(xy(3, 1));  // east twice: east is the only
                                            // good direction for both
  auto problem = make_problem({{src, dst}, {src, dst}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.total_deflections, 1u);
  EXPECT_GT(result.steps, 2u);  // loser pays a detour
}

TEST(Engine, HotPotatoNoPacketStaysPut) {
  net::Mesh mesh(2, 6);
  Rng rng(17);
  workload::Problem problem;
  problem.name = "random";
  for (int i = 0; i < 20; ++i) {
    problem.packets.push_back(
        {static_cast<net::NodeId>(rng.uniform(mesh.num_nodes())),
         static_cast<net::NodeId>(rng.uniform(mesh.num_nodes()))});
  }
  // Dedupe origins over capacity.
  problem = test::make_problem(std::move(problem.packets));
  std::vector<int> uses(mesh.num_nodes(), 0);
  std::erase_if(problem.packets, [&](const workload::PacketSpec& s) {
    return ++uses[static_cast<std::size_t>(s.src)] >
           mesh.degree(s.src);
  });

  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class NoStay : public sim::StepObserver {
   public:
    void on_step(const sim::Engine& engine,
                 const sim::StepRecord& record) override {
      for (const sim::Assignment& a : record.assignments) {
        const sim::Packet& p = engine.packet(a.pkt);
        if (!p.arrived()) {
          EXPECT_NE(p.pos, a.node) << "packet failed to leave its node";
        }
      }
    }
  } no_stay;
  engine.add_observer(&no_stay);
  EXPECT_TRUE(engine.run().completed);
}

TEST(Engine, RejectsOverloadedOrigins) {
  net::Mesh mesh(2, 4);
  const auto corner = mesh.node_at(xy(0, 0));  // degree 2
  auto problem =
      make_problem({{corner, 5}, {corner, 6}, {corner, 7}});
  FirstGoodPolicy policy;
  EXPECT_THROW(sim::Engine(mesh, problem, policy), CheckError);
}

TEST(Engine, RejectsInvalidNodeIds) {
  net::Mesh mesh(2, 4);
  FirstGoodPolicy policy;
  EXPECT_THROW(
      sim::Engine(mesh, make_problem({{-1, 3}}), policy),
      CheckError);
  EXPECT_THROW(
      sim::Engine(mesh, make_problem({{0, 99}}), policy),
      CheckError);
}

TEST(Engine, CatchesPolicyArcCollision) {
  // A malicious policy that routes every packet through direction 0.
  class BadPolicy : public sim::RoutingPolicy {
   public:
    std::string name() const override { return "collider"; }
    void route(const sim::NodeContext& ctx,
               std::span<const sim::PacketView> /*packets*/,
               std::span<net::Dir> out) override {
      for (auto& d : out) d = ctx.avail_dirs.front();
    }
  };
  net::Mesh mesh(2, 4);
  const auto mid = mesh.node_at(xy(1, 1));
  auto problem = make_problem({{mid, 0}, {mid, 15}});
  BadPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(Engine, CatchesPolicyRoutingOffMesh) {
  class OffMeshPolicy : public sim::RoutingPolicy {
   public:
    std::string name() const override { return "off-mesh"; }
    void route(const sim::NodeContext& /*ctx*/,
               std::span<const sim::PacketView> /*packets*/,
               std::span<net::Dir> out) override {
      for (auto& d : out) d = net::Mesh::dir_of(0, -1);  // "−x" at x=0
    }
  };
  net::Mesh mesh(2, 4);
  auto problem = make_problem({{mesh.node_at(xy(0, 1)), 15}});
  OffMeshPolicy policy;
  sim::Engine engine(mesh, problem, policy);
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(Engine, MaxStepsCapsRun) {
  net::Mesh mesh(2, 8);
  auto problem = make_problem(
      {{mesh.node_at(xy(0, 0)), mesh.node_at(xy(7, 7))}});
  FirstGoodPolicy policy;
  sim::EngineConfig config;
  config.max_steps = 3;
  sim::Engine engine(mesh, problem, policy, config);
  const auto result = engine.run();
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps_executed, 3u);
}

TEST(Engine, ObserverSeesEveryStepGroupedByNode) {
  net::Mesh mesh(2, 6);
  auto problem = make_problem({{0, 20}, {7, 3}, {30, 2}});
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class GroupCheck : public sim::StepObserver {
   public:
    std::uint64_t steps = 0;
    void on_step(const sim::Engine& /*engine*/,
                 const sim::StepRecord& record) override {
      ++steps;
      // Node groups must be contiguous: once a node id changes it must
      // never reappear later in the record.
      std::set<net::NodeId> seen;
      net::NodeId current = net::kInvalidNode;
      for (const auto& a : record.assignments) {
        if (a.node != current) {
          EXPECT_TRUE(seen.insert(a.node).second)
              << "node group split across the record";
          current = a.node;
        }
      }
    }
  } check;
  engine.add_observer(&check);
  const auto result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(check.steps, result.steps_executed);
}

TEST(Engine, AssignmentFlagsAreConsistent) {
  net::Mesh mesh(2, 6);
  Rng rng(5);
  workload::Problem problem;
  for (int i = 0; i < 12; ++i) {
    problem.packets.push_back(
        {static_cast<net::NodeId>(i), static_cast<net::NodeId>(35 - i)});
  }
  FirstGoodPolicy policy;
  sim::Engine engine(mesh, problem, policy);

  class FlagCheck : public sim::StepObserver {
   public:
    explicit FlagCheck(const net::Mesh& m) : mesh_(m) {}
    void on_step(const sim::Engine& engine,
                 const sim::StepRecord& record) override {
      for (const auto& a : record.assignments) {
        const sim::Packet& p = engine.packet(a.pkt);
        // advances() ↔ the move got the packet closer (Definition 5)
        const int before = mesh_.distance(a.node, p.dst);
        EXPECT_EQ(a.advances(), mesh_.distance(p.pos, p.dst) < before);
        // num_good() ↔ the directions whose arc gets closer
        int closer = 0;
        for (net::Dir d = 0; d < mesh_.num_dirs(); ++d) {
          const net::NodeId nb = mesh_.neighbor(a.node, d);
          if (nb != net::kInvalidNode && mesh_.distance(nb, p.dst) < before) {
            ++closer;
          }
        }
        EXPECT_EQ(a.num_good(), closer);
        // post-move position is the neighbor along the chosen arc
        EXPECT_EQ(p.pos, mesh_.neighbor(a.node, a.out));
      }
    }
   private:
    const net::Mesh& mesh_;
  } check(mesh);
  engine.add_observer(&check);
  EXPECT_TRUE(engine.run().completed);
}

TEST(Engine, GoodnessTravelsAsOneMask) {
  // Definition 5 reaches policies and observers only as the good-direction
  // mask; every other goodness fact is derived from it, not stored.
  EXPECT_LE(sizeof(sim::PacketView), 24u);
  EXPECT_LE(sizeof(sim::Assignment), 20u);
  sim::Assignment a;
  a.out = 2;
  a.good_mask = 0b0100;
  a.prev_advanced = true;
  a.prev_num_good = 1;
  EXPECT_TRUE(a.advances());
  EXPECT_EQ(a.num_good(), 1);
  EXPECT_TRUE(a.was_type_a());
  a.good_mask = 0b1001;
  EXPECT_FALSE(a.advances());
  EXPECT_EQ(a.num_good(), 2);
  EXPECT_FALSE(a.was_type_a());
}

TEST(Engine, DeterministicPoliciesReproduce) {
  net::Mesh mesh(2, 8);
  Rng rng(99);
  auto problem = workload::random_many_to_many(mesh, 40, rng);
  FirstGoodPolicy p1, p2;
  sim::Engine e1(mesh, problem, p1), e2(mesh, problem, p2);
  const auto r1 = e1.run(), r2 = e2.run();
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.total_deflections, r2.total_deflections);
  for (std::size_t i = 0; i < r1.packets.size(); ++i) {
    EXPECT_EQ(r1.packets[i].arrived_at, r2.packets[i].arrived_at);
  }
}

TEST(Engine, PacketResolvesThisStepsArrivalsWithOrWithoutArchive) {
  // Engine::packet() answers an arrival of the current step from the
  // archive index when there is one and from the step's arrival buffer
  // when there is not; an archive-less engine forgets the arrival once a
  // later step replaces that buffer.
  for (const bool archive : {true, false}) {
    net::Mesh mesh(2, 8);
    Rng rng(5);
    auto problem = workload::random_permutation(mesh, rng);
    FirstGoodPolicy policy;
    sim::EngineConfig config;
    config.archive_arrivals = archive;
    sim::Engine engine(mesh, problem, policy, config);

    class ArrivalLookup : public sim::StepObserver {
     public:
      void on_step(const sim::Engine& engine,
                   const sim::StepRecord& record) override {
        for (const sim::Packet& p : record.arrivals) {
          const sim::Packet found = engine.packet(p.id);
          EXPECT_EQ(found.arrived_at, record.step + 1);
          EXPECT_EQ(found.dst, p.dst);
          EXPECT_EQ(found.deflections, p.deflections);
          EXPECT_EQ(engine.packet_dst(p.id), p.dst);
          if (first < 0) {
            first = p.id;
            first_arrival = p.arrived_at;
          }
        }
      }
      sim::PacketId first = -1;
      std::uint64_t first_arrival = 0;
    } lookup;
    engine.add_observer(&lookup);
    ASSERT_TRUE(engine.run().completed);
    ASSERT_GE(lookup.first, 0);
    ASSERT_LT(lookup.first_arrival, engine.last_arrival_step());
    if (archive) {
      EXPECT_EQ(engine.packet(lookup.first).arrived_at, lookup.first_arrival);
    } else {
      EXPECT_THROW(engine.packet(lookup.first), CheckError);
    }
  }
}

TEST(Engine, RouteTasksWriteTheStepsAssignmentsInPlace) {
  // Route tasks write each node's assignments straight into the step's
  // array, so no thread count keeps a second copy of it, and the sequence
  // is the serial one. 3 packets/node on 16x16 stay under 1024 slots, so
  // occupancy and move run serially, while 256 occupied nodes give 4
  // route tasks at 4 threads.
  net::Mesh mesh(2, 16);
  Rng rng(7);
  const auto problem = workload::saturated_random(mesh, 3, rng);

  class Capture : public sim::StepObserver {
   public:
    void on_step(const sim::Engine& /*engine*/,
                 const sim::StepRecord& record) override {
      assignments.assign(record.assignments.begin(),
                         record.assignments.end());
    }
    std::vector<sim::Assignment> assignments;
  };
  Capture capture[2];
  std::size_t scratch[2] = {};
  const int threads[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    FirstGoodPolicy policy;
    sim::EngineConfig config;
    config.num_threads = threads[k];
    sim::Engine engine(mesh, problem, policy, config);
    engine.add_observer(&capture[k]);
    ASSERT_TRUE(engine.step());
    scratch[k] = engine.memory_stats().scratch_bytes;
  }

  const auto& serial = capture[0].assignments;
  const auto& sharded = capture[1].assignments;
  ASSERT_GT(serial.size(), 700u);
  EXPECT_LT(scratch[1], scratch[0] + serial.size() * sizeof(sim::Assignment));
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].pkt, sharded[i].pkt);
    EXPECT_EQ(serial[i].node, sharded[i].node);
    EXPECT_EQ(serial[i].out, sharded[i].out);
    EXPECT_EQ(serial[i].good_mask, sharded[i].good_mask);
    EXPECT_EQ(serial[i].prev_advanced, sharded[i].prev_advanced);
    EXPECT_EQ(serial[i].prev_num_good, sharded[i].prev_num_good);
  }
}

TEST(StateDigest, DistinguishesConfigurations) {
  std::vector<sim::Packet> a(2), b(2);
  a[0].id = 0; a[0].pos = 3; a[1].id = 1; a[1].pos = 5;
  b = a;
  b[1].pos = 6;
  EXPECT_EQ(sim::digest_state(a), sim::digest_state(a));
  EXPECT_FALSE(sim::digest_state(a) == sim::digest_state(b));
}

TEST(StateDigest, IgnoresArrivedPackets) {
  std::vector<sim::Packet> a(2);
  a[0].id = 0; a[0].pos = 3;
  a[1].id = 1; a[1].pos = 5; a[1].arrived_at = 7;
  auto b = a;
  b[1].pos = 9;  // arrived packet's stale position must not matter
  EXPECT_EQ(sim::digest_state(a), sim::digest_state(b));
}

TEST(LivelockDetector, ReportsRepeats) {
  sim::LivelockDetector det;
  sim::StateDigest d1{1, 2}, d2{3, 4};
  EXPECT_EQ(det.record(d1, 10), sim::LivelockDetector::kNoRepeat);
  EXPECT_EQ(det.record(d2, 11), sim::LivelockDetector::kNoRepeat);
  EXPECT_EQ(det.record(d1, 12), 10u);
}

}  // namespace
}  // namespace hp
