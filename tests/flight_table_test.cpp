// FlightTable columns and the ArrivalLog archive (docs/SCALE.md): the
// engine's memory footprint, overflow boundaries of the 32-bit bookkeeping
// columns and the 32-bit id space, serialization of the locator window,
// and the archive's count-only and record-keeping behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "routing/restricted_priority.hpp"
#include "sim/engine.hpp"
#include "sim/flight_table.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using sim::Packet;
using sim::PacketId;

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

Packet flying(PacketId id, net::NodeId src, net::NodeId dst,
              net::NodeId pos) {
  Packet p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.pos = pos;
  return p;
}

// --- footprint ---------------------------------------------------------------

TEST(EngineMemory, ArcTableAndColumnsStayCompact) {
  net::Mesh mesh(2, 32);
  Rng rng(3);
  auto problem = workload::saturated_random(mesh, 4, rng);
  routing::RestrictedPriorityPolicy policy;
  sim::EngineConfig config;
  config.archive_arrivals = false;
  sim::Engine engine(mesh, problem, policy, config);
  const auto stats = engine.memory_stats();
  // One 32-bit arc word per node.
  EXPECT_EQ(stats.topology_bytes, 4 * mesh.num_nodes());
  // Ten columns of at most 32 bits (31 B) plus a 4-B locator entry per
  // packet; vector capacity at most doubles that.
  const std::size_t packets = engine.in_flight();
  EXPECT_GE(stats.flight_bytes, 35 * packets);
  EXPECT_LE(stats.flight_bytes, 2 * 35 * packets);
  // One unpadded bucket per node: 16 ids and a 32-bit size.
  EXPECT_LE(stats.occupancy_bytes, 68 * mesh.num_nodes());
}

// --- overflow boundaries ----------------------------------------------------

TEST(ColumnWidth, CompactInjectedAtOverflowIsCheckedNotTruncated) {
  sim::FlightTable table;
  Packet p = flying(0, 1, 2, 1);
  p.injected_at = std::uint64_t{kU32Max} + 1;
  try {
    table.insert(p);
    FAIL() << "an injected_at past 2^32 - 1 must not be stored";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injected_at"), std::string::npos) << what;
    EXPECT_EQ(what.find("kWide"), std::string::npos) << what;
  }
  EXPECT_TRUE(table.empty());

  p.injected_at = kU32Max;  // the largest representable value is kept
  table.insert(p);
  EXPECT_EQ(table.injected_at(0), std::uint64_t{kU32Max});
}

TEST(ColumnWidth, CompactDeflectionCounterSaturatesWithAnError) {
  sim::FlightTable table;
  Packet p = flying(0, 1, 2, 1);
  p.deflections = kU32Max;  // representable, but the next bump is not
  table.insert(p);
  try {
    table.move(0, 3, 1, /*advanced=*/false, 1);
    FAIL() << "a deflection count past 2^32 - 1 must not wrap";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deflections"), std::string::npos) << what;
    EXPECT_EQ(what.find("kWide"), std::string::npos) << what;
  }
  EXPECT_EQ(table.deflections(0), std::uint64_t{kU32Max});
  // Advancing moves do not touch the counter and stay fine.
  EXPECT_NO_THROW(table.move(0, 3, 1, /*advanced=*/true, 1));
}

TEST(FlightTableIds, NodeIdAtInt32MaxRoundTrips) {
  constexpr net::NodeId big = std::numeric_limits<net::NodeId>::max();
  sim::FlightTable table;
  table.insert(flying(0, big, big - 1, big));
  EXPECT_EQ(table.pos(0), big);
  EXPECT_EQ(table.src(0), big);
  const Packet out = table.remove(0, 1);
  EXPECT_EQ(out.pos, big);
}

TEST(FlightTableIds, IdsCrossTheInt32SignBoundary) {
  // Ids are dense uint32 sequence numbers stored in an int32: past 2^31−1
  // they wrap negative, and the locator window must keep resolving them.
  const std::uint64_t base = (std::uint64_t{1} << 31) - 2;
  sim::FlightTable table;
  table.reset_window(base, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto id =
        static_cast<PacketId>(static_cast<std::uint32_t>(base + i));
    table.insert(flying(id, 1, 2, 1));
  }
  EXPECT_EQ(table.size(), 4u);
  const auto wrapped =
      static_cast<PacketId>(static_cast<std::uint32_t>(base + 2));
  EXPECT_LT(wrapped, 0);  // genuinely negative int32
  const auto slot = table.slot_of(wrapped);
  ASSERT_NE(slot, sim::FlightTable::kNoSlot);
  EXPECT_EQ(table.id(slot), wrapped);
  const Packet out = table.remove(slot, 5);
  EXPECT_EQ(out.id, wrapped);
  EXPECT_EQ(table.slot_of(wrapped), sim::FlightTable::kNoSlot);
}

TEST(FlightTableIds, FullUint32WrapIsRejected) {
  // The id space ends at 2^32 − 1: the id after that would alias id 0, so
  // insert refuses it rather than corrupting the locator.
  const std::uint64_t last = kU32Max;
  sim::FlightTable table;
  table.reset_window(last, 0);
  table.insert(flying(static_cast<PacketId>(static_cast<std::uint32_t>(last)),
                      1, 2, 1));
  EXPECT_THROW(table.insert(flying(0, 1, 2, 1)), CheckError);
}

TEST(FlightTableIds, ResetWindowDemandsAFreshTable) {
  sim::FlightTable table;
  table.insert(flying(0, 1, 2, 1));
  EXPECT_THROW(table.reset_window(100, 0), CheckError);
  sim::FlightTable fresh;
  EXPECT_THROW(fresh.reset_window(kU32Max, 2), CheckError);  // past 2^32
}

// --- serialization ----------------------------------------------------------

TEST(FlightTableSerialize, RoundTripIsExact) {
  sim::FlightTable table;
  for (PacketId id = 0; id < 6; ++id) {
    Packet p = flying(id, id, 30 + id, 2 * id);
    p.injected_at = static_cast<std::uint64_t>(id);
    p.deflections = static_cast<std::uint64_t>(3 * id);
    table.insert(p);
  }
  table.remove(1, 7);  // leave a hole so the locator window is non-trivial

  std::ostringstream sink;
  util::BinWriter w(sink);
  table.serialize(w);
  w.flush();

  std::istringstream source(sink.str());
  util::BinReader r(source, "checkpoint");
  sim::FlightTable restored;
  restored.deserialize(r);
  ASSERT_EQ(restored.size(), table.size());
  for (sim::FlightTable::Slot s = 0; s < table.end_slot(); ++s) {
    const Packet a = table.materialize(s);
    const Packet b = restored.materialize(s);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.pos, b.pos);
    EXPECT_EQ(a.injected_at, b.injected_at);
    EXPECT_EQ(a.deflections, b.deflections);
  }
  // The restored window accepts exactly the next dense id.
  EXPECT_NO_THROW(restored.insert(flying(6, 0, 1, 0)));
}

TEST(FlightTableSerialize, TruncatedStreamFailsClearly) {
  sim::FlightTable table;
  table.insert(flying(0, 1, 2, 1));
  std::ostringstream sink;
  util::BinWriter w(sink);
  table.serialize(w);
  w.flush();
  const std::string bytes = sink.str();
  std::istringstream source(bytes.substr(0, bytes.size() / 2));
  util::BinReader r(source, "checkpoint");
  sim::FlightTable restored;
  EXPECT_THROW(restored.deserialize(r), CheckError);
}

/// A FlightTable stream with locator window [0, 4), reclaimed prefix
/// [0, 2) and one in-flight packet `id` — the layout serialize() writes.
std::string one_packet_stream(PacketId id) {
  std::ostringstream sink;
  util::BinWriter w(sink);
  w.u64(0);   // id_base
  w.u64(4);   // window
  w.u64(2);   // head: ids 0 and 1 have left flight
  w.u64(1);   // in-flight count
  w.i32(id);  // id
  w.i32(1);   // src
  w.i32(5);   // dst
  w.i32(3);   // pos
  w.i8(-1);   // entry_dir
  w.u8(0);    // prev_advanced
  w.i8(-1);   // prev_num_good
  w.u64(0);   // injected_at
  w.u64(0);   // deflections
  w.i32(4);   // initial_distance
  w.flush();
  return sink.str();
}

TEST(FlightTableSerialize, InFlightIdInTheReclaimedPrefixIsRejected) {
  // Restored, such a packet would lose its locator entry at the next
  // prefix reclaim and be routed through slot kNoSlot.
  std::istringstream bad(one_packet_stream(0));
  util::BinReader r(bad, "checkpoint");
  sim::FlightTable restored;
  EXPECT_THROW(restored.deserialize(r), CheckError);

  std::istringstream good(one_packet_stream(2));
  util::BinReader r2(good, "checkpoint");
  sim::FlightTable first_live;
  ASSERT_NO_THROW(first_live.deserialize(r2));
  EXPECT_EQ(first_live.slot_of(2), 0);
}

// --- ArrivalLog -------------------------------------------------------------

std::vector<Packet> arrivals(int n) {
  std::vector<Packet> out;
  for (PacketId id = 0; id < n; ++id) {
    Packet p = flying(id, id, id + 1, id + 1);
    p.arrived_at = static_cast<std::uint64_t>(id) + 3;
    p.deflections = static_cast<std::uint64_t>(id % 5);
    out.push_back(p);
  }
  return out;
}

TEST(ArrivalLog, CountOnlyModeDropsEverythingButCountsExactly) {
  sim::ArrivalLog log;
  log.set_keep_records(false);
  for (const Packet& p : arrivals(10)) log.append(p);
  EXPECT_EQ(log.count(), 10u);
  EXPECT_EQ(log.dropped(), 10u);
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(log.find(3), nullptr);
}

TEST(ArrivalLog, KeepsEveryRecordInArrivalOrderWithAnIdIndex) {
  auto packets = arrivals(50);
  std::swap(packets[3], packets[40]);  // arrival order is not id order
  sim::ArrivalLog log;
  for (const Packet& p : packets) log.append(p);
  EXPECT_EQ(log.count(), 50u);
  EXPECT_EQ(log.dropped(), 0u);
  ASSERT_EQ(log.records().size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(log.records()[i].id, packets[i].id);
  }
  for (const PacketId id : {PacketId{0}, PacketId{3}, PacketId{40}}) {
    const Packet* p = log.find(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, id);
    EXPECT_EQ(p->arrived_at, static_cast<std::uint64_t>(id) + 3);
  }
  EXPECT_EQ(log.find(50), nullptr);
}

TEST(ArrivalLog, ConfigureAfterAppendIsRejected) {
  // Record-keeping is the log's one setting; flipping it mid-run would
  // make dropped() and the checkpoint lie about what was kept.
  sim::ArrivalLog log;
  log.append(arrivals(1)[0]);
  EXPECT_THROW(log.set_keep_records(false), CheckError);
}

}  // namespace
}  // namespace hp
