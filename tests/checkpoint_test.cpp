// Checkpoint/restore round-trips (docs/SCALE.md): a run interrupted at
// step k and restored into a fresh engine must continue bit-for-bit — same
// fingerprint, same statistics, same archive — for every thread count, and
// every corrupt or mismatched checkpoint must fail with a clear error
// instead of undefined behavior.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "routing/perverse.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "topology/mesh.hpp"
#include "util/binio.hpp"
#include "util/check.hpp"
#include "workload/generators.hpp"

namespace hp {
namespace {

using test::make_problem;
using test::xy;

using routing::RestrictedPriorityPolicy;
using TieBreak = RestrictedPriorityPolicy::TieBreak;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

workload::Problem restored_problem() {
  workload::Problem p;
  p.name = "restored";
  return p;
}

RestrictedPriorityPolicy::Params random_params() {
  RestrictedPriorityPolicy::Params params;
  params.tie_break = TieBreak::kRandom;
  params.deflect = routing::DeflectRule::kRandom;
  return params;
}

/// The seed scenario every round-trip test below interrupts: a saturated
/// random workload on the 8×8 mesh.
workload::Problem scenario(const net::Network& net) {
  Rng rng(7);
  return workload::saturated_random(net, 2, rng);
}

sim::EngineConfig scenario_config(int threads) {
  sim::EngineConfig config;
  config.seed = 7;
  config.num_threads = threads;
  return config;
}

TEST(CheckpointRoundTrip, BitIdenticalAcrossThreadsAndPolicies) {
  constexpr std::uint64_t kTotal = 30;
  constexpr std::uint64_t kSplit = 9;
  net::Mesh mesh(2, 8);

  for (const bool random_policy : {false, true}) {
    const auto params = random_policy ? random_params()
                                      : RestrictedPriorityPolicy::Params{};
    for (const int threads : {1, 2, 4, 8}) {
      // Uninterrupted reference run.
      auto full_problem = scenario(mesh);
      RestrictedPriorityPolicy full_policy(params);
      sim::Engine full(mesh, full_problem, full_policy,
                       scenario_config(threads));
      full.run_for(kTotal);
      const std::uint64_t want = sim::state_fingerprint(full);

      // Same run, interrupted at kSplit.
      auto head_problem = scenario(mesh);
      RestrictedPriorityPolicy head_policy(params);
      sim::Engine head(mesh, head_problem, head_policy,
                       scenario_config(threads));
      head.run_for(kSplit);
      std::ostringstream sink;
      sim::save_checkpoint(head, sink);

      auto tail_problem = restored_problem();
      RestrictedPriorityPolicy tail_policy(params);
      sim::Engine tail(mesh, tail_problem, tail_policy,
                       scenario_config(threads));
      std::istringstream source(sink.str());
      sim::restore_checkpoint(tail, source);
      EXPECT_EQ(tail.now(), kSplit);
      EXPECT_EQ(tail.in_flight(), head.in_flight());
      EXPECT_EQ(sim::state_fingerprint(tail), sim::state_fingerprint(head));

      tail.run_for(kTotal - kSplit);
      EXPECT_EQ(sim::state_fingerprint(tail), want)
          << "threads " << threads << " random_policy " << random_policy;
      EXPECT_EQ(tail.delivered(), full.delivered());
      EXPECT_EQ(tail.now(), full.now());
    }
  }
}

TEST(CheckpointRoundTrip, CheckpointBytesAreThreadCountInvariant) {
  net::Mesh mesh(2, 8);
  std::string baseline;
  for (const int threads : {1, 2, 4, 8}) {
    auto problem = scenario(mesh);
    RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy, scenario_config(threads));
    engine.run_for(11);
    std::ostringstream sink;
    sim::save_checkpoint(engine, sink);
    if (threads == 1) {
      baseline = sink.str();
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(sink.str(), baseline) << "threads " << threads;
    }
  }
}

TEST(CheckpointRoundTrip, CompletedRunStatisticsSurvive) {
  net::Mesh mesh(2, 8);
  Rng rng_a(3);
  Rng rng_b(3);
  auto full_problem = workload::random_permutation(mesh, rng_a);
  auto head_problem = workload::random_permutation(mesh, rng_b);

  RestrictedPriorityPolicy full_policy;
  sim::Engine full(mesh, full_problem, full_policy, scenario_config(1));
  const auto want = full.run();
  ASSERT_TRUE(want.completed);

  RestrictedPriorityPolicy head_policy;
  sim::Engine head(mesh, head_problem, head_policy, scenario_config(1));
  head.run_for(want.steps / 2);
  std::ostringstream sink;
  sim::save_checkpoint(head, sink);

  auto tail_problem = restored_problem();
  RestrictedPriorityPolicy tail_policy;
  sim::Engine tail(mesh, tail_problem, tail_policy, scenario_config(1));
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);
  const auto got = tail.run();

  EXPECT_TRUE(got.completed);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.total_deflections, want.total_deflections);
  EXPECT_EQ(got.total_advances, want.total_advances);
  ASSERT_EQ(got.packets.size(), want.packets.size());
  for (std::size_t i = 0; i < want.packets.size(); ++i) {
    EXPECT_EQ(got.packets[i].id, want.packets[i].id);
    EXPECT_EQ(got.packets[i].arrived_at, want.packets[i].arrived_at);
    EXPECT_EQ(got.packets[i].deflections, want.packets[i].deflections);
  }
}

TEST(CheckpointRoundTrip, ArchiveRecordsSurvive) {
  net::Mesh mesh(2, 8);
  auto head_problem = scenario(mesh);
  RestrictedPriorityPolicy head_policy;
  sim::Engine head(mesh, head_problem, head_policy, scenario_config(1));
  head.run_for(12);
  ASSERT_GT(head.archive().size(), 0u) << "scenario must deliver by step 12";

  std::ostringstream sink;
  sim::save_checkpoint(head, sink);
  auto tail_problem = restored_problem();
  RestrictedPriorityPolicy tail_policy;
  sim::Engine tail(mesh, tail_problem, tail_policy, scenario_config(1));
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);

  const auto a = head.archive();
  const auto b = tail.archive();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrived_at, b[i].arrived_at);
    EXPECT_EQ(a[i].deflections, b[i].deflections);
  }
  // The id index was rebuilt, not just the records.
  EXPECT_NE(tail.arrival_log().find(a[0].id), nullptr);
}

TEST(CheckpointRoundTrip, CrossThreadRestoreIsBitIdentical) {
  // A checkpoint written by a serial engine restores into a threaded one
  // (and back): the thread count is not part of the state.
  constexpr std::uint64_t kTotal = 24;
  constexpr std::uint64_t kSplit = 7;
  net::Mesh mesh(2, 8);

  auto full_problem = scenario(mesh);
  RestrictedPriorityPolicy full_policy;
  sim::Engine full(mesh, full_problem, full_policy, scenario_config(1));
  full.run_for(kTotal);
  const std::uint64_t want = sim::state_fingerprint(full);

  for (const auto& [head_threads, tail_threads] :
       {std::pair{1, 4}, std::pair{4, 1}}) {
    auto head_problem = scenario(mesh);
    RestrictedPriorityPolicy head_policy;
    sim::Engine head(mesh, head_problem, head_policy,
                     scenario_config(head_threads));
    head.run_for(kSplit);
    std::ostringstream sink;
    sim::save_checkpoint(head, sink);

    auto tail_problem = restored_problem();
    RestrictedPriorityPolicy tail_policy;
    sim::Engine tail(mesh, tail_problem, tail_policy,
                     scenario_config(tail_threads));
    std::istringstream source(sink.str());
    sim::restore_checkpoint(tail, source);
    tail.run_for(kTotal - kSplit);
    EXPECT_EQ(sim::state_fingerprint(tail), want)
        << "threads " << head_threads << " -> " << tail_threads;
  }
}

TEST(CheckpointRoundTrip, SpansALivelockDetection) {
  // The frozen greedy livelock from livelock_test.cpp (found by
  // livelock_search on the 4×4 torus, search seed 8): interrupting before
  // the detector fires must not lose the seen-state map — the restored
  // run proves the cycle at exactly the same step.
  net::Mesh torus(2, 4, /*wrap=*/true);
  const auto specs = std::vector<workload::PacketSpec>{
      {torus.node_at(xy(2, 2)), torus.node_at(xy(2, 2))},
      {torus.node_at(xy(2, 1)), torus.node_at(xy(2, 2))},
      {torus.node_at(xy(0, 1)), torus.node_at(xy(2, 1))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(3, 1))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(0, 2))},
      {torus.node_at(xy(1, 2)), torus.node_at(xy(3, 2))},
      {torus.node_at(xy(3, 2)), torus.node_at(xy(1, 2))},
      {torus.node_at(xy(1, 2)), torus.node_at(xy(2, 2))},
  };
  sim::EngineConfig config;
  config.max_steps = 50'000;

  auto full_problem = make_problem(specs);
  routing::PerverseGreedyPolicy full_policy;
  sim::Engine full(torus, full_problem, full_policy, config);
  const auto want = full.run();
  ASSERT_TRUE(want.livelocked);
  ASSERT_GT(want.steps_executed, 1u);
  const std::uint64_t split = want.steps_executed / 2;

  auto head_problem = make_problem(specs);
  routing::PerverseGreedyPolicy head_policy;
  sim::Engine head(torus, head_problem, head_policy, config);
  head.run_for(split);
  ASSERT_FALSE(head.livelocked());
  std::ostringstream sink;
  sim::save_checkpoint(head, sink);

  auto tail_problem = restored_problem();
  routing::PerverseGreedyPolicy tail_policy;
  sim::Engine tail(torus, tail_problem, tail_policy, config);
  std::istringstream source(sink.str());
  sim::restore_checkpoint(tail, source);
  const auto got = tail.run();
  EXPECT_TRUE(got.livelocked);
  // steps_executed is the absolute step clock: the restored run must
  // prove the cycle at exactly the step the uninterrupted one did — the
  // seen-state map crossed the checkpoint intact.
  EXPECT_EQ(got.steps_executed, want.steps_executed);
  EXPECT_EQ(sim::state_fingerprint(tail), sim::state_fingerprint(full));
}

TEST(CheckpointRoundTrip, StandardScenarioBytesAndFingerprintArePinned) {
  // Captured before the codec moved to 64 KiB blocks: the block size must
  // be invisible in the checkpoint bytes and in the state fingerprint. The
  // 8×8 checkpoint fits in one block; the 32×32 one spans several.
  struct Golden {
    int side;
    std::size_t size;
    std::uint64_t byte_fnv;
    std::uint64_t fingerprint;
  };
  for (const Golden& g :
       {Golden{8, 6596, 0x8896bfd535dd6fbeULL, 0xb1a3ce3cefa2159bULL},
        Golden{32, 83204, 0x3cef38caa9d6f54cULL, 0x73bcded60cbe3b0fULL}}) {
    net::Mesh mesh(2, g.side);
    auto problem = scenario(mesh);
    RestrictedPriorityPolicy policy;
    sim::Engine engine(mesh, problem, policy, scenario_config(1));
    engine.run_for(9);
    std::ostringstream sink;
    sim::save_checkpoint(engine, sink);
    const std::string bytes = sink.str();
    std::uint64_t byte_fnv = util::kFnvOffset;
    for (const char c : bytes) {
      byte_fnv = util::fnv1a_byte(byte_fnv, static_cast<std::uint8_t>(c));
    }
    EXPECT_EQ(bytes.size(), g.size) << "side " << g.side;
    EXPECT_EQ(byte_fnv, g.byte_fnv) << "side " << g.side;
    EXPECT_EQ(sim::state_fingerprint(engine), g.fingerprint)
        << "side " << g.side;
  }
}

// --- failure modes ----------------------------------------------------------

/// A valid checkpoint of the standard scenario at step 9, as raw bytes.
std::string scenario_checkpoint(const net::Network& net) {
  auto problem = scenario(net);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(net, problem, policy, scenario_config(1));
  engine.run_for(9);
  std::ostringstream sink;
  sim::save_checkpoint(engine, sink);
  return sink.str();
}

void expect_restore_fails(const net::Network& net, const std::string& bytes,
                          sim::EngineConfig config = scenario_config(1)) {
  auto problem = restored_problem();
  RestrictedPriorityPolicy policy;
  sim::Engine engine(net, problem, policy, config);
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

TEST(CheckpointFailure, TruncatedFileIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{6}, bytes.size() / 2, bytes.size() - 1}) {
    expect_restore_fails(mesh, bytes.substr(0, keep));
  }
}

TEST(CheckpointFailure, CorruptedBytesAreRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  // Flip the magic, a header byte, and the digest trailer in turn.
  for (const std::size_t at : {std::size_t{0}, std::size_t{12},
                               bytes.size() - 1}) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x5a);
    expect_restore_fails(mesh, bad);
  }
}

TEST(CheckpointFailure, VersionSkewIsRejected) {
  net::Mesh mesh(2, 8);
  std::string bytes = scenario_checkpoint(mesh);
  bytes[4] = static_cast<char>(sim::kCheckpointVersion + 1);  // version word
  expect_restore_fails(mesh, bytes);
}

TEST(CheckpointFailure, TopologyMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  net::Mesh torus(2, 8, /*wrap=*/true);
  expect_restore_fails(torus, bytes);
}

TEST(CheckpointFailure, SeedMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto config = scenario_config(1);
  config.seed = 8;
  expect_restore_fails(mesh, bytes, config);
}

TEST(CheckpointFailure, PolicyMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto problem = restored_problem();
  routing::PerverseGreedyPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

TEST(CheckpointFailure, ArchiveFlagMismatchIsRejected) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  auto config = scenario_config(1);
  config.archive_arrivals = false;
  expect_restore_fails(mesh, bytes, config);
}

TEST(CheckpointFailure, RestoreNeedsAFreshEngine) {
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  // An engine that already injected its problem is not fresh.
  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  std::istringstream source(bytes);
  EXPECT_THROW(sim::restore_checkpoint(engine, source), CheckError);
}

/// Rewrites the digest trailer over the (edited) payload exactly as
/// BinWriter computes it, so only semantic validation can catch the edit.
void reseal(std::string& bytes) {
  const std::size_t payload = bytes.size() - 8;
  std::uint64_t digest = util::kFnvOffset;
  for (std::size_t i = 0; i < payload; ++i) {
    digest = util::fnv1a_byte(digest, static_cast<std::uint8_t>(bytes[i]));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[payload + i] = static_cast<char>(digest >> (8 * i));
  }
}

void put_i32(std::string& bytes, std::size_t at, std::int32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>(static_cast<std::uint32_t>(v) >> (8 * i));
  }
}

TEST(CheckpointFailure, OutOfRangeFlightNodesAreRejected) {
  // A checkpoint whose digest is intact but whose first in-flight record
  // names a node or entry arc outside the network: occupancy and the
  // arc table would index per-node arrays with it.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  RestrictedPriorityPolicy policy;
  // Header (magic, version, names, shape, seed), counters (6 × u64 + u8),
  // the FlightTable window (4 × u64), then the first record's id, src,
  // dst and pos as i32s and its entry arc as an i8.
  const std::size_t first_record = 4 + 4 + (4 + mesh.name().size()) + 8 +
                                   4 + (4 + policy.name().size()) + 8 +
                                   (6 * 8 + 1) + 4 * 8;
  const std::size_t src_at = first_record + 4;
  const std::size_t dst_at = first_record + 8;
  const std::size_t pos_at = first_record + 12;
  const std::size_t entry_at = first_record + 16;

  std::string resealed = bytes;
  reseal(resealed);
  ASSERT_EQ(resealed, bytes) << "reseal must reproduce the writer's trailer";

  const std::int32_t outside[] = {static_cast<std::int32_t>(mesh.num_nodes()),
                                  -1, std::int32_t{1} << 30};
  for (const std::size_t at : {src_at, dst_at, pos_at}) {
    for (const std::int32_t v : outside) {
      std::string bad = bytes;
      put_i32(bad, at, v);
      reseal(bad);
      expect_restore_fails(mesh, bad);
    }
  }
  for (const std::int8_t dir : {std::int8_t{4}, std::int8_t{-2}}) {
    std::string bad = bytes;
    bad[entry_at] = static_cast<char>(dir);
    reseal(bad);
    expect_restore_fails(mesh, bad);
  }
}

TEST(CheckpointFailure, TrailingBytesAreRejected) {
  // A checkpoint stream holds exactly one checkpoint: anything after the
  // digest trailer, even a second valid checkpoint, is corruption.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  expect_restore_fails(mesh, bytes + '\0');
  expect_restore_fails(mesh, bytes + bytes);
  expect_restore_fails(mesh, bytes + std::string(70'000, 'x'));
}

TEST(CheckpointFailure, HugeLivelockCountFailsAsTruncation) {
  // The seen-state count is read before the trailer is checked, so it must
  // not size an allocation: a resealed count of 2^40 entries ends in a
  // CheckError when the bytes run out, not in bad_alloc.
  net::Mesh mesh(2, 8);
  const std::string bytes = scenario_checkpoint(mesh);
  // The livelock section closes the payload: a u64 count, then 24 bytes
  // per entry, then the 8-byte trailer.
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[at + i]))
           << (8 * i);
    }
    return v;
  };
  std::vector<std::size_t> count_at;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const std::size_t at = bytes.size() - 8 - 24 * k - 8;
    if (u64_at(at) == k) count_at.push_back(at);
  }
  ASSERT_EQ(count_at.size(), 1u) << "livelock section not found";

  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  std::string bad = bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bad[count_at[0] + i] = static_cast<char>(kHuge >> (8 * i));
  }
  reseal(bad);
  expect_restore_fails(mesh, bad);
}

/// A streambuf that accepts `capacity` bytes and then fails every write:
/// a device that fills up part-way through a checkpoint.
class ShortWriteBuf : public std::streambuf {
 public:
  explicit ShortWriteBuf(std::size_t capacity) : left_(capacity) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    if (left_ == 0) return traits_type::eof();
    --left_;
    return ch;
  }

 private:
  std::size_t left_;
};

TEST(CheckpointFailure, ShortWriteIsRejected) {
  net::Mesh mesh(2, 8);
  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  engine.run_for(9);
  std::ostringstream full;
  sim::save_checkpoint(engine, full);
  const std::size_t size = full.str().size();

  for (const std::size_t capacity :
       {std::size_t{0}, std::size_t{6}, size / 2, size - 8, size - 1}) {
    ShortWriteBuf buf(capacity);
    std::ostream out(&buf);
    EXPECT_THROW(sim::save_checkpoint(engine, out), CheckError)
        << "device full after " << capacity << " of " << size << " bytes";
  }
  ShortWriteBuf roomy(size);
  std::ostream out(&roomy);
  EXPECT_NO_THROW(sim::save_checkpoint(engine, out));
}

/// Caps this process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so a
/// write past the cap fails with EFBIG like a full disk; restores both.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    ok_ = setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

TEST(CheckpointFailure, RejectedSaveKeepsThePreviousFile) {
  // A save that runs out of space part-way must leave the last good
  // checkpoint byte-identical and no temporary file behind.
  net::Mesh mesh(2, 8);
  const std::string path = testing::TempDir() + "hp_ckpt_atomic.hpck";
  std::filesystem::remove(path);

  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  engine.run_for(9);
  sim::save_checkpoint(engine, path);
  const std::string before = read_file(path);
  ASSERT_GT(before.size(), 256u);

  engine.run_for(3);  // a later state, so a successful save would differ
  {
    const FileSizeCap cap(256);
    ASSERT_TRUE(cap.ok());
    EXPECT_THROW(sim::save_checkpoint(engine, path), CheckError);
  }

  EXPECT_EQ(read_file(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // With the cap lifted the same save goes through.
  sim::save_checkpoint(engine, path);
  EXPECT_NE(read_file(path), before);
  std::filesystem::remove(path);
}

TEST(CheckpointFailure, NonRegularPathIsRefused) {
  // The save renames its temporary file over `path`; a FIFO (like a
  // device) there must be refused, left as it was, with no temporary file.
  net::Mesh mesh(2, 8);
  const std::string path = testing::TempDir() + "hp_ckpt_fifo.hpck";
  std::filesystem::remove(path);
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);

  auto problem = scenario(mesh);
  RestrictedPriorityPolicy policy;
  sim::Engine engine(mesh, problem, policy, scenario_config(1));
  engine.run_for(9);
  EXPECT_THROW(sim::save_checkpoint(engine, path), CheckError);

  EXPECT_TRUE(std::filesystem::is_fifo(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hp
