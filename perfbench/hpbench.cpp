// hpbench — one job of the repository benchmark (README.md here).
//
// A job generates its problem from the seed, builds the engine, runs it,
// checkpoints and restores it, and digests the result, then prints one
// JSON line: its semantic outputs (for the correctness checks), its host
// timings and the process's peak resident memory. run.py drives the closed
// loop: it starts the next job, in a fresh process, when this one ends.
//
// Layers are timed from outside the library: by wrapping the public
// extension points (RoutingPolicy, StepObserver, LoadableSystem), by timing
// calls into the public API, and by reading the engine's own phase
// profiler. Only traced jobs (--traced 1) carry that instrumentation, and a
// traced job must reproduce the untraced job's semantic outputs exactly.
//
// usage: hpbench --workload sat512|probe64 --seed N
//                --traced 0|1 --tmp DIR
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkers.hpp"
#include "core/potential.hpp"
#include "core/surface.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "routing/restricted_priority.hpp"
#include "sim/admission.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/livelock.hpp"
#include "stats/sweep.hpp"
#include "topology/mesh.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/traffic.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// --- JSON output -----------------------------------------------------------

/// Ordered "key": value members of one JSON object, values pre-rendered.
class Fields {
 public:
  void num(const std::string& key, double v) {
    add(key, hp::obs::json_number(v));
  }
  void count(const std::string& key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void flag(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void text(const std::string& key, const std::string& v) {
    add(key, "\"" + hp::obs::json_escape(v) + "\"");
  }
  void hex(const std::string& key, std::uint64_t v) {
    std::ostringstream s;
    s << "0x" << std::hex << v;
    text(key, s.str());
  }
  void object(const std::string& key, const Fields& inner) {
    add(key, inner.render());
  }
  void series(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += hp::obs::json_number(values[i]);
    }
    add(key, out + "]");
  }

  void merge(const Fields& other) {
    members_.insert(members_.end(), other.members_.begin(),
                    other.members_.end());
  }

  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + hp::obs::json_escape(members_[i].first) +
             "\": " + members_[i].second;
    }
    return out + "}";
  }

 private:
  void add(const std::string& key, std::string value) {
    members_.emplace_back(key, std::move(value));
  }
  std::vector<std::pair<std::string, std::string>> members_;
};

// --- Layer decorators --------------------------------------------------------

/// Times the routing layer from outside: a transparent RoutingPolicy
/// wrapper. Every query the engine, the checkpoint header and the livelock
/// logic ask of a policy is forwarded, so the wrapped run is the same run.
/// route() runs concurrently on the engine's threads, so counters are kept
/// per thread and summed once the engine is idle.
class TimedPolicy final : public hp::sim::RoutingPolicy {
 public:
  struct Counters {
    std::uint64_t route_ns = 0;
    std::uint64_t route_calls = 0;
    std::uint64_t packets = 0;
    std::uint64_t advances = 0;
    std::uint64_t mask_ns = 0;
    std::uint64_t mask_packets = 0;
  };

  /// With `step_clock`, route() also stamps the wall time of the first
  /// call of every step: the per-step clock of runs whose step() calls the
  /// benchmark cannot reach. Single-threaded engines only.
  TimedPolicy(hp::sim::RoutingPolicy& inner, bool step_clock)
      : inner_(inner), generation_(next_generation()),
        step_clock_(step_clock) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  bool claims_greedy() const override { return inner_.claims_greedy(); }
  bool claims_restricted_preference() const override {
    return inner_.claims_restricted_preference();
  }

  void route(const hp::sim::NodeContext& ctx,
             std::span<const hp::sim::PacketView> packets,
             std::span<hp::net::Dir> out) override {
    Slot& slot = local_slot();
    const auto start = Clock::now();
    if (step_clock_ && ctx.step != last_step_) {
      last_step_ = ctx.step;
      step_starts_.push_back(start);
    }
    inner_.route(ctx, packets, out);
    const auto stop = Clock::now();
    slot.c.route_ns += ns_between(start, stop);
    ++slot.c.route_calls;
    slot.c.packets += packets.size();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if ((packets[i].good_mask >> static_cast<unsigned>(out[i])) & 1u) {
        ++slot.c.advances;
      }
    }
  }

  void batch_good_dirs(const hp::net::Network& net,
                       const hp::net::NodeId* at, const hp::net::NodeId* dst,
                       std::uint32_t* out_masks,
                       std::size_t count) const override {
    Slot& slot = local_slot();
    const auto start = Clock::now();
    inner_.batch_good_dirs(net, at, dst, out_masks, count);
    slot.c.mask_ns += ns_between(start, Clock::now());
    slot.c.mask_packets += count;
  }

  /// Sum over threads. Call only while the engine is between steps.
  Counters totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    Counters sum;
    for (const Slot& s : slots_) {
      sum.route_ns += s.c.route_ns;
      sum.route_calls += s.c.route_calls;
      sum.packets += s.c.packets;
      sum.advances += s.c.advances;
      sum.mask_ns += s.c.mask_ns;
      sum.mask_packets += s.c.mask_packets;
    }
    return sum;
  }

  /// Wall time between consecutive step starts seen by the step clock.
  std::vector<double> step_intervals_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < step_starts_.size(); ++i) {
      out.push_back(static_cast<double>(
                        ns_between(step_starts_[i - 1], step_starts_[i])) /
                    1e6);
    }
    return out;
  }

 private:
  struct alignas(64) Slot {
    Counters c;
  };

  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// This thread's slot of this decorator. The thread-local cache is keyed
  /// by a process-unique generation, never by address, so a decorator
  /// built where a dead one lived cannot inherit its slot.
  Slot& local_slot() const {
    thread_local std::uint64_t cached_generation = 0;
    thread_local Slot* cached = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.emplace_back();  // deque: existing slots never move
      cached = &slots_.back();
      cached_generation = generation_;
    }
    return *cached;
  }

  hp::sim::RoutingPolicy& inner_;
  const std::uint64_t generation_;
  const bool step_clock_;
  mutable std::mutex mu_;
  mutable std::deque<Slot> slots_;
  std::uint64_t last_step_ = ~std::uint64_t{0};
  std::vector<Clock::time_point> step_starts_;
};

/// Times one analysis observer (a core:: checker or tracker).
class TimedObserver final : public hp::sim::StepObserver {
 public:
  explicit TimedObserver(hp::sim::StepObserver& inner) : inner_(inner) {}

  void on_step(const hp::sim::Engine& engine,
               const hp::sim::StepRecord& record) override {
    const auto start = Clock::now();
    inner_.on_step(engine, record);
    ns_ += ns_between(start, Clock::now());
  }

  double ms() const { return static_cast<double>(ns_) / 1e6; }

 private:
  hp::sim::StepObserver& inner_;
  std::uint64_t ns_ = 0;
};

// --- Job plumbing ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string tmp_dir = ".";
};

/// What one job reports: semantic outputs (deterministic, compared across
/// jobs, against the untraced job and against the recorded values),
/// end-to-end timings, and — traced jobs only — the layer ledger.
struct Job {
  bool traced = false;
  Fields semantic;
  Fields e2e;
  Fields layers;
  std::vector<double> step_ms;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return z ^ (z >> 33);
}

/// Order-independent hash over (packet id, arrival step) of every arrived
/// packet, plus the arrival count.
std::pair<std::uint64_t, std::uint64_t> arrival_digest(
    std::span<const hp::sim::Packet> packets) {
  std::uint64_t hash = 0;
  std::uint64_t arrived = 0;
  for (const auto& p : packets) {
    if (!p.arrived()) continue;
    ++arrived;
    hash += mix64((static_cast<std::uint64_t>(p.id) << 32) ^
                  mix64(p.arrived_at));
  }
  return {hash, arrived};
}

int engine_threads(int wanted) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(wanted, cores);
}

/// Profiler phases as layer metrics.
void phase_layers(const hp::obs::PhaseProfiler& prof, Fields& layers,
                  double& phases_ms) {
  using hp::obs::Phase;
  phases_ms = 0;
  for (Phase p : {Phase::kInject, Phase::kOccupancy, Phase::kRoute,
                  Phase::kApply, Phase::kObserve}) {
    const double ms = static_cast<double>(prof.stat(p).ns) / 1e6;
    phases_ms += ms;
    layers.num(std::string("phase.") + hp::obs::phase_name(p) + "_ms", ms);
  }
  for (Phase p : {Phase::kOccupancy, Phase::kRoute, Phase::kApply}) {
    layers.num(std::string("phase.") + hp::obs::phase_name(p) + "_imbalance",
               prof.shard_imbalance(p));
  }
}

void routing_layers(const TimedPolicy& policy, Fields& layers) {
  const auto c = policy.totals();
  layers.num("routing.route_ns", static_cast<double>(c.route_ns));
  layers.count("routing.route_calls", c.route_calls);
  layers.count("routing.packets", c.packets);
  layers.num("routing.advance_ratio",
             c.packets == 0 ? 0.0
                            : static_cast<double>(c.advances) /
                                  static_cast<double>(c.packets));
  layers.num("topology.good_masks_ns", static_cast<double>(c.mask_ns));
  layers.count("topology.good_masks_packets", c.mask_packets);
}

void memory_layers(const hp::sim::Engine& engine, Fields& layers) {
  const auto m = engine.memory_stats();
  layers.num("engine.bytes_per_node",
             static_cast<double>(m.total()) /
                 static_cast<double>(engine.network().num_nodes()));
  layers.count("engine.flight_bytes", m.flight_bytes);
  layers.count("engine.topology_bytes", m.topology_bytes);
  layers.count("engine.occupancy_bytes", m.occupancy_bytes);
}

/// Per-process checkpoint file, so concurrent jobs never share one.
std::string checkpoint_path(const Options& opt) {
  return opt.tmp_dir + "/" + opt.workload + "-" +
         std::to_string(::getpid()) + ".hpck";
}

/// Checkpoint round trips of one run. Each trip saves the live state to a
/// file, fingerprints it, lets the caller release it, builds an empty
/// engine, restores into it and fingerprints again; the two fingerprints
/// must agree. A job takes several trips spread over its length and
/// reports every one: run.py takes the median over all trips of all jobs,
/// which samples the host across the whole run rather than at a few
/// instants. The ledger accounts their sum.
class Checkpointer {
 public:
  using MakeEmpty = std::function<std::unique_ptr<hp::sim::Engine>()>;

  Checkpointer(std::string path, MakeEmpty make_empty)
      : path_(std::move(path)), make_empty_(std::move(make_empty)) {}

  std::unique_ptr<hp::sim::Engine> trip(
      const hp::sim::Engine& engine,
      const std::function<void()>& release_original = [] {}) {
    auto start = Clock::now();
    hp::sim::save_checkpoint(engine, path_);
    save_s_.push_back(seconds_since(start));
    bytes_ += std::filesystem::file_size(path_);

    start = Clock::now();
    const std::uint64_t before = hp::sim::state_fingerprint(engine);
    fingerprint_s_.push_back(seconds_since(start));
    release_original();

    start = Clock::now();
    auto restored = make_empty_();
    hp::sim::restore_checkpoint(*restored, path_);
    const std::uint64_t after = hp::sim::state_fingerprint(*restored);
    restore_s_.push_back(seconds_since(start));
    std::filesystem::remove(path_);
    HP_REQUIRE(after == before,
               "state fingerprint changed across checkpoint/restore");
    fingerprints_ = mix64(fingerprints_ ^ before);
    return restored;
  }

  /// Wall time of every trip so far.
  double total_s() const { return sum(save_s_) + sum(fingerprint_s_) +
                                  sum(restore_s_); }

  void report(Job& job) const {
    HP_REQUIRE(!save_s_.empty(), "run took no checkpoint");
    job.semantic.hex("fingerprints", fingerprints_);
    job.semantic.count("checkpoints", save_s_.size());
    job.e2e.series("checkpoint_save_s", save_s_);
    job.e2e.series("restore_s", restore_s_);
    if (job.traced) {
      job.layers.count("checkpoint.bytes", bytes_);
      job.layers.num("checkpoint.save_mb_per_s",
                     static_cast<double>(bytes_) / 1e6 / sum(save_s_));
      job.layers.num("checkpoint.fingerprint_ms", sum(fingerprint_s_) * 1e3);
    }
  }

 private:
  static double sum(const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  }

  std::string path_;
  MakeEmpty make_empty_;
  std::vector<double> save_s_, fingerprint_s_, restore_s_;
  std::uint64_t bytes_ = 0;
  std::uint64_t fingerprints_ = 0;
};

// --- Batch workload (sat512) -------------------------------------------------

/// A batch run of a fixed number of steps under the paper audit, then one
/// checkpoint round trip; the restored engine is digested.
struct BatchSpec {
  int n = 0;
  int threads = 1;
  std::uint64_t steps = 0;
  std::function<hp::workload::Problem(const hp::net::Mesh&, hp::Rng&)>
      generate;
};

/// The paper audit: the Section 3-4 potential machinery and the
/// Definition 6 / 18 checkers, attached as step observers.
struct Audit {
  Audit(const hp::net::Mesh& mesh, const hp::sim::Engine& engine)
      : potential(mesh, engine,
                  hp::core::PotentialTracker::Config{2 * mesh.side(), 2}),
        surface(mesh) {}

  std::uint64_t violations() const {
    return greedy.violations().size() + preference.violations().size() +
           potential.property8_violations().size() +
           potential.structure_violations().size() +
           surface.lemma14_violations().size();
  }

  hp::core::PotentialTracker potential;
  hp::core::SurfaceTracker surface;
  hp::core::GreedyChecker greedy;
  hp::core::RestrictedPreferenceChecker preference;
};

Job run_batch(const BatchSpec& spec, const Options& opt, bool traced) {
  Job job;
  job.traced = traced;
  const auto job_start = Clock::now();

  // Setup: problem generation, engine construction (with injection) and
  // the audit observers.
  const hp::net::Mesh mesh(2, spec.n, false);
  hp::routing::RestrictedPriorityPolicy base_policy;
  TimedPolicy timed_policy(base_policy, /*step_clock=*/false);
  hp::sim::RoutingPolicy& policy =
      traced ? static_cast<hp::sim::RoutingPolicy&>(timed_policy)
             : base_policy;
  hp::sim::EngineConfig config;
  config.seed = opt.seed;
  config.num_threads = engine_threads(spec.threads);
  config.profile = traced;

  auto start = Clock::now();
  auto problem = std::make_unique<hp::workload::Problem>();
  {
    hp::Rng rng(opt.seed);
    *problem = spec.generate(mesh, rng);
  }
  const double generate_s = seconds_since(start);
  const std::size_t k = problem->size();

  start = Clock::now();
  auto engine =
      std::make_unique<hp::sim::Engine>(mesh, *problem, policy, config);
  const double construct_s = seconds_since(start);
  problem.reset();

  Audit audit(mesh, *engine);
  std::vector<std::unique_ptr<TimedObserver>> timed_observers;
  for (hp::sim::StepObserver* obs :
       std::initializer_list<hp::sim::StepObserver*>{
           &audit.potential, &audit.surface, &audit.greedy,
           &audit.preference}) {
    if (traced) {
      timed_observers.push_back(std::make_unique<TimedObserver>(*obs));
      engine->add_observer(timed_observers.back().get());
    } else {
      engine->add_observer(obs);
    }
  }
  job.e2e.num("setup_s", seconds_since(job_start));
  if (traced) memory_layers(*engine, job.layers);

  // Run: the steps. Traced jobs time every step() and recompute the
  // livelock digest the engine takes internally, to price it.
  std::uint64_t moves = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t digest_ns = 0;
  start = Clock::now();
  while (engine->in_flight() > 0 && !engine->livelocked() &&
         engine->now() < spec.steps) {
    moves += engine->in_flight();
    if (traced) {
      const auto t0 = Clock::now();
      engine->step();
      const auto t1 = Clock::now();
      (void)hp::sim::digest_state(engine->flight());
      const auto t2 = Clock::now();
      step_ns += ns_between(t0, t1);
      digest_ns += ns_between(t1, t2);
      job.step_ms.push_back(static_cast<double>(ns_between(t0, t1)) / 1e6);
    } else {
      engine->step();
    }
  }
  const double run_s = seconds_since(start);
  HP_REQUIRE(engine->now() == spec.steps, "fixed-step run ended early");
  const std::uint64_t violations = audit.violations();

  // The phase ledger belongs to the engine that stepped, so it is read
  // before the run hands over to the restored engine.
  Fields phases;
  double phases_ms = 0;
  if (traced) phase_layers(*engine->profiler(), phases, phases_ms);

  Checkpointer ckpt(checkpoint_path(opt), [&] {
    hp::workload::Problem empty;
    empty.name = "restored";
    return std::make_unique<hp::sim::Engine>(mesh, empty, policy, config);
  });
  // The original is released before the restore, so the job never holds
  // two full states.
  engine = ckpt.trip(*engine, [&] { engine.reset(); });
  ckpt.report(job);

  // Result digestion: materialize RunResult::packets and check outputs.
  start = Clock::now();
  const hp::sim::RunResult result = engine->run_for(0);
  const auto [hash, arrived] = arrival_digest(result.packets);
  HP_REQUIRE(result.num_packets == k && result.packets.size() == k,
             "result does not cover every packet");
  HP_REQUIRE(arrived == engine->delivered(), "arrival count mismatch");
  HP_REQUIRE(!result.livelocked, "run livelocked");
  HP_REQUIRE(moves == result.total_advances + result.total_deflections,
             "packet moves do not match advances + deflections");
  HP_REQUIRE(result.steps_executed == spec.steps,
             "fixed-step run executed the wrong step count");
  HP_REQUIRE(violations == 0, "paper audit found violations");
  const double digest_s = seconds_since(start);

  job.semantic.count("steps", result.steps);
  job.semantic.count("deflections", result.total_deflections);
  job.semantic.count("moves", moves);
  job.semantic.count("arrived", arrived);
  job.semantic.hex("arrival_hash", hash);
  job.semantic.count("violations", violations);

  job.e2e.num("run_s", run_s);
  job.e2e.num("moves_per_s", static_cast<double>(moves) / run_s);
  job.e2e.num("digest_s", digest_s);

  if (traced) {
    Fields& l = job.layers;
    l.num("workload.generate_s", generate_s);
    l.num("engine.construct_s", construct_s);
    l.merge(phases);
    l.num("phase.unaccounted_ms",
          static_cast<double>(step_ns) / 1e6 - phases_ms);
    l.num("livelock.digest_ms", static_cast<double>(digest_ns) / 1e6);
    routing_layers(timed_policy, l);
    const char* names[] = {"core.potential_ms", "core.surface_ms",
                           "core.greedy_ms", "core.preference_ms"};
    for (std::size_t i = 0; i < 4; ++i) {
      l.num(names[i], timed_observers[i]->ms());
    }
    l.count("admission.windows", 0);
    l.num("admission.window_s.p50", 0);
    l.count("engine.steps", job.step_ms.size());
    l.count("engine.moves", moves);
    // Time attributed to a named layer: generation, construction, the
    // profiled phases, the livelock digest, checkpoint I/O and digestion.
    l.num("accounted_s", generate_s + construct_s + phases_ms / 1e3 +
                             static_cast<double>(digest_ns) / 1e9 +
                             ckpt.total_s() + digest_s);
  }
  return job;
}

// --- probe64: closed-loop admission probe ------------------------------------

/// The probe's system under test: runs each window on the traffic system,
/// times it, then checkpoints the warm engine, as a long-running service
/// would between measurement windows: three round trips, since this small
/// state saves in about 2 ms.
class ProbeHarness final : public hp::sim::LoadableSystem {
 public:
  ProbeHarness(hp::stats::EngineTrafficSystem& system, Checkpointer& ckpt)
      : system_(system), ckpt_(ckpt) {}

  hp::sim::WindowMeasurement run_window(double rate,
                                        std::uint64_t warmup_steps,
                                        std::uint64_t measure_steps) override {
    const auto start = Clock::now();
    auto m = system_.run_window(rate, warmup_steps, measure_steps);
    window_s_.push_back(seconds_since(start));
    for (int i = 0; i < 3; ++i) restored_ = ckpt_.trip(system_.engine());
    return m;
  }

  const std::vector<double>& window_s() const { return window_s_; }
  /// The engine restored from the latest checkpoint.
  hp::sim::Engine& restored() { return *restored_; }

 private:
  hp::stats::EngineTrafficSystem& system_;
  Checkpointer& ckpt_;
  std::vector<double> window_s_;
  std::unique_ptr<hp::sim::Engine> restored_;
};

Job run_probe(const Options& opt, bool traced) {
  Job job;
  job.traced = traced;
  const auto job_start = Clock::now();

  // Setup: the traffic system (engine + traffic injector, empty network).
  const hp::net::Mesh mesh(2, 64, false);
  hp::routing::RestrictedPriorityPolicy base_policy;
  const int threads = engine_threads(1);
  TimedPolicy timed_policy(base_policy, /*step_clock=*/threads == 1);
  hp::sim::RoutingPolicy& policy =
      traced ? static_cast<hp::sim::RoutingPolicy&>(timed_policy)
             : base_policy;
  const hp::workload::TrafficConfig traffic;  // uniform destinations
  hp::sim::EngineConfig config;
  config.num_threads = threads;
  config.profile = traced;
  auto start = Clock::now();
  hp::stats::EngineTrafficSystem system(mesh, policy, traffic, opt.seed,
                                        config);
  const double construct_s = seconds_since(start);
  job.e2e.num("setup_s", seconds_since(job_start));

  // Run: the probe, to convergence, with a checkpoint after every window
  // (excluded from run_s).
  Checkpointer ckpt(checkpoint_path(opt), [&] {
    hp::workload::Problem empty;
    empty.name = "restored";
    hp::sim::EngineConfig restored = config;
    restored.seed = opt.seed;
    restored.detect_livelock = false;
    restored.archive_arrivals = false;
    restored.profile = false;
    return std::make_unique<hp::sim::Engine>(mesh, empty, policy, restored);
  });
  ProbeHarness harness(system, ckpt);
  const hp::stats::SweepConfig sweep;
  start = Clock::now();
  const auto probe = hp::sim::AdmissionController(sweep.probe).probe(harness);
  const double run_s = seconds_since(start) - ckpt.total_s();
  HP_REQUIRE(probe.converged, "probe did not converge");
  ckpt.report(job);

  // Result digestion: the restored engine carries the probe's run counters.
  start = Clock::now();
  const hp::sim::RunResult result = harness.restored().run_for(0);
  const std::uint64_t moves = result.total_advances + result.total_deflections;
  HP_REQUIRE(result.steps_executed == system.engine().now(),
             "restored engine lost the clock");
  HP_REQUIRE(moves > 0, "probe moved no packets");
  const double digest_s = seconds_since(start);

  job.semantic.count("steps", result.steps_executed);
  job.semantic.count("deflections", result.total_deflections);
  job.semantic.count("moves", moves);
  job.semantic.count("delivered", system.engine().delivered());
  job.semantic.flag("converged", probe.converged);
  job.semantic.num("saturation_rate", probe.saturation_rate);
  job.semantic.count("windows", static_cast<std::uint64_t>(probe.windows));

  job.e2e.num("run_s", run_s);
  job.e2e.num("moves_per_s", static_cast<double>(moves) / run_s);
  job.e2e.num("digest_s", digest_s);

  if (traced) {
    Fields& l = job.layers;
    // The traffic generator's own set-up, timed apart from the system
    // that builds an identical one inside its constructor.
    start = Clock::now();
    { const hp::workload::TrafficInjector gen(mesh, traffic, 0.0, opt.seed); }
    l.num("workload.generate_s", seconds_since(start));
    l.num("engine.construct_s", construct_s);
    memory_layers(system.engine(), l);
    double phases_ms = 0;
    phase_layers(*system.engine().profiler(), l, phases_ms);
    double windows_s = 0;
    for (double w : harness.window_s()) windows_s += w;
    l.num("phase.unaccounted_ms", windows_s * 1e3 - phases_ms);
    l.num("livelock.digest_ms", 0);  // detection is off under injection
    routing_layers(timed_policy, l);
    for (const char* name : {"core.potential_ms", "core.surface_ms",
                             "core.greedy_ms", "core.preference_ms"}) {
      l.num(name, 0);
    }
    l.count("admission.windows",
            static_cast<std::uint64_t>(harness.window_s().size()));
    l.num("admission.window_s.p50", median(harness.window_s()));
    job.step_ms = timed_policy.step_intervals_ms();
    l.count("engine.steps", result.steps_executed);
    l.count("engine.moves", moves);
    l.num("accounted_s",
          construct_s + phases_ms / 1e3 + ckpt.total_s() + digest_s);
  }
  return job;
}

// --- Workload table ------------------------------------------------------------

Job run_job(const Options& opt) {
  const bool traced = opt.traced;
  BatchSpec spec;
  if (opt.workload == "sat512") {
    spec.n = 512;
    spec.threads = 2;
    spec.steps = 8;
    spec.generate = [](const hp::net::Mesh& m, hp::Rng& rng) {
      return hp::workload::saturated_random(m, 4, rng);
    };
  } else if (opt.workload == "probe64") {
    return run_probe(opt, traced);
  } else {
    throw hp::CheckError("unknown workload: " + opt.workload);
  }
  return run_batch(spec, opt, traced);
}

int workload_threads(const std::string& workload) {
  return engine_threads(workload == "sat512" ? 2 : 1);
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--traced") {
      opt.traced = value == "1";
    } else if (key == "--tmp") {
      opt.tmp_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: hpbench --workload NAME --seed N --traced 0|1 "
                   "--tmp DIR\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "hpbench: bad argument: " << e.what() << "\n";
    return 2;
  }

  // One job per process: every job starts cold, as a user's run does,
  // and the process's peak resident memory is the job's own. A fixed mmap
  // threshold keeps glibc from moving large blocks into the heap after the
  // first free, where freed memory stays resident: the peak then measures
  // live memory, not the allocator's history.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  Fields line;
  line.flag("traced", opt.traced);
  const auto job_start = Clock::now();
  try {
    Job job = run_job(opt);
    line.flag("ok", true);
    line.object("semantic", job.semantic);
    line.object("e2e", job.e2e);
    line.object("layers", job.layers);
    line.series("step_ms", job.step_ms);
  } catch (const std::exception& e) {
    line.flag("ok", false);
    line.text("error", e.what());
  }
  line.num("total_s", seconds_since(job_start));

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  line.num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  line.count("engine_threads",
             static_cast<std::uint64_t>(workload_threads(opt.workload)));
  line.text("compiler", HPBENCH_COMPILER);
  line.text("build_type", HPBENCH_BUILD_TYPE);
  std::cout << line.render() << "\n";
  return 0;
}
