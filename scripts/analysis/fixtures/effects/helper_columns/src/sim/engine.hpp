// Fixture: the `good` engine with a flight table whose methods reach
// columns only through same-class helpers (`move` -> `bump`, `insert` ->
// `append_row`). The analyzer must follow the helper calls, so kRoute
// writes `flight_.hops_` and step() writes both columns, never a bare
// `flight_`.
#pragma once

#include <cstddef>
#include <vector>

// Stand-in for the util/thread_annotations.hpp marker; the fixtures are
// parsed, never compiled, but the define keeps the corpus readable.
#define HP_SHARED_WRITE(reason) static_assert(true, "")

namespace hp::sim {

// Stand-in for util::PhaseBarrier: same protocol surface, no atomics.
class PhaseBarrier {
 public:
  void open(unsigned count, unsigned tag);
  void close();
  unsigned wait_open(unsigned seen);
  void leave();
  unsigned next_task();
  void shutdown();
};

// Stand-in for the SoA flight table: two columns, one written directly
// and through a helper, one written only through helpers.
class FlightTable {
 public:
  int pos(std::size_t s) const { return pos_[s]; }
  void move(std::size_t s, int to) {
    pos_[s] = to;
    bump(s);
  }
  void insert(int at);

 private:
  void bump(std::size_t s) { ++hops_[s]; }
  void append_row(int at);

  std::vector<int> pos_;
  std::vector<int> hops_;
};

class Engine {
 public:
  enum class TaskKind : unsigned { kScan = 0, kRoute };

  bool step();

 private:
  void run_sharded(TaskKind kind, std::size_t count, std::size_t items);
  void drain_tasks();
  void run_task(TaskKind kind, std::size_t task);
  void scan_slots(std::size_t task, std::size_t begin, std::size_t end);
  void route_range(std::size_t begin, std::size_t end);
  void worker_loop();

  FlightTable flight_;
  std::vector<int> scratch_;
  std::vector<int> out_;
  std::size_t total_ = 0;
  TaskKind task_kind_ = TaskKind::kScan;
  std::size_t task_count_ = 0;
  std::size_t task_items_ = 0;
  PhaseBarrier barrier_;
};

}  // namespace hp::sim
