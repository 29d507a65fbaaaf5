// Fixture: the `good` pipeline plus a serial insert whose columns are
// written only by a FlightTable helper (see engine.hpp).
#include "sim/engine.hpp"

namespace hp::sim {

void FlightTable::insert(int at) { append_row(at); }

void FlightTable::append_row(int at) {
  pos_.push_back(at);
  hops_.push_back(0);
}

void Engine::worker_loop() {
  unsigned seen = 0;
  for (;;) {
    seen = barrier_.wait_open(seen);
    if (seen == 0) {
      return;
    }
    drain_tasks();
    barrier_.leave();
  }
}

void Engine::drain_tasks() {
  for (;;) {
    const unsigned t = barrier_.next_task();
    if (t == 0xffffffffU) {
      return;
    }
    run_task(task_kind_, t);
  }
}

void Engine::run_sharded(TaskKind kind, std::size_t count,
                         std::size_t items) {
  task_kind_ = kind;
  task_count_ = count;
  task_items_ = items;
  barrier_.open(static_cast<unsigned>(count), static_cast<unsigned>(kind));
  drain_tasks();
  barrier_.close();
}

void Engine::run_task(TaskKind kind, std::size_t task) {
  const std::size_t begin = task_items_ * task / task_count_;
  const std::size_t end = task_items_ * (task + 1) / task_count_;
  switch (kind) {
    case TaskKind::kScan:
      scan_slots(task, begin, end);
      break;
    case TaskKind::kRoute:
      route_range(begin, end);
      break;
  }
}

void Engine::scan_slots(std::size_t task, std::size_t begin,
                        std::size_t end) {
  scratch_[task] = 0;
  for (std::size_t i = begin; i < end; ++i) {
    scratch_[task] += flight_.pos(i);
  }
}

void Engine::route_range(std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    out_[i] = flight_.pos(i) + 1;
    flight_.move(i, out_[i]);
  }
  HP_SHARED_WRITE("per-range deltas commute; sum is order-free");
  total_ += end - begin;
}

bool Engine::step() {
  flight_.insert(0);
  run_sharded(TaskKind::kScan, 4, out_.size());
  run_sharded(TaskKind::kRoute, 4, out_.size());
  return true;
}

}  // namespace hp::sim
