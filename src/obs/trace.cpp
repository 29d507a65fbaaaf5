#include "obs/trace.hpp"

#include <utility>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace hp::obs {

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  HP_REQUIRE(capacity >= 1, "trace ring capacity must be at least 1");
}

void TraceRing::push(TraceEvent event) {
  if (size_ < capacity_) {
    events_.push_back(std::move(event));
    ++size_;
    return;
  }
  events_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

const TraceEvent& TraceRing::at(std::size_t i) const {
  HP_REQUIRE(i < size_, "trace ring index out of range");
  // Before the first overwrite next_ is 0, so this is plain indexing;
  // afterwards next_ points at the oldest retained event.
  return events_[(next_ + i) % size_];
}

void TraceRing::clear() {
  events_.clear();
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void write_chrome_trace(std::ostream& out, const TraceRing& ring) {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
         "{\"dropped_events\": "
      << ring.dropped() << "},\n\"traceEvents\": [";
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.at(i);
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << json_escape(e.name)
        << "\", \"cat\": \"" << json_escape(e.cat) << "\", \"ph\": \""
        << e.phase << "\", \"ts\": " << e.ts << ", \"pid\": 0, \"tid\": "
        << e.tid;
    if (e.phase == 'X') out << ", \"dur\": " << e.dur;
    if (e.has_value) out << ", \"args\": {\"v\": " << e.value << "}";
    out << "}";
  }
  out << "\n]\n}\n";
}

void TraceObserver::on_step(const sim::Engine& /*engine*/,
                            const sim::StepRecord& record) {
  for (const sim::Packet& p : record.arrivals) {
    TraceEvent e;
    e.name = "pkt" + std::to_string(p.id);
    e.cat = "packet";
    e.phase = 'X';
    e.ts = p.injected_at;
    e.dur = p.arrived_at - p.injected_at;
    e.tid = static_cast<std::uint32_t>(p.id) % kPacketTracks;
    ring_.push(e);
  }
  TraceEvent e;
  e.name = "in_flight";
  e.phase = 'C';
  e.ts = record.step + 1;
  e.value = static_cast<std::int64_t>(record.in_flight_after);
  e.has_value = true;
  ring_.push(e);
}

}  // namespace hp::obs
