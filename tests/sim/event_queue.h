// A minimal discrete-event queue: time-ordered callbacks with FIFO
// tie-breaking. Backs the event-driven simulator (event_sim.h).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace pipemap {

class EventQueue {
 public:
  /// Schedules `action` at absolute time `time` (must not precede the
  /// current time). Events at equal times run in scheduling order.
  void Schedule(double time, std::function<void()> action);

  /// Runs the earliest event; returns false when the queue is empty.
  bool RunNext();

  /// Runs until the queue drains.
  void RunAll();

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace pipemap
