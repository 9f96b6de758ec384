#include "event_queue.h"

#include "support/error.h"

namespace pipemap {

void EventQueue::Schedule(double time, std::function<void()> action) {
  PIPEMAP_CHECK(time >= now_ - 1e-12,
                "EventQueue: cannot schedule into the past");
  heap_.push(Event{time, next_seq_++, std::move(action)});
}

bool EventQueue::RunNext() {
  if (heap_.empty()) return false;
  // Moving out of a priority_queue requires a const_cast; the element is
  // popped immediately after, so the mutation is safe.
  Event event = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = event.time;
  ++executed_;
  event.action();
  return true;
}

void EventQueue::RunAll() {
  while (RunNext()) {
  }
}

}  // namespace pipemap
