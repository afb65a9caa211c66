#include "sim/simulator.hpp"

#include <algorithm>

namespace namecoh {

EventId Simulator::schedule_at(SimTime at, std::function<void()> action) {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot schedule events inside a pure-compute section");
  NAMECOH_CHECK(at >= now_, "cannot schedule an event in the past");
  NAMECOH_CHECK(static_cast<bool>(action), "null event action");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    NAMECOH_CHECK(slots_.size() < kNotQueued, "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].action = std::move(action);
  heap_.push_back(Key{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventId((std::uint64_t{slots_[slot].generation} << 32) | slot);
}

EventId Simulator::schedule_in(SimDuration delay,
                               std::function<void()> action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.value());
  const auto generation = static_cast<std::uint32_t>(id.value() >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.generation != generation || s.heap_pos == kNotQueued) return false;
  // The action is destroyed when take()'s result goes out of scope, after
  // the heap and slot table are consistent again.
  take(s.heap_pos);
  return true;
}

void Simulator::sift_up(std::size_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Simulator::sift_down(std::size_t pos) {
  const Key key = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

std::function<void()> Simulator::take(std::size_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    if (pos > 0 && earlier(last, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  Slot& s = slots_[slot];
  std::function<void()> action;
  action.swap(s.action);
  s.heap_pos = kNotQueued;
  ++s.generation;
  free_slots_.push_back(slot);
  return action;
}

bool Simulator::fire_next() {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot fire events inside a pure-compute section");
  if (heap_.empty()) return false;
  now_ = heap_.front().at;
  // Moved out and the slot freed before running: the action may schedule
  // (reusing this very slot) or cancel itself, which then returns false.
  std::function<void()> action = take(0);
  ++events_processed_;
  action();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && fire_next()) ++fired;
  return fired;
}

std::uint64_t Simulator::run_until(SimTime until) {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot run the simulator inside a pure-compute section");
  std::uint64_t fired = 0;
  // Cancelled events leave the heap at once, so the head is always the
  // event fire_next() will run.
  while (!heap_.empty() && heap_.front().at <= until) {
    fire_next();
    ++fired;
  }
  now_ = std::max(now_, until);
  return fired;
}

std::uint64_t Simulator::run_while(const std::function<bool()>& keep_going) {
  NAMECOH_CHECK(static_cast<bool>(keep_going), "null run_while predicate");
  std::uint64_t fired = 0;
  while (keep_going() && fire_next()) ++fired;
  return fired;
}

void Simulator::reset() {
  NAMECOH_CHECK(!in_pure_section(),
                "cannot reset the simulator inside a pure-compute section");
  // Free every pending slot and advance its generation, so no id from
  // before the reset matches a slot's next occupant. The actions are
  // destroyed only once the table is consistent.
  std::vector<std::function<void()>> dropped;
  dropped.reserve(heap_.size());
  for (const Key& key : heap_) {
    Slot& s = slots_[key.slot];
    dropped.push_back(std::move(s.action));
    s.action = nullptr;
    s.heap_pos = kNotQueued;
    ++s.generation;
    free_slots_.push_back(key.slot);
  }
  heap_.clear();
  now_ = 0;
  events_processed_ = 0;
  ++resets_;
}

}  // namespace namecoh
