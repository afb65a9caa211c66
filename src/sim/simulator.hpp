// Deterministic discrete-event simulation kernel.
//
// The paper's systems (Newcastle Connection machines, Port processes
// exchanging pids) ran on real networks; we substitute a single-threaded
// event simulator so every experiment is exactly reproducible. Events at
// equal timestamps fire in scheduling order (a monotonically increasing
// sequence number breaks ties), so runs are deterministic regardless of
// container iteration order.
//
// Representation: pending events are an indexed binary min-heap of small
// POD keys {at, seq, slot}; the callables live in a recycled slot table
// and every slot records its key's heap position. Cancelling removes the
// key at once (O(log n)), so a cancelled timer leaves nothing behind that
// later pushes and pops would have to sift past. An EventId names a
// (generation, slot) pair: a slot's generation advances every time its
// event fires, is cancelled or is dropped by reset(), so a stale id can
// never cancel a later event that happens to reuse the slot (short of the
// 32-bit generation wrapping, after 2^32 reuses of one slot).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/ids.hpp"
#include "util/status.hpp"

namespace namecoh {

/// Simulated time in integer ticks (we treat a tick as a microsecond in the
/// experiments, but nothing depends on the unit).
using SimTime = std::uint64_t;
using SimDuration = std::uint64_t;

/// Handle for cancelling a scheduled event: (generation << 32) | slot.
struct EventTag {};
using EventId = StrongId<EventTag>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Size of the slot table: the most events ever pending at once (slots
  /// are recycled, never returned). Bounded by live events, not by how
  /// many were cancelled.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// How many times reset() has run. Layers that keep per-event state of
  /// their own (the transport's in-flight frames) compare it to reclaim
  /// that state when a reset drops their events unfired.
  [[nodiscard]] std::uint64_t resets() const { return resets_; }

  /// Timestamp of the earliest pending event, or nullopt when the queue is
  /// empty. Lets callers wait with a deadline ("run events up to t, no
  /// further") without firing anything.
  [[nodiscard]] std::optional<SimTime> next_event_time() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
  }

  /// Schedule `action` to run at absolute time `at` (>= now).
  EventId schedule_at(SimTime at, std::function<void()> action);
  /// Schedule `action` to run `delay` ticks from now.
  EventId schedule_in(SimDuration delay, std::function<void()> action);

  /// Cancel a pending event; returns false if it already ran, was already
  /// cancelled, or was dropped by reset(). The event's action is destroyed
  /// before this returns.
  bool cancel(EventId id);

  /// Run until the queue is empty or `max_events` have fired.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  /// Run events with timestamp <= until; the clock ends at `until` even if
  /// the queue drained earlier. Returns the number of events fired.
  std::uint64_t run_until(SimTime until);

  /// Fire events one at a time while `keep_going()` returns true, stopping
  /// as soon as the predicate flips or the queue drains. The predicate is
  /// evaluated before every event, so an event that satisfies the caller's
  /// condition is the last one fired. This is the drive loop of blocking
  /// waits layered over async work ("run until this handle completes")
  /// without the waiter owning a deadline. Returns the number of events
  /// fired.
  std::uint64_t run_while(const std::function<bool()>& keep_going);

  /// Drop all pending events and reset the clock. Event ids from before
  /// the reset are invalidated.
  void reset();

  /// True while a pure-compute section is open (see PureComputeSection).
  /// Scheduling or firing events is a thrown precondition violation while
  /// this holds — the explicit boundary between pure computation and
  /// simulated time (docs/PARALLELISM.md).
  [[nodiscard]] bool in_pure_section() const { return pure_depth_ > 0; }

 private:
  friend class PureComputeSection;
  static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};

  /// Heap key: ordered by (at, seq); seq is unique, so the order is total
  /// and the firing sequence does not depend on the heap's shape.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::function<void()> action;
    std::uint32_t heap_pos = kNotQueued;  ///< kNotQueued while free
    std::uint32_t generation = 0;
  };

  static bool earlier(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove the key at heap position `pos` and return its slot's action;
  /// the slot is freed and its generation advanced.
  std::function<void()> take(std::size_t pos);
  bool fire_next();

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO: reuse the warmest slot
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t resets_ = 0;
  int pure_depth_ = 0;
};

/// RAII marker for the "pure compute vs simulated event" boundary
/// (docs/PARALLELISM.md). While a section is open — typically for the
/// duration of a parallel resolution batch on the worker pool — the
/// simulator is fenced: schedule_at/schedule_in, run/run_until/run_while,
/// and reset all throw PreconditionError. The fence is what makes the seam
/// checkable rather than aspirational: a worker (or a callback reached from
/// one) that tries to touch simulated time fails loudly at the boundary
/// instead of racing the event queue. Constructing with nullptr is a no-op,
/// so callers without a simulator (purely local batches) need no branch.
/// Sections nest; the fence lifts when the outermost one closes.
class PureComputeSection {
 public:
  explicit PureComputeSection(Simulator* sim) : sim_(sim) {
    if (sim_) ++sim_->pure_depth_;
  }
  PureComputeSection(const PureComputeSection&) = delete;
  PureComputeSection& operator=(const PureComputeSection&) = delete;
  ~PureComputeSection() {
    if (sim_) --sim_->pure_depth_;
  }

 private:
  Simulator* sim_;
};

}  // namespace namecoh
