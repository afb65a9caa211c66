// Tests for the discrete-event simulator: ordering, determinism,
// cancellation, and run_until semantics.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace namecoh {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, FiresInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_in(5, [&] {
    times.push_back(sim.now());
    sim.schedule_in(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_at(10, std::function<void()>{}),
               PreconditionError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // idempotent: already cancelled
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule_at(1, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(EventId::invalid()));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(100), 0u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunMaxEventsBudget) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i + 1, [&] { ++fired; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4u);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, ResetClearsState) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(5, [] {});
  sim.run(1);
  sim.reset();
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, StaleEventIdAfterResetCannotCancelNewEvents) {
  Simulator sim;
  EventId old_id = sim.schedule_at(10, [] {});
  sim.reset();
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(old_id));  // ids are never reused
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, FiredOrCancelledIdCannotCancelSlotReuser) {
  Simulator sim;
  int fired = 0;
  // Fired: the next event reuses the freed slot under a new generation.
  EventId ran = sim.schedule_at(1, [] {});
  sim.run();
  sim.schedule_at(2, [&] { ++fired; });
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_FALSE(sim.cancel(ran));
  // Cancelled: likewise.
  EventId dead = sim.schedule_at(3, [&] { fired += 100; });
  EXPECT_EQ(sim.slot_count(), 2u);
  EXPECT_TRUE(sim.cancel(dead));
  sim.schedule_at(4, [&] { ++fired; });
  EXPECT_EQ(sim.slot_count(), 2u);
  EXPECT_FALSE(sim.cancel(dead));
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ActionCanCancelAnotherEventAndNotItself) {
  Simulator sim;
  int other_fired = 0;
  bool cancelled_other = false;
  bool cancelled_self = true;
  EventId self;
  EventId other = sim.schedule_at(20, [&] { ++other_fired; });
  self = sim.schedule_at(10, [&] {
    cancelled_other = sim.cancel(other);
    cancelled_self = sim.cancel(self);  // already firing: nothing to cancel
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(cancelled_other);
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(other_fired, 0);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, CancelledTimersLeaveNoResidue) {
  Simulator sim;
  constexpr SimDuration kFarFuture = 1'000'000'000;
  for (int i = 0; i < 100'000; ++i) {
    EventId timer = sim.schedule_in(kFarFuture, [] {});
    ASSERT_TRUE(sim.cancel(timer));
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_FALSE(sim.next_event_time().has_value());

  // Request/reply shape: every reply cancels its request's long timeout.
  int timeouts = 0;
  for (int i = 0; i < 100'000; ++i) {
    EventId timer = sim.schedule_in(kFarFuture, [&] { ++timeouts; });
    sim.schedule_in(1, [&sim, timer] { sim.cancel(timer); });
    ASSERT_EQ(sim.run(1), 1u);
  }
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_LE(sim.slot_count(), 2u);
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(Simulator, ResetInvalidatesEveryOutstandingId) {
  Simulator sim;
  std::vector<EventId> old_ids;
  for (SimTime t = 1; t <= 8; ++t) old_ids.push_back(sim.schedule_at(t, [] {}));
  sim.reset();
  EXPECT_EQ(sim.resets(), 1u);
  int fired = 0;
  for (SimTime t = 1; t <= 8; ++t) sim.schedule_at(t, [&] { ++fired; });
  EXPECT_EQ(sim.slot_count(), 8u);  // every new event reuses an old slot
  for (EventId id : old_ids) EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(fired, 8);
}

// Property: under random interleavings of schedule, cancel and fire, the
// indexed heap fires exactly the surviving events in (time, scheduling)
// order — checked against a sorted reference model.
TEST(Simulator, RandomCancelsMatchReferenceOrder) {
  Simulator sim;
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Ref {
    SimTime at;
    int tag;
    EventId id;
  };
  std::vector<Ref> live;  // in scheduling order
  std::vector<int> fired;
  std::vector<int> expected;
  int tag = 0;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = next() % 8;
    if (op < 4) {
      const SimTime at = sim.now() + next() % 64;
      const int t = tag++;
      live.push_back({at, t, sim.schedule_at(at, [&fired, t] {
                        fired.push_back(t);
                      })});
    } else if (op < 6 && !live.empty()) {
      const std::size_t i = next() % live.size();
      ASSERT_TRUE(sim.cancel(live[i].id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!live.empty()) {
      // Reference: the earliest time, first scheduled among equals.
      std::size_t best = 0;
      for (std::size_t i = 1; i < live.size(); ++i) {
        if (live[i].at < live[best].at) best = i;
      }
      expected.push_back(live[best].tag);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
      ASSERT_EQ(sim.run(1), 1u);
    }
    ASSERT_EQ(sim.pending(), live.size());
  }
  EXPECT_EQ(fired, expected);
}

// Regression: run_until's deadline check used to look at the raw queue
// head. A *cancelled* event before the deadline would admit fire_next(),
// which discarded it and then ran the next pending event even when that
// event lay beyond the deadline.
TEST(Simulator, RunUntilIgnoresCancelledHeadBeforeDeadline) {
  Simulator sim;
  int fired = 0;
  EventId a = sim.schedule_at(5, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.run_until(10), 0u);  // nothing pending at <= 10
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.run(), 1u);  // the t=20 event is still intact
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, RunUntilFiresPendingEventBehindCancelledHead) {
  Simulator sim;
  int fired = 0;
  EventId a = sim.schedule_at(5, [&] { fired += 100; });
  sim.schedule_at(8, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.run_until(10), 1u);  // the t=8 event, not the cancelled t=5
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunWhileStopsWhenPredicateTurnsFalse) {
  Simulator sim;
  int fired = 0;
  bool done = false;
  sim.schedule_at(5, [&] { ++fired; });
  sim.schedule_at(10, [&] {
    ++fired;
    done = true;
  });
  sim.schedule_at(20, [&] { ++fired; });  // must NOT fire
  EXPECT_EQ(sim.run_while([&] { return !done; }), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10u);
  // The untouched t=20 event is still pending for a later drive.
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunWhileChecksPredicateBeforeFirstEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  EXPECT_EQ(sim.run_while([] { return false; }), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, RunWhileStopsOnEmptyQueueEvenIfPredicateHolds) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5, [&] { ++fired; });
  EXPECT_EQ(sim.run_while([] { return true; }), 1u);
  EXPECT_EQ(fired, 1);
}

// Property: N events at random distinct times fire in sorted order.
class SimOrdering : public ::testing::TestWithParam<int> {};

TEST_P(SimOrdering, AlwaysSorted) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  // Deterministic pseudo-random times from the seed parameter.
  std::uint64_t x = static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 50; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    SimTime t = x % 1000;
    sim.schedule_at(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  EXPECT_EQ(fire_times.size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimOrdering, ::testing::Range(1, 11));

}  // namespace
}  // namespace namecoh
