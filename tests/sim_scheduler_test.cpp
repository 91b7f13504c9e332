#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace fabricsim::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_EQ(s.ExecutedEvents(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(30, [&] { order.push_back(3); });
  s.ScheduleAt(10, [&] { order.push_back(1); });
  s.ScheduleAt(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAfter(50, [&] { fired_at = s.Now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(10, [&] { fired_at = s.Now(); });  // in the past
  });
  s.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  SimTime fired_at = -1;
  s.ScheduleAfter(-5, [&] { fired_at = s.Now(); });
  s.Run();
  EXPECT_EQ(fired_at, 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  s.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.ExecutedEvents(), 0u);
}

TEST(Scheduler, CancelIsIdempotent) {
  Scheduler s;
  EventId id = s.ScheduleAt(10, [] {});
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler s;
  EventId id = s.ScheduleAt(10, [] {});
  s.Run();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Scheduler, CancelUnknownIdReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.Cancel(0));
  EXPECT_FALSE(s.Cancel(12345));
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    s.ScheduleAt(t, [&fired, &s] { fired.push_back(s.Now()); });
  }
  s.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(s.Now(), 25);
  s.RunUntil(100);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(s.Now(), 100);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler s;
  bool ran = false;
  s.ScheduleAt(25, [&] { ran = true; });
  s.RunUntil(25);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.ScheduleAt(1, [&] { ++count; });
  s.ScheduleAt(2, [&] { ++count; });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.Step());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.ScheduleAfter(1, recurse);
  };
  s.ScheduleAt(0, recurse);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.Now(), 99);
}

TEST(Scheduler, RunWithLimitStopsEarly) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.ScheduleAt(i, [&] { ++count; });
  EXPECT_EQ(s.Run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.PendingEvents(), 7u);
}

TEST(Scheduler, PendingEventsTracksCancellations) {
  Scheduler s;
  EventId a = s.ScheduleAt(1, [] {});
  s.ScheduleAt(2, [] {});
  EXPECT_EQ(s.PendingEvents(), 2u);
  s.Cancel(a);
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST(Scheduler, CancelInsideEventCallback) {
  Scheduler s;
  bool second_ran = false;
  EventId second = s.ScheduleAt(20, [&] { second_ran = true; });
  s.ScheduleAt(10, [&] { s.Cancel(second); });
  s.Run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, RunUntilWithEmptyQueueStillAdvancesClock) {
  Scheduler s;
  s.RunUntil(500);
  EXPECT_EQ(s.Now(), 500);
}

TEST(SchedulerPool, CapacityIsHighWaterMarkNotEventCount) {
  Scheduler s;
  // A chain of 10k sequential events only ever has one pending at a time:
  // the pool must recycle a single slot, not grow per event.
  int remaining = 10000;
  std::function<void()> next = [&] {
    if (--remaining > 0) s.ScheduleAfter(1, next);
  };
  s.ScheduleAt(0, next);
  s.Run();
  EXPECT_EQ(s.ExecutedEvents(), 10000u);
  EXPECT_EQ(s.PoolCapacity(), 1u);
  EXPECT_EQ(s.PoolFree(), 1u);
}

TEST(SchedulerPool, FiredAndCancelledSlotsReturnToFreeList) {
  Scheduler s;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(s.ScheduleAt(i, [] {}));
  EXPECT_EQ(s.PoolCapacity(), 64u);
  EXPECT_EQ(s.PoolFree(), 0u);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(s.Cancel(ids[size_t(i)]));
  EXPECT_EQ(s.PoolFree(), 32u);
  s.Run();
  EXPECT_EQ(s.PoolFree(), 64u);
  EXPECT_EQ(s.PoolCapacity(), 64u);  // reused, never grown past high water
  for (int i = 0; i < 64; ++i) s.ScheduleAt(100 + i, [] {});
  EXPECT_EQ(s.PoolCapacity(), 64u);
  EXPECT_EQ(s.PoolFree(), 0u);
}

TEST(SchedulerPool, StaleIdCannotCancelRecycledSlot) {
  Scheduler s;
  bool second_ran = false;
  EventId first = s.ScheduleAt(10, [] {});
  EXPECT_TRUE(s.Cancel(first));
  // The replacement reuses the freed slot but carries a new generation.
  EventId second = s.ScheduleAt(20, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.Cancel(first));  // stale handle: harmless no-op
  s.Run();
  EXPECT_TRUE(second_ran);
}

TEST(SchedulerPool, LiveEventIdIsNeverZero) {
  Scheduler s;
  for (int i = 0; i < 100; ++i) {
    EventId id = s.ScheduleAt(i, [] {});
    EXPECT_NE(id, 0u);  // 0 is the "no event" sentinel
    s.Cancel(id);
  }
}

TEST(SchedulerPool, CancelDestroysCallbackImmediately) {
  Scheduler s;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> observer = token;
  EventId id = s.ScheduleAt(10, [held = std::move(token)] { (void)held; });
  EXPECT_FALSE(observer.expired());
  s.Cancel(id);
  // The capture must be released on cancel, not at scheduler teardown —
  // long-lived simulations would otherwise pin every cancelled timer's state.
  EXPECT_TRUE(observer.expired());
}

// ---------------------------------------------------------------------------
// Lanes: the (time, lane, lane_seq) key that pins every tie-break.
// ---------------------------------------------------------------------------

// One executed event: which marker ran, and the lane it ran in.
struct Ran {
  int marker;
  int lane;
  bool operator==(const Ran&) const = default;
};

TEST(SchedulerLanes, SameTimeEventsRunInLaneThenSeqOrder) {
  Scheduler s;
  const int a = s.AddLane();
  const int b = s.AddLane();
  std::vector<Ran> ran;
  auto at = [&](int lane, int marker) {
    Scheduler::LaneScope scope(s, lane);
    s.ScheduleAt(10, [&ran, &s, marker] {
      ran.push_back({marker, s.CurrentLane()});
    });
  };
  // Inserted highest lane first: the order must not depend on it.
  at(b, 1);
  at(a, 2);
  at(b, 3);
  at(Scheduler::kGlobalLane, 4);
  at(a, 5);
  s.Run();
  EXPECT_EQ(ran, (std::vector<Ran>{{4, Scheduler::kGlobalLane},
                                   {2, a},
                                   {5, a},
                                   {1, b},
                                   {3, b}}));
  EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);  // restored after Run
}

TEST(SchedulerLanes, ScheduleAtLaneOrdersBySenderKey) {
  Scheduler s;
  const int sender = s.AddLane();
  const int receiver = s.AddLane();
  const int later = s.AddLane();
  std::vector<Ran> ran;
  auto record = [&ran, &s](int marker) {
    return [&ran, &s, marker] { ran.push_back({marker, s.CurrentLane()}); };
  };
  {
    // Both queued before the send, at the delivery instant.
    Scheduler::LaneScope scope(s, receiver);
    s.ScheduleAt(100, record(1));
  }
  {
    Scheduler::LaneScope scope(s, later);
    s.ScheduleAt(100, record(2));
  }
  {
    Scheduler::LaneScope scope(s, sender);
    s.ScheduleAt(50, [&] {
      // Runs in the receiver's lane, but sorts by the sender's key: ahead of
      // the receiver's own same-time event.
      s.ScheduleAtLane(receiver, 100, [&] {
        ran.push_back({3, s.CurrentLane()});
        // What the delivery schedules is keyed by the receiving lane.
        s.ScheduleAt(100, record(4));
      });
    });
  }
  {
    // A send from the highest lane sorts last, whichever lane it runs in.
    Scheduler::LaneScope scope(s, later);
    s.ScheduleAtLane(sender, 100, record(5));
  }
  s.Run();
  EXPECT_EQ(ran, (std::vector<Ran>{{3, receiver},
                                   {1, receiver},
                                   {4, receiver},
                                   {2, later},
                                   {5, sender}}));
}

TEST(SchedulerLanes, OutOfRangeLanesFallBackToGlobal) {
  Scheduler s;
  const int lane = s.AddLane();
  {
    Scheduler::LaneScope scope(s, lane + 7);
    EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);
    {
      Scheduler::LaneScope inner(s, lane);
      EXPECT_EQ(s.CurrentLane(), lane);
    }
    EXPECT_EQ(s.CurrentLane(), Scheduler::kGlobalLane);
  }
  int ran_in = -1;
  s.ScheduleAtLane(-3, 5, [&] { ran_in = s.CurrentLane(); });
  s.Run();
  EXPECT_EQ(ran_in, Scheduler::kGlobalLane);
}

TEST(SchedulerLanes, CancelWorksAcrossLanes) {
  Scheduler s;
  const int a = s.AddLane();
  const int b = s.AddLane();
  bool sent_ran = false;
  bool b_ran = false;
  EventId sent = 0;
  EventId b_event = 0;
  {
    Scheduler::LaneScope scope(s, a);
    sent = s.ScheduleAtLane(b, 20, [&] { sent_ran = true; });
  }
  {
    Scheduler::LaneScope scope(s, b);
    b_event = s.ScheduleAt(30, [&] { b_ran = true; });
  }
  EXPECT_NE(sent, 0u);
  EXPECT_EQ(s.PendingEvents(), 2u);
  EXPECT_TRUE(s.Cancel(sent));  // from the global lane, into lane b
  {
    Scheduler::LaneScope scope(s, a);
    // From inside lane a's callback, cancel lane b's own event.
    s.ScheduleAt(10, [&] { EXPECT_TRUE(s.Cancel(b_event)); });
  }
  s.Run();
  EXPECT_FALSE(sent_ran);
  EXPECT_FALSE(b_ran);
  EXPECT_FALSE(s.Cancel(b_event));
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_EQ(s.ExecutedEvents(), 1u);
}

TEST(SchedulerLanes, CountersAndPoolSpanAllLanes) {
  Scheduler s;
  constexpr int kLanes = 64;
  constexpr int kPerLane = 5;
  std::vector<int> lanes;
  for (int i = 0; i < kLanes; ++i) lanes.push_back(s.AddLane());
  EXPECT_EQ(s.LaneCount(), kLanes + 1);
  std::vector<EventId> cancel;
  int ran = 0;
  for (int lane : lanes) {
    Scheduler::LaneScope scope(s, lane);
    for (int i = 0; i < kPerLane; ++i) {
      const EventId id = s.ScheduleAt(i, [&ran] { ++ran; });
      if (i == 0) cancel.push_back(id);
    }
    // Observer events occupy slots but never count as executed.
    s.ScheduleObserverAt(kPerLane, [] {});
    // A cross-lane send to the next lane over.
    s.ScheduleAtLane(lanes[static_cast<std::size_t>(lane) % kLanes],
                     kPerLane, [&ran] { ++ran; });
  }
  constexpr std::size_t kTotal = kLanes * (kPerLane + 2);
  EXPECT_EQ(s.PendingEvents(), kTotal);
  EXPECT_EQ(s.PoolCapacity(), kTotal);
  EXPECT_EQ(s.PoolFree(), 0u);
  for (EventId id : cancel) EXPECT_TRUE(s.Cancel(id));
  EXPECT_EQ(s.PendingEvents(), kTotal - kLanes);
  EXPECT_EQ(s.PoolFree(), static_cast<std::size_t>(kLanes));

  // Run() counts every dispatch; ExecutedEvents() leaves observers out.
  EXPECT_EQ(s.Run(), kTotal - kLanes);
  EXPECT_EQ(ran, kLanes * kPerLane);  // (kPerLane - 1) local + 1 sent each
  EXPECT_EQ(s.ExecutedEvents(), static_cast<std::uint64_t>(kLanes * kPerLane));
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_EQ(s.PoolFree(), s.PoolCapacity());
  EXPECT_EQ(s.PoolCapacity(), kTotal);  // reused, never grown
}

}  // namespace
}  // namespace fabricsim::sim
