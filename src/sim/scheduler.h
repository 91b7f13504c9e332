// Deterministic discrete-event scheduler.
//
// The scheduler is the heart of the simulation: every component (network
// links, CPU cores, protocol timers) enqueues callbacks at future simulated
// times and the scheduler executes them in a deterministic total order.
//
// ## Lanes and the deterministic total order
//
// Events are keyed by (time, lane, lane_seq): `lane` is the logical process
// the *scheduling context* belonged to, and `lane_seq` is that lane's
// monotone insertion counter. Lane 0 is the global/control lane (setup code,
// fault injection, samplers); Environment::AddMachine allocates one lane per
// simulated machine. A scheduler that never adds lanes degenerates to the
// classic (time, insertion-sequence) order.
//
// Every event also carries an *execution* lane: the lane whose state the
// callback touches. For cross-lane sends (network deliveries) the sort key
// comes from the sender and the execution lane from the receiver, so an
// event's position in the order is fixed by the sender's causal history.
// The execution lane becomes CurrentLane() while the callback runs, so
// anything it schedules is keyed by the receiving machine's counter. The
// lane key, together with the per-directed-pair network RNG streams and the
// per-client workload RNGs, is what pins the simulator's tie-breaks (see
// DESIGN.md §8).
//
// Events live in one slab with a free list: each schedule reuses a recycled
// slot instead of heap-allocating per event, and the priority queue holds
// small POD entries. Slot generations make cancelled or recycled slots
// unambiguous. Callbacks are InlineCallbacks, so a capture of up to
// InlineCallback::kInlineBytes lives in the slot itself; only larger
// captures allocate.
//
// Two orthogonal extensions serve observability without disturbing results:
//
//  - Tags: ScheduleAt/ScheduleAfter accept an optional string-literal tag
//    naming the handler ("net/deliver", "raft/tick", ...) for the host-side
//    DesProfiler attached via SetProfiler (off by default).
//
//  - Observer events: ScheduleObserverAt/After enqueue callbacks that
//    dispatch in the normal deterministic order but are excluded from
//    ExecutedEvents(), so attaching observability never changes the
//    executed-event count that the bench regression gate compares.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace fabricsim::sim {

class DesProfiler;

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Never zero for a live event (0 is a safe "no event" sentinel).
using EventId = std::uint64_t;

/// Serial, fully deterministic discrete-event scheduler with cancellable
/// events. Event callbacks may schedule further events (including at the
/// current time, which run after every event already queued for that time
/// from the same lane).
class Scheduler {
 public:
  using Callback = InlineCallback;

  /// The control lane: setup code, fault injection, and samplers run here.
  static constexpr int kGlobalLane = 0;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at zero.
  [[nodiscard]] SimTime Now() const { return now_; }

  // ------------------------------------------------------------------
  // Lanes
  // ------------------------------------------------------------------

  /// Allocates a new lane (logical process) and returns its id. Lane 0
  /// always exists. Must be called during setup, not from event callbacks.
  int AddLane();

  [[nodiscard]] int LaneCount() const {
    return static_cast<int>(lane_seq_.size());
  }

  /// The lane of the current scheduling context: the executing event's lane
  /// during dispatch, or whatever the innermost LaneScope set during setup
  /// (lane 0 outside both).
  [[nodiscard]] int CurrentLane() const { return cur_lane_; }

  /// RAII lane context for setup code: components constructed (and Start()ed)
  /// under a LaneScope schedule their events into that lane.
  class LaneScope {
   public:
    LaneScope(Scheduler& sched, int lane);
    ~LaneScope();
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    Scheduler& sched_;
    int prev_lane_;
  };

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------

  /// Schedules `cb` to run at absolute simulated time `when` in the current
  /// lane. Times in the past are clamped to `Now()` (the event runs next).
  /// `tag` must be a string literal (or otherwise outlive the scheduler);
  /// it names the handler in profiler output.
  EventId ScheduleAt(SimTime when, Callback cb, const char* tag = nullptr) {
    return ScheduleImpl(cur_lane_, cur_lane_, when, std::move(cb), tag,
                        /*observer=*/false);
  }

  /// Schedules `cb` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, Callback cb,
                        const char* tag = nullptr) {
    return ScheduleAt(Now() + (delay < 0 ? 0 : delay), std::move(cb), tag);
  }

  /// Cross-lane scheduling: `cb` runs in `exec_lane`, ordered by the
  /// *current* context's (time, lane, seq) key — the sender's causal
  /// position, not the receiver's.
  EventId ScheduleAtLane(int exec_lane, SimTime when, Callback cb,
                         const char* tag = nullptr);

  /// Observer variants: the callback dispatches in normal key order but does
  /// not count toward ExecutedEvents(). For pure samplers only — observer
  /// callbacks must not mutate simulation state.
  EventId ScheduleObserverAt(SimTime when, Callback cb,
                             const char* tag = nullptr) {
    return ScheduleImpl(cur_lane_, cur_lane_, when, std::move(cb), tag,
                        /*observer=*/true);
  }
  EventId ScheduleObserverAfter(SimDuration delay, Callback cb,
                                const char* tag = nullptr) {
    return ScheduleObserverAt(Now() + (delay < 0 ? 0 : delay), std::move(cb),
                              tag);
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; cancelling a fired or unknown event is a harmless no-op.
  /// The callback is destroyed (captures released) immediately.
  bool Cancel(EventId id);

  // ------------------------------------------------------------------
  // Running
  // ------------------------------------------------------------------

  /// Runs events until the queue is empty or `limit` events have run.
  /// Returns the number of events executed (observer events included).
  std::uint64_t Run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with time <= `until`. After returning, `Now() == until`
  /// unless the queue emptied first (then Now() is the last event time).
  /// Returns the number of events executed.
  std::uint64_t RunUntil(SimTime until);

  /// Executes exactly one event if any is pending. Returns false if idle.
  bool Step();

  /// Number of events currently scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t PendingEvents() const { return live_; }

  /// Total number of component events executed since construction. Observer
  /// events are excluded, so this count is invariant under attached
  /// observability and is compared bit-exactly by the bench gate.
  [[nodiscard]] std::uint64_t ExecutedEvents() const { return executed_; }

  // ------------------------------------------------------------------
  // Introspection / profiling
  // ------------------------------------------------------------------

  /// Attaches (or detaches, with nullptr) the host-time profiler. The
  /// profiler must outlive its attachment. When detached — the default —
  /// dispatch pays one predictable branch.
  void SetProfiler(DesProfiler* profiler) { profiler_ = profiler; }

  /// Pool introspection (tests): total slots ever created, and how many are
  /// currently on the free list. Capacity grows to the high-water mark of
  /// concurrently pending events and is then reused.
  [[nodiscard]] std::size_t PoolCapacity() const { return slab_.size(); }
  [[nodiscard]] std::size_t PoolFree() const { return free_.size(); }

 private:
  // One pooled event slot. `gen` is bumped every time the slot is released
  // (fired or cancelled), so stale heap entries and stale EventIds referring
  // to a recycled slot can never match again.
  struct Event {
    Callback cb;
    const char* tag = nullptr;
    std::uint32_t gen = 1;
    bool armed = false;  // a live (scheduled, uncancelled) event occupies it
    bool observer = false;
  };
  // What the priority queue actually sorts: 32 bytes, trivially copyable.
  // (sort_lane, seq) is the deterministic tie-break at equal times;
  // exec_lane is the lane the callback runs in.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;  // per-sort-lane insertion order
    std::int32_t sort_lane = 0;
    std::int32_t exec_lane = 0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      if (a.sort_lane != b.sort_lane) return a.sort_lane > b.sort_lane;
      return a.seq > b.seq;
    }
  };
  // A popped, about-to-run event (callback already moved out of the slab).
  struct Fired {
    SimTime when = 0;
    std::int32_t exec_lane = 0;
    Callback cb;
    const char* tag = nullptr;
    bool observer = false;
  };

  // EventId layout: [gen:32][slot:32]. Generations start at 1, so a live id
  // is never zero.
  static EventId MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // Queues `cb` to run in `exec_lane`, keyed by `sort_lane`'s next seq.
  EventId ScheduleImpl(int sort_lane, int exec_lane, SimTime when, Callback cb,
                       const char* tag, bool observer);
  void Release(Event& ev, std::uint32_t slot);
  // Pops the next live event due at or before `until` into `out`, dropping
  // cancelled entries along the way; false when there is none.
  bool PopNext(SimTime until, Fired* out);
  void Dispatch(Fired& fired);

  SimTime now_ = 0;
  int cur_lane_ = kGlobalLane;
  DesProfiler* profiler_ = nullptr;
  // Per-lane sort-key counters, indexed by lane; lane 0 always exists.
  std::vector<std::uint64_t> lane_seq_ = {0};
  std::deque<Event> slab_;  // deque: stable refs while callbacks schedule
  std::vector<std::uint32_t> free_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> queue_;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace fabricsim::sim
