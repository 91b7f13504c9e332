#include "sim/scheduler.h"

#include <chrono>
#include <limits>
#include <utility>

#include "sim/profiler.h"

namespace fabricsim::sim {

namespace {

// PopNext horizon for Run and Step, which are not bounded in time.
constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::max();

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchSlot(const void* p) { __builtin_prefetch(p, 0, 1); }
#else
inline void PrefetchSlot(const void*) {}
#endif

}  // namespace

int Scheduler::AddLane() {
  lane_seq_.push_back(0);
  return LaneCount() - 1;
}

Scheduler::LaneScope::LaneScope(Scheduler& sched, int lane)
    : sched_(sched), prev_lane_(sched.cur_lane_) {
  sched.cur_lane_ =
      (lane >= 0 && lane < sched.LaneCount()) ? lane : kGlobalLane;
}

Scheduler::LaneScope::~LaneScope() { sched_.cur_lane_ = prev_lane_; }

EventId Scheduler::ScheduleImpl(int sort_lane, int exec_lane, SimTime when,
                                Callback cb, const char* tag, bool observer) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Event& ev = slab_[slot];
  ev.cb = std::move(cb);
  ev.tag = tag;
  ev.armed = true;
  ev.observer = observer;
  ++live_;
  const HeapEntry e{when < now_ ? now_ : when,
                    lane_seq_[static_cast<std::size_t>(sort_lane)]++,
                    sort_lane,
                    exec_lane,
                    slot,
                    ev.gen};
  queue_.push(e);
  return MakeId(slot, e.gen);
}

EventId Scheduler::ScheduleAtLane(int exec_lane, SimTime when, Callback cb,
                                  const char* tag) {
  if (exec_lane < 0 || exec_lane >= LaneCount()) exec_lane = kGlobalLane;
  return ScheduleImpl(cur_lane_, exec_lane, when, std::move(cb), tag,
                      /*observer=*/false);
}

void Scheduler::Release(Event& ev, std::uint32_t slot) {
  ev.cb = nullptr;  // release captured state eagerly
  ev.tag = nullptr;
  ev.armed = false;
  ev.observer = false;
  ++ev.gen;
  free_.push_back(slot);
  --live_;
}

bool Scheduler::Cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slab_.size()) return false;
  Event& ev = slab_[slot];
  if (!ev.armed || ev.gen != gen) return false;
  Release(ev, slot);
  // The heap entry stays behind as a stale (slot, gen) pair and is skipped
  // when it surfaces; the generation bump makes it unambiguous.
  return true;
}

bool Scheduler::PopNext(SimTime until, Fired* out) {
  while (!queue_.empty()) {
    const HeapEntry top = queue_.top();
    Event& ev = slab_[top.slot];
    if (!ev.armed || ev.gen != top.gen) {  // cancelled: drop and continue
      queue_.pop();
      continue;
    }
    if (top.when > until) return false;
    queue_.pop();
    out->when = top.when;
    out->exec_lane = top.exec_lane;
    out->cb = std::move(ev.cb);
    out->tag = ev.tag;
    out->observer = ev.observer;
    Release(ev, top.slot);
    if (!queue_.empty()) PrefetchSlot(&slab_[queue_.top().slot]);
    return true;
  }
  return false;
}

void Scheduler::Dispatch(Fired& fired) {
  now_ = fired.when;
  if (!fired.observer) ++executed_;
  cur_lane_ = fired.exec_lane;
  if (profiler_ != nullptr) {
    const std::uint64_t t0 = SteadyNowNs();
    fired.cb();
    profiler_->OnEvent(fired.tag, now_, t0, SteadyNowNs());
  } else {
    fired.cb();
  }
}

std::uint64_t Scheduler::Run(std::uint64_t limit) {
  const int prev_lane = cur_lane_;
  std::uint64_t n = 0;
  Fired fired;
  while (n < limit && PopNext(kNoHorizon, &fired)) {
    ++n;
    Dispatch(fired);
  }
  cur_lane_ = prev_lane;
  return n;
}

std::uint64_t Scheduler::RunUntil(SimTime until) {
  const int prev_lane = cur_lane_;
  std::uint64_t n = 0;
  Fired fired;
  while (PopNext(until, &fired)) {
    ++n;
    Dispatch(fired);
  }
  if (now_ < until) now_ = until;
  cur_lane_ = prev_lane;
  return n;
}

bool Scheduler::Step() {
  const int prev_lane = cur_lane_;
  Fired fired;
  const bool fired_one = PopNext(kNoHorizon, &fired);
  if (fired_one) Dispatch(fired);
  cur_lane_ = prev_lane;
  return fired_one;
}

}  // namespace fabricsim::sim
