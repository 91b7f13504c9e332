#include "sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace fabricsim::sim {

Cpu::Cpu(Scheduler& sched, int cores, double speed_factor)
    : sched_(sched),
      cores_(cores < 1 ? 1 : cores),
      inv_speed_(speed_factor > 0 ? 1.0 / speed_factor : 1.0),
      running_(static_cast<std::size_t>(cores_)) {
  for (int slot = cores_ - 1; slot >= 0; --slot) {
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
}

void Cpu::SetSpeedFactor(double speed_factor) {
  inv_speed_ = speed_factor > 0 ? 1.0 / speed_factor : 1.0;
}

SimDuration Cpu::ScaledCost(SimDuration cost) const {
  if (cost < 0) cost = 0;
  return static_cast<SimDuration>(static_cast<double>(cost) * inv_speed_);
}

void Cpu::Submit(SimDuration cost, Completion done, bool high_priority) {
  Job job{cost < 0 ? 0 : cost, std::move(done)};
  if (busy_cores_ < cores_) {
    StartJob(std::move(job));
  } else if (high_priority) {
    high_queue_.push_back(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void Cpu::AccrueBusyTime() {
  const SimTime now = sched_.Now();
  cum_busy_ += static_cast<SimDuration>(now - last_change_) * busy_cores_;
  last_change_ = now;
}

void Cpu::StartJob(Job job) {
  AccrueBusyTime();
  ++busy_cores_;
  if (bounded_marks_) {
    // Running totals stay exact; only the past-time history is dropped.
  } else if (marks_.empty() || marks_.back().t != last_change_) {
    marks_.push_back({last_change_, cum_busy_, busy_cores_});
  } else {
    marks_.back().busy = busy_cores_;
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  running_[slot] = std::move(job.done);
  sched_.ScheduleAfter(
      ScaledCost(job.cost), [this, slot] { OnJobDone(slot); },
      "cpu/job_done");
}

void Cpu::OnJobDone(std::uint32_t slot) {
  Completion done = std::move(running_[slot]);
  free_slots_.push_back(slot);
  AccrueBusyTime();
  --busy_cores_;
  if (bounded_marks_) {
  } else if (marks_.empty() || marks_.back().t != last_change_) {
    marks_.push_back({last_change_, cum_busy_, busy_cores_});
  } else {
    marks_.back().busy = busy_cores_;
  }
  ++completed_;
  // Start the next queued job before running the completion so that a
  // completion which submits new work queues behind already-waiting jobs.
  if (!high_queue_.empty()) {
    Job next = std::move(high_queue_.front());
    high_queue_.pop_front();
    StartJob(std::move(next));
  } else if (!queue_.empty()) {
    Job next = std::move(queue_.front());
    queue_.pop_front();
    StartJob(std::move(next));
  }
  if (done) done();
}

SimDuration Cpu::BusyTimeAt(SimTime t) const {
  const SimTime now = sched_.Now();
  if (t > now) t = now;
  if (t <= 0) return 0;
  // The running-total fast path needs no history, so it must come before
  // the empty-marks bailout — with bounded marks it is the only path.
  if (t >= last_change_) {
    return cum_busy_ + static_cast<SimDuration>(t - last_change_) * busy_cores_;
  }
  if (marks_.empty()) return 0;
  // Last mark with mark.t <= t; marks_ is ordered by construction.
  auto it = std::upper_bound(
      marks_.begin(), marks_.end(), t,
      [](SimTime lhs, const BusyMark& m) { return lhs < m.t; });
  if (it == marks_.begin()) return 0;
  --it;
  return it->cum + static_cast<SimDuration>(t - it->t) * it->busy;
}

double Cpu::Utilization() const { return Utilization(0, sched_.Now()); }

double Cpu::Utilization(SimTime t0, SimTime t1) const {
  if (t1 <= t0) return 0.0;
  const double capacity = static_cast<double>(t1 - t0) * cores_;
  const double used = static_cast<double>(BusyTimeAt(t1) - BusyTimeAt(t0));
  return used > capacity ? 1.0 : used / capacity;
}

}  // namespace fabricsim::sim
