// Multi-core CPU resource model.
//
// A `Cpu` models a machine's processor as `cores` identical servers in front
// of a single FIFO queue (an M/G/c station). Components submit jobs with a
// nominal CPU cost in nanoseconds of core time; the cost is scaled by the
// machine's speed factor (slower machines take proportionally longer).
// The paper's cluster mixes i7-2600 (fast) and i7-920 (slow) machines, which
// the speed factor captures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace fabricsim::sim {

/// A multi-core FIFO CPU station attached to a scheduler.
class Cpu {
 public:
  using Completion = std::function<void()>;

  /// `cores` >= 1; `speed_factor` scales job durations (1.0 = nominal,
  /// 0.8 = runs at 80% speed, i.e. jobs take 1/0.8 of nominal time).
  Cpu(Scheduler& sched, int cores, double speed_factor = 1.0);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Submits a job costing `cost` nanoseconds of nominal core time.
  /// `done` runs when the job completes. Zero/negative costs complete after
  /// being serviced by a core with zero duration (still FIFO-ordered).
  /// `high_priority` jobs (the interactive RPC path, e.g. endorsement)
  /// bypass queued normal-priority work (background validation).
  void Submit(SimDuration cost, Completion done, bool high_priority = false);

  /// Number of jobs currently queued (excluding the ones running on cores).
  [[nodiscard]] std::size_t QueueLength() const {
    return queue_.size() + high_queue_.size();
  }

  /// Number of cores currently busy.
  [[nodiscard]] int BusyCores() const { return busy_cores_; }

  [[nodiscard]] int Cores() const { return cores_; }

  /// The wall duration a job of nominal cost `cost` occupies a core for
  /// (speed-factor scaled) — what Submit charges.
  [[nodiscard]] SimDuration ScaledCost(SimDuration cost) const;

  /// Current speed factor (1.0 = nominal).
  [[nodiscard]] double SpeedFactor() const { return 1.0 / inv_speed_; }

  /// Changes the speed factor at runtime (transient slowdown injection).
  /// Jobs already running keep their original duration; jobs started after
  /// the call are scaled by the new factor.
  void SetSpeedFactor(double speed_factor);

  /// Total core-busy time accrued up to the current simulated time.
  [[nodiscard]] SimDuration BusyTime() const { return BusyTimeAt(sched_.Now()); }

  /// Core-busy time accrued in [0, t] for any t <= now (exact: the CPU keeps
  /// a compact history of busy-core transitions).
  [[nodiscard]] SimDuration BusyTimeAt(SimTime t) const;

  /// Utilization in [0,1] over the window [0, now].
  [[nodiscard]] double Utilization() const;

  /// Utilization in [0,1] over the window [t0, t1] (t1 <= now), so reports
  /// can exclude warm-up exactly like TxTracker::BuildReport does.
  [[nodiscard]] double Utilization(SimTime t0, SimTime t1) const;

  /// Total jobs completed.
  [[nodiscard]] std::uint64_t CompletedJobs() const { return completed_; }

  /// Bounded-memory mode: stop recording the busy-core transition history
  /// (two marks per job, forever — the one per-job allocation left once the
  /// TxTracker streams). Running totals (BusyTime(), Utilization() to now,
  /// BusyCores()) stay exact; only PAST-time queries (BusyTimeAt(t) /
  /// Utilization(t0, t1) with t < now) need the history, and the sole such
  /// caller — attribution — is mutually exclusive with streaming runs.
  /// Already-recorded marks are kept, so past queries up to the switch-on
  /// point remain exact.
  void SetBoundedMarks(bool on) { bounded_marks_ = on; }

 private:
  struct Job {
    SimDuration cost;
    Completion done;
  };
  /// One busy-core transition: cumulative busy time up to `t`, and the
  /// number of busy cores from `t` onward.
  struct BusyMark {
    SimTime t;
    SimDuration cum;
    int busy;
  };

  void StartJob(Job job);
  void OnJobDone(Completion done);
  void AccrueBusyTime();

  Scheduler& sched_;
  int cores_;
  double inv_speed_;
  int busy_cores_ = 0;
  std::uint64_t completed_ = 0;
  std::deque<Job> queue_;
  std::deque<Job> high_queue_;

  // Busy-time accrual: cum_busy_ is exact as of last_change_; between marks
  // the busy-core count is constant, so BusyTimeAt interpolates exactly.
  SimDuration cum_busy_ = 0;
  SimTime last_change_ = 0;
  bool bounded_marks_ = false;
  std::vector<BusyMark> marks_;
};

}  // namespace fabricsim::sim
