#include "faults/shrinker.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fabricsim::faults {

namespace {

/// Shared shrink state: the best case so far and the oracle budget.
struct Shrink {
  ChaosCase best;
  CaseFailure best_failure;
  const CaseFailure& original;
  const ShrinkOracle& oracle;
  int runs = 0;
  int max_runs;

  [[nodiscard]] bool Exhausted() const { return runs >= max_runs; }

  /// Validity-checks `candidate`, consults the oracle, and adopts the
  /// candidate iff it reproduces the original failure. Returns adoption.
  bool Try(ChaosCase candidate) {
    if (Exhausted()) return false;
    try {
      const FaultSchedule schedule = FaultSchedule::Parse(candidate.faults);
      // Shrink-step validity invariant: the spec must round-trip.
      if (FaultSchedule::Parse(schedule.ToSpec()) != schedule) return false;
      if (original.kind == FailureKind::kStall) {
        // A stall is only a failure on an audited-recoverable schedule; a
        // candidate that leaves the auditable set cannot reproduce it.
        candidate.expect_recovery =
            ScheduleLooksRecoverable(candidate, schedule);
        if (!candidate.expect_recovery) return false;
      }
    } catch (const std::invalid_argument&) {
      return false;
    }
    ++runs;
    CaseFailure failure = oracle(candidate);
    if (!failure.SameAs(original)) return false;
    best = std::move(candidate);
    best_failure = std::move(failure);
    return true;
  }
};

/// Pass 1: drop events one at a time, greedily, until none can go.
bool RemoveEvents(Shrink& shrink) {
  bool progress = false;
  FaultSchedule schedule = FaultSchedule::Parse(shrink.best.faults);
  std::size_t i = 0;
  while (i < schedule.events.size() && !shrink.Exhausted()) {
    FaultSchedule candidate_schedule = schedule;
    candidate_schedule.events.erase(candidate_schedule.events.begin() +
                                    static_cast<std::ptrdiff_t>(i));
    ChaosCase candidate = shrink.best;
    candidate.faults = candidate_schedule.ToSpec();
    if (shrink.Try(std::move(candidate))) {
      schedule = std::move(candidate_schedule);
      progress = true;
    } else {
      ++i;
    }
  }
  return progress;
}

/// Pass 2: shorten the horizon in x0.7 steps on the 0.5 s grid, >= 12 s.
bool ShortenHorizon(Shrink& shrink) {
  bool progress = false;
  while (shrink.best.duration_s > 12.0 && !shrink.Exhausted()) {
    ChaosCase candidate = shrink.best;
    candidate.duration_s = std::max(
        12.0, std::floor(candidate.duration_s * 0.7 * 2.0) / 2.0);
    if (candidate.duration_s >= shrink.best.duration_s) break;
    if (!shrink.Try(std::move(candidate))) break;
    progress = true;
  }
  return progress;
}

/// Pass 3: halve every window's length while it stays >= 100 ms.
bool NarrowWindows(Shrink& shrink) {
  bool progress = false;
  FaultSchedule schedule = FaultSchedule::Parse(shrink.best.faults);
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    while (!shrink.Exhausted()) {
      FaultEvent& ev = schedule.events[i];
      if (!ev.until) break;
      const sim::SimTime len = *ev.until - ev.at;
      if (len <= 2 * sim::kMillisecond * 100) break;
      FaultSchedule candidate_schedule = schedule;
      // Keep the millisecond grid so the rendered spec stays short.
      const sim::SimTime half =
          std::max<sim::SimTime>(100 * sim::kMillisecond,
                                 (len / 2 / sim::kMillisecond) *
                                     sim::kMillisecond);
      candidate_schedule.events[i].until = ev.at + half;
      ChaosCase candidate = shrink.best;
      candidate.faults = candidate_schedule.ToSpec();
      if (!shrink.Try(std::move(candidate))) break;
      schedule = std::move(candidate_schedule);
      progress = true;
    }
  }
  return progress;
}

/// Pass 4: snap event times to whole seconds where the failure survives.
bool RoundTimes(Shrink& shrink) {
  bool progress = false;
  FaultSchedule schedule = FaultSchedule::Parse(shrink.best.faults);
  for (std::size_t i = 0; i < schedule.events.size() && !shrink.Exhausted();
       ++i) {
    FaultSchedule candidate_schedule = schedule;
    FaultEvent& ev = candidate_schedule.events[i];
    const sim::SimTime at =
        std::llround(sim::ToSeconds(ev.at)) * sim::kSecond;
    if (at == ev.at && (!ev.until || *ev.until % sim::kSecond == 0)) {
      continue;
    }
    ev.at = at;
    if (ev.until) {
      sim::SimTime until =
          std::llround(sim::ToSeconds(*ev.until)) * sim::kSecond;
      if (until <= ev.at) until = ev.at + sim::kSecond;
      ev.until = until;
    }
    ChaosCase candidate = shrink.best;
    candidate.faults = candidate_schedule.ToSpec();
    if (shrink.Try(std::move(candidate))) {
      schedule = std::move(candidate_schedule);
      progress = true;
    }
  }
  return progress;
}

/// Pass 5: reset config knobs to the flag defaults, one at a time.
bool SimplifyKnobs(Shrink& shrink) {
  static const fabric::RunFlags kDefaults;
  bool progress = false;
  auto attempt = [&](auto mutate) {
    if (shrink.Exhausted()) return;
    ChaosCase candidate = shrink.best;
    mutate(candidate);
    if (candidate == shrink.best) return;
    if (shrink.Try(std::move(candidate))) progress = true;
  };
  attempt([](ChaosCase& c) { c.channels = kDefaults.channels; });
  attempt([](ChaosCase& c) { c.overload = kDefaults.overload; });
  attempt([](ChaosCase& c) { c.value_size = kDefaults.value_size; });
  attempt([](ChaosCase& c) { c.retain_blocks = kDefaults.retain_blocks; });
  attempt([](ChaosCase& c) { c.batch_size = kDefaults.batch_size; });
  attempt([](ChaosCase& c) { c.batch_timeout_s = kDefaults.batch_timeout_s; });
  attempt([](ChaosCase& c) { c.clients = kDefaults.clients; });
  attempt([](ChaosCase& c) {
    c.rate = std::max(10.0, std::round(c.rate / 10.0) * 10.0);
  });
  return progress;
}

}  // namespace

ShrinkOutcome ShrinkCase(const ChaosCase& failing, const CaseFailure& original,
                         const ShrinkOracle& oracle,
                         const ShrinkOptions& options) {
  Shrink shrink{failing, original, original, oracle, 0,
                options.max_oracle_runs};
  bool progress = true;
  int rounds = 0;
  while (progress && !shrink.Exhausted()) {
    ++rounds;
    progress = false;
    progress |= RemoveEvents(shrink);
    progress |= ShortenHorizon(shrink);
    progress |= NarrowWindows(shrink);
    progress |= RoundTimes(shrink);
    progress |= SimplifyKnobs(shrink);
  }
  ShrinkOutcome outcome;
  outcome.best = std::move(shrink.best);
  outcome.failure = std::move(shrink.best_failure);
  outcome.oracle_runs = shrink.runs;
  outcome.rounds = rounds;
  return outcome;
}

}  // namespace fabricsim::faults
