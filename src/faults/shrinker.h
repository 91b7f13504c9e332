// Delta-debugging shrinker for failing chaos cases.
//
// Given a failing ChaosCase and the failure it produced, ShrinkCase greedily
// minimizes the case while the oracle keeps reproducing the *same* failure
// (CaseFailure::SameAs: same kind, same violated invariant). Passes, run to
// a fixpoint within the oracle budget:
//
//   1. remove fault events one at a time;
//   2. shorten the measurement horizon (duration x0.7 steps, >= 12 s);
//   3. narrow fault windows (halve the length, >= 100 ms);
//   4. round event times to whole seconds;
//   5. reset config knobs to the fabricsim_cli flag defaults (channels,
//      overload, value size, retention, batch shape, client count) and
//      round the rate.
//
// Shrink-step validity invariant: every candidate's fault spec must parse
// and round-trip through FaultSchedule::ToSpec unchanged, and a candidate
// for a kStall failure must still pass ScheduleLooksRecoverable (otherwise
// the oracle could not classify a stall as a failure at all). Candidates
// violating either rule are skipped without consuming oracle budget.
#pragma once

#include <functional>

#include "faults/fuzzer.h"

namespace fabricsim::faults {

/// Oracle the shrinker consults; must classify exactly like the campaign's
/// (same failpoints; determinism re-runs only when chasing kDeterminism).
using ShrinkOracle = std::function<CaseFailure(const ChaosCase&)>;

struct ShrinkOptions {
  /// Hard cap on oracle invocations (each is a full simulated experiment).
  int max_oracle_runs = 200;
};

struct ShrinkOutcome {
  /// Smallest case still reproducing the original failure (== the input
  /// case when nothing could be removed).
  ChaosCase best;
  CaseFailure failure;
  int oracle_runs = 0;
  int rounds = 0;
};

[[nodiscard]] ShrinkOutcome ShrinkCase(const ChaosCase& failing,
                                       const CaseFailure& original,
                                       const ShrinkOracle& oracle,
                                       const ShrinkOptions& options = {});

}  // namespace fabricsim::faults
