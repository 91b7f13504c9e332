// Deterministic chaos fuzzer: seeded random (configuration x fault-timeline)
// campaigns with an invariant oracle.
//
// Every case is derived from the campaign seed alone — case i's generator is
// Rng(campaign_seed ^ f(i)) — so a campaign is byte-reproducible at any
// --jobs setting, and any single case can be regenerated (and shrunk) from
// (campaign_seed, index) long after the campaign finished.
//
// The oracle runs a case through fabric::RunExperiment and fails it on:
//   - any ledger-consistency invariant violation (CheckInvariants);
//   - a permanent commit stall when the schedule was audited recoverable
//     (ScheduleLooksRecoverable — conservative, so "wild" schedules that
//     legitimately kill a channel don't false-positive);
//   - a determinism-fingerprint mismatch across an immediate repeat run;
//   - any unexpected exception out of the experiment.
//
// Failing cases are handed to the shrinker (faults/shrinker.h) and emitted
// as one-line fabricsim_cli repros plus corpus files (tools/chaos_fuzz).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fabric/experiment.h"
#include "fabric/run_flags.h"
#include "faults/fault_schedule.h"

namespace fabricsim::faults {

/// One generated chaos case: a fabricsim_cli flag set plus the oracle's
/// recoverability verdict. Every flag means what it means to the CLI:
/// ToArgs() is the CLI's canonical renderer, FromArgs() its parser and
/// ToConfig() its config builder, so a repro line replays the case exactly.
struct ChaosCase : fabric::RunFlags {
  /// The oracle always checks the ledger invariants, so a case's flags say
  /// so too and every repro line carries --check-invariants.
  ChaosCase() { check_invariants = true; }

  /// True when ScheduleLooksRecoverable audited the schedule as one the
  /// recovery machinery must survive: a permanent stall is then a failure.
  bool expect_recovery = false;

  bool operator==(const ChaosCase&) const = default;

  /// The CLI's config for these flags, plus the oracle's two settings:
  /// invariants always checked, and stalls left to the oracle.
  [[nodiscard]] fabric::ExperimentConfig ToConfig() const;
  /// ToArgs() without the failpoints: what a corpus entry stores, so it
  /// replays green on a healthy tree.
  [[nodiscard]] std::vector<std::string> CorpusArgs() const;
  /// One-line reproduction command for humans.
  [[nodiscard]] std::string ReproLine() const;
  /// The CLI's parser; throws std::invalid_argument with its usage error.
  [[nodiscard]] static ChaosCase FromArgs(const std::vector<std::string>& args);
};

enum class FailureKind : std::uint8_t {
  kNone,
  kInvariant,    // CheckInvariants violation
  kStall,        // permanent stall on a recoverable schedule
  kDeterminism,  // repeat run produced a different fingerprint
  kError,        // unexpected exception
};

[[nodiscard]] const char* FailureKindName(FailureKind kind);

struct CaseFailure {
  FailureKind kind = FailureKind::kNone;
  /// First violated invariant id (kInvariant only), e.g. "double-commit".
  std::string invariant;
  std::string detail;

  [[nodiscard]] bool Failed() const { return kind != FailureKind::kNone; }
  /// Shrink acceptance: a candidate reproduces the original failure iff the
  /// kind and (for invariant failures) the violated invariant match.
  [[nodiscard]] bool SameAs(const CaseFailure& other) const {
    return kind == other.kind && invariant == other.invariant;
  }
};

/// Runs one case, its failpoints included, and classifies the outcome.
/// `verify_determinism` adds a full repeat run (2x cost).
[[nodiscard]] CaseFailure RunCaseOracle(const ChaosCase& chaos_case,
                                        bool verify_determinism);

/// Conservative audit: true only when every fault is a bounded window the
/// recovery machinery is expected to survive (so a stall is a real bug, not
/// an expected outage — e.g. Solo never survives an OSN crash).
[[nodiscard]] bool ScheduleLooksRecoverable(const ChaosCase& chaos_case,
                                            const FaultSchedule& schedule);

struct FuzzerOptions {
  std::uint64_t campaign_seed = 1;
  int runs = 50;
  /// Wall-clock budget in seconds; 0 = run everything. Checked as each case
  /// starts, so a budgeted campaign is NOT byte-reproducible (the cut-off
  /// point depends on host speed) — unbudgeted campaigns always are.
  double time_budget_s = 0.0;
  int jobs = 1;  // 0 = hardware concurrency
  bool verify_determinism = true;
  /// Oracle-run budget per shrink (the shrinker stops when it runs out).
  int max_shrink_runs = 200;
  bool shrink = true;
  /// Byzantine campaign (--byzantine): every case additionally schedules one
  /// malicious-actor fault (equivocate, tamper-block, bogus-backfill,
  /// forge-endorsement, or replay-tx). OSN-level attacks need a second OSN
  /// for the attestation defense to ask, so byzantine cases never use Solo;
  /// and the base fault mix drops message-destroying kinds (crash,
  /// partition, loss) — losing the honest attesters mid-attack can
  /// legitimately defeat a quorum defense, which the oracle cannot tell
  /// apart from a defense bug. That interplay is drilled deterministically
  /// in bench/fault_recovery instead.
  bool byzantine = false;
  /// Deliberate-bug injection carried by every case (demo campaigns).
  fabric::FailpointOptions failpoints;
};

struct CampaignFailure {
  int index = 0;
  ChaosCase original;
  CaseFailure failure;
  /// Minimized case (== original when shrinking is off or made no progress)
  /// and the failure it still reproduces.
  ChaosCase shrunk;
  CaseFailure shrunk_failure;
  int shrink_oracle_runs = 0;
};

struct CampaignResult {
  int cases_run = 0;
  int cases_skipped = 0;  // time budget exhausted before these started
  std::vector<CampaignFailure> failures;

  [[nodiscard]] bool AllGreen() const { return failures.empty(); }
};

class ChaosFuzzer {
 public:
  explicit ChaosFuzzer(FuzzerOptions options) : options_(options) {}

  [[nodiscard]] const FuzzerOptions& Options() const { return options_; }

  /// Case `index` of this campaign, derived from the campaign seed alone.
  [[nodiscard]] ChaosCase GenerateCase(int index) const;

  /// Runs the whole campaign, fanning cases out across `jobs` host threads.
  /// Failures are reported in case-index order regardless of `jobs`.
  [[nodiscard]] CampaignResult RunCampaign() const;

 private:
  FuzzerOptions options_;
};

}  // namespace fabricsim::faults
