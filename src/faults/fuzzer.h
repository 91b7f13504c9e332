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
#include "faults/fault_schedule.h"

namespace fabricsim::faults {

/// One generated chaos case: a CLI-expressible config point plus a fault
/// schedule. Field defaults mirror fabricsim_cli's defaults exactly so
/// ToArgs()/ReproLine() round-trip through the CLI faithfully.
struct ChaosCase {
  std::string ordering = "solo";  // solo|kafka|raft
  double rate = 200.0;
  double duration_s = 30.0;
  int peers = 10;
  int clients = -1;  // -1 = one per peer (the CLI default)
  int osns = 3;
  int channels = 1;
  std::uint32_t batch_size = 100;
  double batch_timeout_s = 1.0;
  std::size_t value_size = 1;
  std::uint64_t seed = 42;
  std::string overload;  // ""=off, else reject|drop-oldest|block
  /// --retain-blocks: ledger and OSN backfill blocks kept (0 = all). Replays
  /// and pinned corpus entries only; campaigns never sample it.
  std::uint64_t retain_blocks = 0;
  /// Canonical fault spec (FaultSchedule::ToSpec of the generated events).
  std::string faults;
  /// True when ScheduleLooksRecoverable audited the schedule as one the
  /// recovery machinery must survive: a permanent stall is then a failure.
  bool expect_recovery = false;

  bool operator==(const ChaosCase&) const = default;

  /// The exact ExperimentConfig fabricsim_cli would build from ToArgs().
  [[nodiscard]] fabric::ExperimentConfig ToConfig() const;
  /// CLI flags, one per element, no shell quoting needed.
  [[nodiscard]] std::vector<std::string> ToArgs() const;
  /// One-line reproduction command for humans.
  [[nodiscard]] std::string ReproLine() const;
  /// Inverse of ToArgs(); throws std::invalid_argument on unknown flags.
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

/// Runs one case and classifies the outcome. `failpoints` ride along so
/// deliberate-bug campaigns and corpus replays share one oracle.
/// `verify_determinism` adds a full repeat run (2x cost).
[[nodiscard]] CaseFailure RunCaseOracle(
    const ChaosCase& chaos_case, const fabric::FailpointOptions& failpoints,
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
  /// Deliberate-bug injection applied to every case (demo campaigns).
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
