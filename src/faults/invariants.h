// Ledger-consistency invariants for chaos runs, plus throughput-recovery
// analysis around a fault.
//
// CheckInvariants() verifies, over a finished run:
//   - chain-audit:    every peer's hash chain passes its own audit;
//   - chain-fork:     peers on a channel agree block-by-block up to the
//                     shortest chain (no forks);
//   - double-commit:  no transaction id appears twice in one chain, and no
//                     client observed two valid commit events for one tx;
//   - phantom-commit: every committed transaction was actually submitted;
//   - acked-lost:     every broadcast-acked transaction either committed or
//                     was explicitly rejected back to the client (needs
//                     clients built with track_outcomes, i.e. recovery on).
//                     Transactions still pending in the client are exempt —
//                     under sustained load the run's horizon always cuts
//                     through in-flight work — unless the caller passes
//                     pending_is_lost=true because commits have permanently
//                     stalled, in which case that wait will never end;
//   - silent-drop:    every submitted transaction reached a terminal status
//                     (committed or rejected — overload sheds included) or
//                     is still pending inside the client. Overload
//                     protection may refuse work, but never wordlessly.
//   - no-forged-commit: every transaction committed as valid still passes
//                     VSCC when re-run against the committed bytes — a
//                     tampered payload or forged endorsement that slipped
//                     into the ledger fails here (memoized verdicts make
//                     the honest re-check nearly free);
//   - no-surviving-fork: every committed block matches the block the
//                     ordering service's canonical histories hold at that
//                     number (majority across OSNs), catching a channel-wide
//                     fork that pairwise peer comparison cannot see;
//   - unexplained-reject: the committers' block-reject counters and the
//                     peers' attestation quarantines are zero unless the
//                     run scheduled a Byzantine fault (pass
//                     byzantine_expected=true) — rejects must always be
//                     attributable, never background noise.
#pragma once

#include <string>
#include <vector>

#include "fabric/network_builder.h"
#include "metrics/rate_log.h"

namespace fabricsim::faults {

struct InvariantViolation {
  std::string invariant;  // short id, e.g. "chain-fork"
  std::string detail;
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  std::size_t chains_audited = 0;
  std::size_t blocks_compared = 0;
  std::size_t txs_checked = 0;

  [[nodiscard]] bool Ok() const { return violations.empty(); }
  /// One line per violation (or a one-line all-clear with the check counts).
  [[nodiscard]] std::string Summary() const;
};

[[nodiscard]] InvariantReport CheckInvariants(fabric::FabricNetwork& net,
                                              bool pending_is_lost = false,
                                              bool byzantine_expected = false);

/// Throughput dip/recovery around a fault, from a 1 s-windowed commit log.
/// `fault_at` is when the first fault fired; `end` bounds the analysis
/// (pass the measurement end, not the drain end, so the generator stopping
/// is not mistaken for a stall).
struct RecoverySummary {
  double pre_fault_tps = 0.0;   // mean over the 5 s before the fault
  double dip_tps = 0.0;         // worst 1 s window after the fault
  double recovered_tps = 0.0;   // mean from the recovery point to `end`
  /// Seconds from the fault until a window first reaches 90% of the
  /// pre-fault rate; negative if that never happens.
  double time_to_recover_s = -1.0;
  /// Seconds from the fault until the first window starting at/after it
  /// that commits anything (capped at `end`): how long commits stopped
  /// dead. 0 when the first window after the fault still commits.
  double outage_s = 0.0;
  /// True when commits never resume after the fault (permanent stall).
  bool stalled = false;
};

[[nodiscard]] RecoverySummary AnalyzeRecovery(const metrics::RateLog& commits,
                                              sim::SimTime fault_at,
                                              sim::SimTime end);

}  // namespace fabricsim::faults
