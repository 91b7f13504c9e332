// Experiment runner: one (configuration, arrival-rate) measurement point.
//
// Builds a network, warms it up, drives the open-loop workload through the
// measurement window, drains, and reports the paper's metrics (per-phase
// throughput and latency, block time, rejections).
#pragma once

#include <optional>
#include <string>

#include "client/workload.h"
#include "fabric/network_builder.h"
#include "faults/fault_injector.h"
#include "faults/invariants.h"
#include "metrics/phase_stats.h"
#include "obs/attribution.h"
#include "sim/profiler.h"

namespace fabricsim::metrics {
class Registry;
}  // namespace fabricsim::metrics

namespace fabricsim::fabric {

struct ExperimentConfig {
  NetworkOptions network;
  client::WorkloadConfig workload;
  /// Time before the measurement window opens (consensus warm-up + ramp).
  sim::SimDuration warmup = sim::FromSeconds(10);
  /// Time after the window closes, letting in-flight transactions commit.
  sim::SimDuration drain = sim::FromSeconds(15);
  /// Declarative fault schedule (see faults/fault_schedule.h for the
  /// grammar). Non-empty implies `network.recovery.enabled`; after the run
  /// the ledger-consistency invariants are checked automatically and a
  /// throughput dip/recovery analysis around the first fault is reported.
  std::string faults;
  /// Check the ledger-consistency invariants even without faults (overload
  /// runs must prove shedding never loses an acked tx). Forces per-client
  /// outcome logging.
  bool check_invariants = false;
  /// When a faulted run permanently stalls, count acked-but-uncommitted
  /// transactions as lost (the acked-lost invariant) — their commit can
  /// never arrive. The chaos fuzzer turns this off because a stall on an
  /// unaudited schedule is a legitimate outcome, not a lost-ack bug; it
  /// classifies stalls separately against its own recoverability audit.
  bool stall_pending_is_lost = true;
  /// Streaming (bounded-memory) TxTracker accounting: per-tx records retire
  /// on terminal state instead of accumulating. Produces an identical report
  /// (see metrics::TxTracker) but empties Records(), so the runner silently
  /// falls back to full-record mode when attribution, faults, invariants, or
  /// recovery need post-hoc records (recovery's commit-timeout can reject a
  /// tx after its commit retired the record).
  bool streaming_stats = false;
  /// Optional metrics registry: the runner wires standard gauges (every
  /// machine's CPU busy cores and queue length, the validator disk, network
  /// bytes in flight, queue depths and high-watermarks, sheds, scheduler
  /// backlog, tracker occupancy) and samples them every `metrics_period` of
  /// simulated time on observer events — attaching it changes no simulated
  /// result. Reset + rewired each run; not owned. The caller exports the
  /// timeline with Registry::WriteJson/WritePrometheus/WriteCsv afterwards.
  metrics::Registry* registry = nullptr;
  sim::SimDuration metrics_period = sim::FromMillis(250);
  /// Host-side DES profiler: per-handler dispatch counts and host-ns
  /// attribution into ExperimentResult::profile (a few percent wall-clock
  /// overhead; simulated results unchanged).
  bool profile = false;
  /// Optional external profiler (e.g. the CLI's, for Chrome-trace export).
  /// When set it is used instead of an internal one and `profile` is
  /// implied. Not owned; Reset each run.
  sim::DesProfiler* profiler = nullptr;
};

/// Deterministic tracker-occupancy stats for the bounded-memory proof.
struct TrackerStats {
  bool streaming = false;
  std::uint64_t records_hwm = 0;  // peak concurrent TxRecords
  std::uint64_t retired = 0;
  std::uint64_t late_marks = 0;  // must be 0 for streaming == full
};

struct ExperimentResult {
  metrics::Report report;
  std::uint64_t generated = 0;
  std::uint64_t client_committed_valid = 0;
  std::uint64_t client_committed_invalid = 0;
  std::uint64_t client_rejected = 0;
  std::uint64_t endorse_failures = 0;
  /// Overload-protection accounting (0 when protection is off).
  std::uint64_t osn_shed = 0;       // envelopes shed at OSN ingress
  std::uint64_t endorser_shed = 0;  // proposals shed at endorser ingress
  std::uint64_t committer_deferred = 0;  // blocks parked at the committer
  /// Byzantine-defense accounting, summed over all peers/channels. All zero
  /// on honest runs (the unexplained-reject invariant enforces it).
  std::uint64_t rejected_blocks = 0;      // committer structural rejects
  std::uint64_t duplicate_tx_rejects = 0; // replays flagged kDuplicateTxId
  std::uint64_t byz_quarantines = 0;      // deliverers dropped on mismatch
  std::uint64_t bad_endorsements = 0;     // client-side forged-sig rejects
  /// MSP identity-cache counters summed over every committer's cache (all
  /// zero unless --opt-msp-cache is on).
  std::uint64_t msp_cache_hits = 0;
  std::uint64_t msp_cache_misses = 0;
  std::uint64_t msp_cache_evictions = 0;
  std::uint64_t chain_height = 0;
  /// Hex hash of the validator chain's tip block header: the determinism
  /// fingerprint (same seed + config ⇒ same hash, with or without host-side
  /// caches). Recorded in the bench JSON and compared exactly by bench_diff.
  std::string chain_head_hex;
  /// Scheduler events executed by this run — the denominator of the host
  /// events/sec metric.
  std::uint64_t sched_events = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  bool chain_audit_ok = false;
  /// The paper's methodology item 5: measured generation rate over the
  /// window, and the fraction of 1 s windows within 25% of the target.
  double generated_rate_tps = 0.0;
  double generated_rate_check = 0.0;
  /// Present iff the experiment ran with `network.tracer` attached: the
  /// per-phase service/queue/wire latency decomposition + verdicts.
  std::optional<obs::AttributionReport> attribution;
  /// Present iff `faults` was non-empty: what the injector did, whether the
  /// ledger-consistency invariants held, and the throughput recovery around
  /// the first fault (measured on the validator's commit log).
  std::vector<faults::FaultInjector::LogEntry> fault_log;
  std::optional<faults::InvariantReport> invariants;
  std::optional<faults::RecoverySummary> recovery;
  /// Deterministic tracker-occupancy stats (always filled; `streaming` says
  /// whether the bounded-memory path actually engaged).
  TrackerStats tracker;
  /// Present iff `profile` was set (host-side timing; not deterministic).
  std::optional<sim::ProfileReport> profile;
};

/// Runs one experiment to completion (simulated time, wall-clock fast).
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Convenience: the paper's standard setup for Figs. 2-7 at one arrival
/// rate. `and_x` == 0 selects OR over all endorsing peers; > 0 selects ANDx.
ExperimentConfig StandardConfig(OrderingType ordering, int and_x,
                                double rate_tps);

}  // namespace fabricsim::fabric
