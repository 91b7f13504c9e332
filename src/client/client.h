// Client node: the Fabric SDK (Node.js v1.0) application model.
//
// Reproduces the paper's workload-generator design: a single-threaded
// event loop (1-core CPU) that invokes transactions asynchronously —
// proposals fan out to the endorsers chosen by the endorsement policy,
// responses are collected without blocking new submissions, envelopes are
// broadcast to an ordering node, and commit events arrive from a peer the
// client registered with. A broadcast response not received within the
// paper's 3-second budget marks the transaction rejected.
//
// Failure handling: every retry knob defaults to the paper's SDK behaviour
// (fixed 200 ms nack retry to one pinned orderer, no failover). With the
// recovery options enabled (chaos experiments), the client rotates through
// a list of orderer endpoints with exponential backoff + deterministic
// jitter, retries endorsement against surviving endorsers, and resubmits
// envelopes whose commit event never arrives — the committer's tx-id dedup
// guarantees resubmission never double-commits.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "crypto/identity.h"
#include "fabric/calibration.h"
#include "metrics/phase_stats.h"
#include "ordering/messages.h"
#include "peer/peer_messages.h"
#include "policy/evaluator.h"
#include "sim/machine.h"

namespace fabricsim::client {

/// Why an attempt (not necessarily the whole transaction) failed. Each
/// failed attempt increments its reason's counter, so retry budgets are
/// visible per reason instead of one undifferentiated number.
enum class FailureReason : std::size_t {
  kPolicyUnsatisfiable = 0,  // no endorser subset can satisfy the policy
  kEndorseTimeout,           // endorsers silent past the endorse timeout
  kEndorseRefused,           // an endorser answered with a failure status
  kRwsetMismatch,            // endorsers produced divergent rwsets
  kBroadcastTimeout,         // orderer silent past the 3 s broadcast budget
  kBroadcastNack,            // orderer rejected the broadcast
  kCommitTimeout,            // broadcast acked but no commit event arrived
  kBroadcastOverload,        // orderer shed the broadcast (SERVICE_UNAVAILABLE)
  kEndorseOverload,          // endorser shed the proposal (SERVICE_UNAVAILABLE)
  kClientShed,               // local launch queue full; tx shed client-side
  kBadEndorsement,           // endorsement signature failed verification
  kCount,
};

[[nodiscard]] const char* FailureReasonName(FailureReason reason);

/// Client-side flow control: an AIMD max-inflight window plus optional
/// token-bucket pacing, both driven by SERVICE_UNAVAILABLE nacks from
/// overloaded endorsers and orderers (gRPC clients against Fabric use the
/// same shape: bounded inflight RPCs + retry-after honoring).
struct FlowControlConfig {
  bool enabled = false;
  /// Transactions allowed between launch and terminal status at once.
  double initial_window = 16.0;
  double min_window = 1.0;
  double max_window = 512.0;
  /// Window growth per acked broadcast (divided by the current window, so
  /// the window grows by ~this much per window's worth of acks).
  double additive_increase = 1.0;
  /// Window/pace shrink factor on an overload nack.
  double multiplicative_decrease = 0.5;
  /// Built proposals parked behind the window; overflow is shed locally
  /// with a clean terminal status (never silently).
  std::size_t max_queue = 512;
  /// Token-bucket launch rate in tx/s; 0 disables pacing.
  double pace_tps = 0.0;
  double pace_min_tps = 1.0;
  double pace_burst = 16.0;
};

struct ClientConfig {
  std::string channel_id = "mychannel";
  sim::SimDuration endorse_timeout = sim::FromSeconds(10);
  /// Broadcast-nack retry budget (the SDK's existing behaviour).
  int broadcast_retries = 2;
  /// Base delay before a retry; grows by `backoff_factor` per attempt up to
  /// `backoff_max`, with +/- `backoff_jitter` deterministic jitter.
  sim::SimDuration broadcast_retry_delay = sim::FromMillis(200);
  double backoff_factor = 2.0;
  sim::SimDuration backoff_max = sim::FromSeconds(5);
  double backoff_jitter = 0.1;
  /// Retries after a *silent* broadcast timeout (0 = reject immediately,
  /// the paper's behaviour). Each retry rotates to the next orderer.
  int broadcast_timeout_retries = 0;
  /// Endorsement retries against surviving endorsers (0 = reject on first
  /// failure, the SDK v1.0 behaviour).
  int endorse_retries = 0;
  /// After a successful broadcast ack, how long to wait for the commit
  /// event before resubmitting / rejecting (0 = wait forever).
  sim::SimDuration commit_timeout = 0;
  int commit_retries = 0;
  /// Records per-transaction outcome sets (acked / committed / rejected)
  /// for the ledger-consistency invariant checker. Off by default: the
  /// bookkeeping is per-tx memory that steady-state benchmarks don't need.
  bool track_outcomes = false;
  /// Client-side flow control (off = legacy fire-at-will behaviour).
  FlowControlConfig flow;
};

/// One client application instance on its own machine.
class Client {
 public:
  Client(sim::Environment& env, sim::Machine& machine,
         crypto::Identity identity, const fabric::Calibration& cal,
         ClientConfig config, policy::EndorsementPolicy policy,
         metrics::TxTracker* tracker, int index);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Wires the endorsing peers this client can reach (id + principal).
  void SetEndorsers(std::vector<sim::NodeId> ids,
                    std::vector<crypto::Principal> principals);

  /// The OSN this client broadcasts to (single endpoint, no failover).
  void SetOrderer(sim::NodeId osn) { SetOrderers({osn}, 0); }

  /// Orderer endpoint list for failover: broadcasts go to the endpoint at
  /// `start_index`; every retry rotates to the next one.
  void SetOrderers(std::vector<sim::NodeId> osns, std::size_t start_index = 0);

  /// The endpoint the next broadcast will go to (tests/telemetry).
  [[nodiscard]] sim::NodeId CurrentOrderer() const {
    return orderers_.empty() ? sim::kInvalidNode : orderers_[orderer_index_];
  }

  /// The peer whose commit events this client listens to.
  void SetEventSource(sim::NodeId peer);

  [[nodiscard]] sim::NodeId NetId() const { return net_id_; }

  /// The machine this client runs on (its scheduler lane anchors the
  /// open-loop arrival timers).
  [[nodiscard]] sim::Machine& Host() { return machine_; }

  /// Submits one chaincode invocation (asynchronously; returns at once).
  /// `proposal_built` (optional) runs when the event loop finishes building
  /// and signing the proposal — i.e. when the loop is free for the next
  /// timer callback. Open-loop generators use it to self-throttle exactly
  /// like Node.js timers under a saturated event loop.
  void Submit(proto::ChaincodeInvocation inv,
              std::function<void()> proposal_built = nullptr);

  // Counters for reports and tests.
  [[nodiscard]] std::uint64_t Submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t CommittedValid() const { return committed_valid_; }
  [[nodiscard]] std::uint64_t CommittedInvalid() const {
    return committed_invalid_;
  }
  [[nodiscard]] std::uint64_t Rejected() const { return rejected_; }

  // Flow-control observability (tests/telemetry).
  [[nodiscard]] std::size_t PendingCount() const { return pending_.size(); }
  [[nodiscard]] bool IsPending(const std::string& tx_id) const {
    return pending_.count(tx_id) != 0;
  }
  [[nodiscard]] double FlowWindow() const { return window_; }
  [[nodiscard]] std::size_t LaunchQueueDepth() const {
    return launch_queue_.size();
  }
  [[nodiscard]] std::size_t Inflight() const { return inflight_; }

  /// Failed attempts by reason (a rejected tx may contribute several).
  [[nodiscard]] std::uint64_t Failures(FailureReason reason) const {
    return failure_counts_[static_cast<std::size_t>(reason)];
  }
  /// Endorsement-related failures (policy, timeout, refusal, rwset) — the
  /// pre-existing undifferentiated counter, kept for reports.
  [[nodiscard]] std::uint64_t EndorseFailures() const {
    return Failures(FailureReason::kPolicyUnsatisfiable) +
           Failures(FailureReason::kEndorseTimeout) +
           Failures(FailureReason::kEndorseRefused) +
           Failures(FailureReason::kRwsetMismatch) +
           Failures(FailureReason::kBadEndorsement);
  }

  /// Outcome sets for the invariant checker; only populated with
  /// `config.track_outcomes` on.
  struct OutcomeLog {
    std::unordered_set<std::string> submitted;
    std::unordered_set<std::string> acked;     // broadcast acked ok
    std::unordered_set<std::string> rejected;  // client gave up
    /// tx id -> number of commit events observed (any validation code).
    std::unordered_map<std::string, int> commits;
    /// tx id -> number of kValid commit events observed for it.
    std::unordered_map<std::string, int> valid_commits;
  };
  [[nodiscard]] const OutcomeLog* Outcomes() const {
    return config_.track_outcomes ? &outcomes_ : nullptr;
  }

  /// Failpoint: silently discard every `n`th submission right after it is
  /// accounted as submitted — it never reaches the wire and the client
  /// never retries. Exists to prove the silent-drop invariant fires; 0
  /// (default) disables it.
  void FailpointSilentDropEvery(int n) { silent_drop_every_ = n; }

 private:
  struct PendingTx {
    proto::Proposal proposal;
    std::vector<sim::NodeId> targets;
    std::vector<proto::ProposalResponse> responses;
    std::size_t failures = 0;
    std::set<sim::NodeId> responded;         // this attempt
    std::set<sim::NodeId> failed_endorsers;  // across attempts
    int endorse_attempts = 1;
    sim::EventId endorse_timer = 0;
    sim::EventId broadcast_timer = 0;
    sim::EventId commit_timer = 0;
    int broadcast_attempts = 0;
    int timeout_retries_used = 0;
    int commit_retries_used = 0;
    std::shared_ptr<const proto::TransactionEnvelope> envelope;
    std::size_t envelope_bytes = 0;
    bool done = false;
    bool launched = false;    // passed the flow-control gate
    bool overloaded = false;  // saw a SERVICE_UNAVAILABLE on some attempt
  };

  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg);
  void MaybeLaunch(const std::string& tx_id);
  void LaunchTx(const std::string& tx_id);
  void PumpLaunchQueue();
  void ArmPumpTimer(sim::SimDuration delay);
  void RefillTokens();
  /// AIMD decrease + pause on a SERVICE_UNAVAILABLE from any tier.
  void OnOverloadSignal(sim::SimDuration retry_after);
  /// AIMD additive increase on a successful broadcast ack.
  void OnAckSuccess();
  [[nodiscard]] std::size_t WindowLimit() const;
  void SendProposals(const std::string& tx_id);
  void OnEndorseResponse(sim::NodeId from, const proto::ProposalResponse& resp,
                         sim::SimDuration retry_after);
  /// SDK-side endorsement check: the signature must verify over the payload
  /// under the public key of the certificate the response carries
  /// (trust-root validation of that certificate is VSCC's job at commit).
  [[nodiscard]] static bool EndorsementVerifies(
      const proto::ProposalResponse& resp);
  void FinishEndorsement(const std::string& tx_id);
  void BroadcastEnvelope(const std::string& tx_id);
  void OnBroadcastAck(const ordering::BroadcastAckMsg& ack);
  void OnCommitEvent(const peer::CommitEventMsg& ev);
  void Reject(const std::string& tx_id, bool shed = false);
  void Finish(const std::string& tx_id);
  void CountFailure(FailureReason reason) {
    ++failure_counts_[static_cast<std::size_t>(reason)];
  }
  void RotateOrderer();
  /// Exponentially backed-off delay before attempt `attempt + 1`, with
  /// deterministic jitter from the client's forked RNG stream.
  [[nodiscard]] sim::SimDuration Backoff(int attempt);
  /// Records the `client.retry` span and schedules `retry` after `delay`.
  void ScheduleRetry(const std::string& tx_id, sim::SimDuration delay,
                     std::function<void()> retry);
  void RetryEndorsement(const std::string& tx_id);
  [[nodiscard]] sim::SimDuration Jittered(sim::SimDuration base);

  sim::Environment& env_;
  sim::Machine& machine_;
  crypto::Identity identity_;
  const fabric::Calibration& cal_;
  ClientConfig config_;
  policy::EndorsementPolicy policy_;
  metrics::TxTracker* tracker_;
  sim::Rng rng_;
  sim::NodeId net_id_;

  std::vector<sim::NodeId> endorser_ids_;
  std::vector<crypto::Principal> endorser_principals_;
  std::vector<sim::NodeId> orderers_;
  std::size_t orderer_index_ = 0;

  std::unordered_map<std::string, PendingTx> pending_;
  std::uint64_t next_rotation_ = 0;
  std::uint64_t nonce_counter_ = 0;
  int silent_drop_every_ = 0;  // failpoint, see FailpointSilentDropEvery
  std::uint64_t silent_drop_counter_ = 0;

  std::uint64_t submitted_ = 0;
  std::uint64_t committed_valid_ = 0;
  std::uint64_t committed_invalid_ = 0;
  std::uint64_t rejected_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(FailureReason::kCount)>
      failure_counts_{};
  OutcomeLog outcomes_;

  // Flow-control state (idle unless config_.flow.enabled).
  double window_ = 0;             // AIMD max-inflight window
  double pace_rate_ = 0;          // current token-bucket rate (tx/s)
  double tokens_ = 0;             // token bucket fill
  sim::SimTime tokens_refilled_at_ = 0;
  sim::SimTime paused_until_ = 0;  // honoring a retry-after hint
  std::size_t inflight_ = 0;       // launched, not yet terminal
  std::deque<std::string> launch_queue_;  // built, waiting for the gate
  sim::EventId pump_timer_ = 0;
};

}  // namespace fabricsim::client
