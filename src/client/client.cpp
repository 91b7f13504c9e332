#include "client/client.h"

#include "obs/trace.h"
#include "proto/encode.h"

namespace fabricsim::client {
namespace {

constexpr sim::SimDuration kEndorseTimeout = sim::FromSeconds(10);
// Broadcast retry backoff: kRetryDelay doubles per attempt up to
// kBackoffMax, scaled by 1 +/- kBackoffJitter.
constexpr sim::SimDuration kRetryDelay = sim::FromMillis(200);
constexpr double kBackoffFactor = 2.0;
constexpr sim::SimDuration kBackoffMax = sim::FromSeconds(5);
constexpr double kBackoffJitter = 0.1;
// Flow-control AIMD: the window grows by kAdditiveIncrease per window's
// worth of acks and shrinks by kMultiplicativeDecrease on an overload nack,
// within [kMinWindow, kMaxWindow]; the pace rate moves the same way, floored
// at kPaceMinTps, with a kPaceBurst-token bucket.
constexpr double kMinWindow = 1.0;
constexpr double kMaxWindow = 512.0;
constexpr double kAdditiveIncrease = 1.0;
constexpr double kMultiplicativeDecrease = 0.5;
constexpr double kPaceMinTps = 1.0;
constexpr double kPaceBurst = 16.0;

}  // namespace

const char* FailureReasonName(FailureReason reason) {
  switch (reason) {
    case FailureReason::kPolicyUnsatisfiable:
      return "policy-unsatisfiable";
    case FailureReason::kEndorseTimeout:
      return "endorse-timeout";
    case FailureReason::kEndorseRefused:
      return "endorse-refused";
    case FailureReason::kRwsetMismatch:
      return "rwset-mismatch";
    case FailureReason::kBroadcastTimeout:
      return "broadcast-timeout";
    case FailureReason::kBroadcastNack:
      return "broadcast-nack";
    case FailureReason::kCommitTimeout:
      return "commit-timeout";
    case FailureReason::kBroadcastOverload:
      return "broadcast-overload";
    case FailureReason::kEndorseOverload:
      return "endorse-overload";
    case FailureReason::kClientShed:
      return "client-shed";
    case FailureReason::kBadEndorsement:
      return "bad-endorsement";
    case FailureReason::kCount:
      break;
  }
  return "unknown";
}

Client::Client(sim::Environment& env, sim::Machine& machine,
               crypto::Identity identity, const fabric::Calibration& cal,
               ClientConfig config, policy::EndorsementPolicy policy,
               metrics::TxTracker* tracker, int index)
    : env_(env),
      machine_(machine),
      identity_(std::move(identity)),
      cal_(cal),
      config_(std::move(config)),
      policy_(std::move(policy)),
      tracker_(tracker),
      rng_(env.ForkRng()),
      net_id_(env.Net().Register(
          "client" + std::to_string(index),
          [this](sim::NodeId from, sim::MessagePtr msg) {
            OnMessage(from, std::move(msg));
          })) {
  if (config_.track_outcomes) outcomes_.emplace();
  window_ = config_.flow.initial_window;
  pace_rate_ = config_.flow.pace_tps;
  tokens_ = kPaceBurst;
}

void Client::SetEndorsers(std::vector<sim::NodeId> ids,
                          std::vector<crypto::Principal> principals) {
  endorser_ids_ = std::move(ids);
  endorser_principals_ = std::move(principals);
}

void Client::SetOrderers(std::vector<sim::NodeId> osns,
                         std::size_t start_index) {
  orderers_ = std::move(osns);
  orderer_index_ = orderers_.empty() ? 0 : start_index % orderers_.size();
}

void Client::RotateOrderer() {
  if (orderers_.size() > 1) {
    orderer_index_ = (orderer_index_ + 1) % orderers_.size();
  }
}

void Client::SetEventSource(sim::NodeId peer) {
  env_.Net().Send(net_id_, peer, std::make_shared<peer::RegisterEventsMsg>());
}

sim::SimDuration Client::Jittered(sim::SimDuration base) {
  const double j =
      1.0 + cal_.client_sdk_jitter * (2.0 * rng_.NextDouble() - 1.0);
  return static_cast<sim::SimDuration>(static_cast<double>(base) * j);
}

sim::SimDuration Client::Backoff(int attempt) {
  double d = static_cast<double>(kRetryDelay);
  for (int i = 1; i < attempt; ++i) d *= kBackoffFactor;
  const auto cap = static_cast<double>(kBackoffMax);
  if (d > cap) d = cap;
  // Deterministic jitter: the client's forked RNG stream makes the delay
  // reproducible for a given seed while decorrelating clients.
  d *= 1.0 + kBackoffJitter * (2.0 * rng_.NextDouble() - 1.0);
  return static_cast<sim::SimDuration>(d);
}

void Client::ScheduleRetry(const std::string& tx_id, sim::SimDuration delay,
                           std::function<void()> retry) {
  if (auto* tr = env_.Trace()) {
    tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kQueue,
               "client.retry", tx_id, env_.Now(), env_.Now() + delay);
  }
  env_.Sched().ScheduleAfter(delay, std::move(retry), "client/broadcast_retry");
}

void Client::Submit(proto::ChaincodeInvocation inv,
                    std::function<void()> proposal_built) {
  ++submitted_;

  // Build the proposal synchronously so the tx id exists for tracking; the
  // CPU cost of building + signing is charged before anything hits the wire.
  proto::Proposal p;
  p.channel_id = config_.channel_id;
  proto::Writer nonce(3 * sizeof(std::uint64_t));
  nonce.U64(static_cast<std::uint64_t>(net_id_));
  nonce.U64(nonce_counter_++);
  nonce.U64(rng_.Next());
  p.nonce = nonce.Take();
  p.creator_cert = identity_.SerializedCert();
  p.invocation = std::move(inv);
  p.client_timestamp = env_.Now();
  p.tx_id = proto::Proposal::ComputeTxId(p.nonce, p.creator_cert);

  if (tracker_ != nullptr) tracker_->MarkSubmitted(p.tx_id, env_.Now());
  if (outcomes_) outcomes_->submitted.insert(p.tx_id);

  // Failpoint: the tx counts as submitted but vanishes before the wire —
  // no pending entry, no retry, no terminal status (a true silent drop).
  if (config_.silent_drop_every > 0 &&
      ++silent_drop_counter_ % static_cast<std::uint64_t>(
                                   config_.silent_drop_every) == 0) {
    return;
  }

  std::string tx_id = p.tx_id;
  auto signed_proposal = std::make_shared<proto::SignedProposal>();
  signed_proposal->proposal = std::move(p);
  signed_proposal->client_signature =
      identity_.SignDigest(signed_proposal->proposal.SerializedDigest());
  PendingTx pending;
  pending.proposal = std::move(signed_proposal);
  pending_.emplace(tx_id, std::move(pending));

  const sim::SimTime enqueued = env_.Now();
  machine_.GetCpu().Submit(
      cal_.client_proposal_cpu,
      [this, tx_id, enqueued, proposal_built = std::move(proposal_built)] {
        if (auto* tr = env_.Trace()) {
          tr->RecordResourceSpan(
              tr->PidFor(machine_.Name()), "client.proposal", tx_id, enqueued,
              env_.Now(),
              machine_.GetCpu().ScaledCost(cal_.client_proposal_cpu));
        }
        // Event-loop / MSP latency before the proposals reach the wire.
        const sim::SimDuration pre = Jittered(cal_.client_sdk_pre_latency);
        if (auto* tr = env_.Trace()) {
          tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kService,
                     "client.sdk_pre", tx_id, env_.Now(), env_.Now() + pre);
        }
        env_.Sched().ScheduleAfter(pre, [this, tx_id] { MaybeLaunch(tx_id); },
                                   "client/sdk_pre");
        if (proposal_built) proposal_built();
      });
}

// --- flow control -----------------------------------------------------------

void Client::MaybeLaunch(const std::string& tx_id) {
  if (!config_.flow.enabled) {
    SendProposals(tx_id);
    return;
  }
  if (launch_queue_.size() >= config_.flow.max_queue) {
    // Local shed: the launch queue is full. Fail fast with a clean terminal
    // status — the invariant checker treats silence as a violation.
    CountFailure(FailureReason::kClientShed);
    Reject(tx_id, /*shed=*/true);
    return;
  }
  launch_queue_.push_back(tx_id);
  PumpLaunchQueue();
}

void Client::LaunchTx(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end() || it->second.done) return;
  it->second.launched = true;
  ++inflight_;
  SendProposals(tx_id);
}

std::size_t Client::WindowLimit() const {
  return static_cast<std::size_t>(window_ < 1.0 ? 1.0 : window_);
}

void Client::RefillTokens() {
  if (config_.flow.pace_tps <= 0) return;
  const sim::SimTime now = env_.Now();
  const double dt = static_cast<double>(now - tokens_refilled_at_) * 1e-9;
  tokens_refilled_at_ = now;
  tokens_ += dt * pace_rate_;
  if (tokens_ > kPaceBurst) tokens_ = kPaceBurst;
}

void Client::ArmPumpTimer(sim::SimDuration delay) {
  if (pump_timer_ != 0) return;  // already armed
  if (delay < sim::FromMillis(1)) delay = sim::FromMillis(1);
  pump_timer_ = env_.Sched().ScheduleAfter(
      delay,
      [this] {
        pump_timer_ = 0;
        PumpLaunchQueue();
      },
      "client/flow_pump");
}

void Client::PumpLaunchQueue() {
  if (!config_.flow.enabled) return;
  RefillTokens();
  while (!launch_queue_.empty()) {
    if (inflight_ >= WindowLimit()) return;  // a Finish re-pumps
    const sim::SimTime now = env_.Now();
    if (now < paused_until_) {
      ArmPumpTimer(paused_until_ - now);
      return;
    }
    if (config_.flow.pace_tps > 0 && tokens_ < 1.0) {
      const double rate = pace_rate_ > 0 ? pace_rate_ : kPaceMinTps;
      ArmPumpTimer(
          static_cast<sim::SimDuration>((1.0 - tokens_) / rate * 1e9) + 1);
      return;
    }
    const std::string tx_id = launch_queue_.front();
    launch_queue_.pop_front();
    if (config_.flow.pace_tps > 0) tokens_ -= 1.0;
    LaunchTx(tx_id);
  }
}

void Client::OnOverloadSignal(sim::SimDuration retry_after) {
  if (!config_.flow.enabled) return;
  window_ *= kMultiplicativeDecrease;
  if (window_ < kMinWindow) window_ = kMinWindow;
  if (config_.flow.pace_tps > 0) {
    pace_rate_ *= kMultiplicativeDecrease;
    if (pace_rate_ < kPaceMinTps) pace_rate_ = kPaceMinTps;
  }
  if (retry_after > 0) {
    const sim::SimTime until = env_.Now() + retry_after;
    if (until > paused_until_) paused_until_ = until;
  }
}

void Client::OnAckSuccess() {
  if (!config_.flow.enabled) return;
  window_ += kAdditiveIncrease / (window_ < 1.0 ? 1.0 : window_);
  if (window_ > kMaxWindow) window_ = kMaxWindow;
  const double pace_tps = config_.flow.pace_tps;
  if (pace_tps > 0) {
    pace_rate_ += kAdditiveIncrease;
    if (pace_rate_ > pace_tps) pace_rate_ = pace_tps;
  }
  PumpLaunchQueue();
}

// ----------------------------------------------------------------------------

void Client::SendProposals(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end()) return;
  PendingTx& tx = it->second;

  // Candidate endorsers: on retry, prefer survivors — endorsers that
  // refused or stayed silent on a previous attempt are excluded — falling
  // back to the full set when the survivors can't satisfy the policy.
  const std::vector<sim::NodeId>* cand_ids = &endorser_ids_;
  const std::vector<crypto::Principal>* cand_principals = &endorser_principals_;
  std::vector<sim::NodeId> survivor_ids;
  std::vector<crypto::Principal> survivor_principals;
  if (!tx.failed_endorsers.empty()) {
    for (std::size_t i = 0; i < endorser_ids_.size(); ++i) {
      if (tx.failed_endorsers.count(endorser_ids_[i]) == 0) {
        survivor_ids.push_back(endorser_ids_[i]);
        survivor_principals.push_back(endorser_principals_[i]);
      }
    }
    if (!survivor_ids.empty() &&
        policy::PlanEndorsers(policy_, survivor_principals, 0)) {
      cand_ids = &survivor_ids;
      cand_principals = &survivor_principals;
    }
  }

  auto plan =
      policy::PlanEndorsers(policy_, *cand_principals, next_rotation_++);
  if (!plan) {
    CountFailure(FailureReason::kPolicyUnsatisfiable);
    Reject(tx_id);
    return;
  }
  tx.targets.reserve(plan->size());
  for (std::size_t idx : *plan) tx.targets.push_back((*cand_ids)[idx]);
  tx.responses.reserve(tx.targets.size());

  // Every attempt sends the one signed proposal built at submission.
  const std::size_t wire = tx.proposal->WireSize();
  for (sim::NodeId target : tx.targets) {
    env_.Net().Send(net_id_, target,
                    std::make_shared<peer::EndorseRequestMsg>(tx.proposal, wire,
                                                              env_.Now()));
  }
  // Timers and CPU jobs copy the id into a movable std::string (a capture
  // of the const reference would be a const member), so the closure fits
  // the scheduler's inline storage.
  tx.endorse_timer = env_.Sched().ScheduleAfter(
      kEndorseTimeout, [this, tx_id = std::string(tx_id)] {
        auto pit = pending_.find(tx_id);
        if (pit == pending_.end() || pit->second.done) return;
        PendingTx& tx2 = pit->second;
        tx2.endorse_timer = 0;
        if (tx2.responses.size() + tx2.failures < tx2.targets.size()) {
          CountFailure(FailureReason::kEndorseTimeout);
          for (sim::NodeId t : tx2.targets) {
            if (tx2.responded.count(t) == 0) tx2.failed_endorsers.insert(t);
          }
          if (tx2.endorse_attempts <= config_.endorse_retries) {
            RetryEndorsement(tx_id);
          } else {
            Reject(tx_id, tx2.overloaded);
          }
        }
      },
      "client/endorse_timeout");
}

void Client::RetryEndorsement(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end() || it->second.done) return;
  PendingTx& tx = it->second;
  if (tx.endorse_timer != 0) {
    env_.Sched().Cancel(tx.endorse_timer);
    tx.endorse_timer = 0;
  }
  ++tx.endorse_attempts;
  tx.targets.clear();
  tx.responses.clear();
  tx.failures = 0;
  tx.responded.clear();
  ScheduleRetry(tx_id, Backoff(tx.endorse_attempts - 1),
                [this, tx_id] { SendProposals(tx_id); });
}

void Client::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (auto resp = std::dynamic_pointer_cast<const peer::EndorseResponseMsg>(
          msg)) {
    if (auto* tr = env_.Trace()) {
      tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kWire,
                 "rpc.endorse_resp", resp->Response().tx_id, resp->SentAt(),
                 env_.Now());
    }
    // Response handling costs event-loop CPU whether or not it succeeds.
    const sim::SimTime enqueued = env_.Now();
    machine_.GetCpu().Submit(
        cal_.client_per_response_cpu,
        [this, from, enqueued, resp] {
          const proto::ProposalResponse& response = resp->Response();
          if (auto* tr = env_.Trace()) {
            tr->RecordResourceSpan(
                tr->PidFor(machine_.Name()), "client.response", response.tx_id,
                enqueued, env_.Now(),
                machine_.GetCpu().ScaledCost(cal_.client_per_response_cpu));
          }
          OnEndorseResponse(from, resp->SharedResponse(), resp->RetryAfter());
        });
    return;
  }
  if (auto ack =
          std::dynamic_pointer_cast<const ordering::BroadcastAckMsg>(msg)) {
    OnBroadcastAck(*ack);
    return;
  }
  if (auto ev = std::dynamic_pointer_cast<const peer::CommitEventMsg>(msg)) {
    OnCommitEvent(*ev);
    return;
  }
}

void Client::OnEndorseResponse(
    sim::NodeId from,
    const std::shared_ptr<const proto::ProposalResponse>& response,
    sim::SimDuration retry_after) {
  const proto::ProposalResponse& resp = *response;
  auto it = pending_.find(resp.tx_id);
  if (it == pending_.end() || it->second.done) return;
  PendingTx& tx = it->second;

  // Drop duplicates (e.g. a straggler response from a superseded attempt
  // arriving after the same endorser answered the current one).
  if (!tx.responded.insert(from).second) return;

  if (resp.payload.status != proto::EndorseStatus::kSuccess) {
    ++tx.failures;
    tx.failed_endorsers.insert(from);
    if (resp.payload.status == proto::EndorseStatus::kServiceUnavailable) {
      // The endorser shed this proposal: back the whole pipeline off, not
      // just this transaction.
      CountFailure(FailureReason::kEndorseOverload);
      tx.overloaded = true;
      OnOverloadSignal(retry_after);
    }
  } else if (!EndorsementVerifies(resp)) {
    // The SDK checks each endorsement signature before assembling the
    // envelope; a forged/corrupted one is treated as a failed endorser and
    // retried against the survivors instead of being broadcast (where VSCC
    // would invalidate the whole transaction anyway). Host-side check on
    // memoized bytes: honest runs verify every time and stay byte-identical.
    ++tx.failures;
    tx.failed_endorsers.insert(from);
    CountFailure(FailureReason::kBadEndorsement);
  } else {
    tx.responses.push_back(response);
  }

  if (tx.responses.size() + tx.failures < tx.targets.size()) return;
  if (tx.failures > 0) {
    CountFailure(FailureReason::kEndorseRefused);
    if (tx.endorse_attempts <= config_.endorse_retries) {
      RetryEndorsement(resp.tx_id);
    } else {
      Reject(resp.tx_id, tx.overloaded);
    }
    return;
  }
  FinishEndorsement(resp.tx_id);
}

bool Client::EndorsementVerifies(const proto::ProposalResponse& resp) {
  const auto cert =
      crypto::Certificate::Deserialize(resp.endorsement.endorser_cert);
  if (!cert) return false;
  return crypto::VerifyDigest(cert->subject_public_key,
                              proto::EncodedDigest(resp.payload),
                              resp.endorsement.signature);
}

void Client::FinishEndorsement(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end()) return;
  PendingTx& tx = it->second;

  if (tx.endorse_timer != 0) {
    env_.Sched().Cancel(tx.endorse_timer);
    tx.endorse_timer = 0;
  }

  // All endorsers must have produced identical rwsets/results (the SDK
  // compares them; mismatches are non-deterministic chaincode).
  for (std::size_t i = 1; i < tx.responses.size(); ++i) {
    if (!(tx.responses[i]->payload.rwset == tx.responses[0]->payload.rwset)) {
      CountFailure(FailureReason::kRwsetMismatch);
      Reject(tx_id);
      return;
    }
  }

  const sim::SimTime enqueued = env_.Now();
  machine_.GetCpu().Submit(cal_.client_envelope_cpu, [this,
                                                      tx_id = std::string(tx_id),
                                                      enqueued] {
    if (auto* tr = env_.Trace()) {
      tr->RecordResourceSpan(
          tr->PidFor(machine_.Name()), "client.envelope", tx_id, enqueued,
          env_.Now(), machine_.GetCpu().ScaledCost(cal_.client_envelope_cpu));
    }
    const sim::SimDuration post = Jittered(cal_.client_sdk_post_latency);
    if (auto* tr = env_.Trace()) {
      tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kService,
                 "client.sdk_post", tx_id, env_.Now(), env_.Now() + post);
    }
    env_.Sched().ScheduleAfter(post, [this, tx_id] { BroadcastEnvelope(tx_id); },
                               "client/sdk_post");
  });
}

void Client::BroadcastEnvelope(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end() || it->second.done) return;
  PendingTx& tx = it->second;

  if (tx.envelope == nullptr) {
    auto env = std::make_shared<proto::TransactionEnvelope>();
    env->channel_id = tx.proposal->proposal.channel_id;
    env->tx_id = tx_id;
    env->creator_cert = tx.proposal->proposal.creator_cert;
    env->rwset = tx.responses.front()->payload.rwset;
    env->chaincode_result = tx.responses.front()->payload.chaincode_result;
    env->chaincode_id = tx.proposal->proposal.invocation.chaincode_id;
    for (const auto& r : tx.responses) {
      env->endorsements.push_back(r->endorsement);
    }
    env->client_timestamp = env_.Now();
    env->Sign(identity_);
    tx.envelope = env;
    tx.envelope_bytes = env->WireSize();
    if (tracker_ != nullptr) tracker_->MarkEndorsed(tx_id, env_.Now());
  }

  ++tx.broadcast_attempts;
  env_.Net().Send(net_id_, CurrentOrderer(),
                  std::make_shared<ordering::BroadcastEnvelopeMsg>(
                      tx.envelope, tx.envelope_bytes, env_.Now()));
  tx.broadcast_timer = env_.Sched().ScheduleAfter(
      cal_.broadcast_timeout, [this, tx_id = std::string(tx_id)] {
        auto pit = pending_.find(tx_id);
        if (pit == pending_.end() || pit->second.done) return;
        PendingTx& tx2 = pit->second;
        tx2.broadcast_timer = 0;
        CountFailure(FailureReason::kBroadcastTimeout);
        if (tx2.timeout_retries_used < config_.broadcast_timeout_retries) {
          // The orderer is silent (crashed or partitioned): fail over to
          // the next endpoint with exponential backoff.
          ++tx2.timeout_retries_used;
          RotateOrderer();
          ScheduleRetry(tx_id, Backoff(tx2.broadcast_attempts),
                        [this, tx_id] { BroadcastEnvelope(tx_id); });
        } else {
          // The paper's 3 s ordering-response rejection. Under the block
          // overflow policy an overloaded OSN drops silently, so shedding
          // surfaces here as a timeout.
          Reject(tx_id, tx2.overloaded);
        }
      },
      "client/broadcast_timeout");
}

void Client::OnBroadcastAck(const ordering::BroadcastAckMsg& ack) {
  auto it = pending_.find(ack.TxId());
  if (it == pending_.end() || it->second.done) return;
  PendingTx& tx = it->second;
  if (tx.broadcast_timer != 0) {
    env_.Sched().Cancel(tx.broadcast_timer);
    tx.broadcast_timer = 0;
  }
  if (ack.Ok()) {
    // Now awaiting the commit event. With a commit timeout configured, the
    // envelope is resubmitted if the event never arrives (an acked tx can
    // still be lost when the accepting OSN dies before ordering it); the
    // committer's tx-id dedup makes resubmission safe.
    if (outcomes_) outcomes_->acked.insert(ack.TxId());
    OnAckSuccess();
    if (config_.commit_timeout > 0) {
      if (tx.commit_timer != 0) env_.Sched().Cancel(tx.commit_timer);
      tx.commit_timer = env_.Sched().ScheduleAfter(
          config_.commit_timeout, [this, tx_id = ack.TxId()] {
            auto pit = pending_.find(tx_id);
            if (pit == pending_.end() || pit->second.done) return;
            PendingTx& tx2 = pit->second;
            tx2.commit_timer = 0;
            CountFailure(FailureReason::kCommitTimeout);
            if (tx2.commit_retries_used < config_.commit_retries) {
              ++tx2.commit_retries_used;
              RotateOrderer();
              ScheduleRetry(tx_id, Backoff(tx2.broadcast_attempts),
                            [this, tx_id] { BroadcastEnvelope(tx_id); });
            } else {
              Reject(tx_id);
            }
          },
          "client/commit_timeout");
    }
    return;
  }

  const bool overloaded =
      ack.Status() == ordering::BroadcastStatus::kOverloaded;
  if (overloaded) {
    // SERVICE_UNAVAILABLE: the OSN shed the envelope at its bounded ingress.
    CountFailure(FailureReason::kBroadcastOverload);
    tx.overloaded = true;
    OnOverloadSignal(ack.RetryAfter());
  } else {
    CountFailure(FailureReason::kBroadcastNack);
  }
  if (tx.broadcast_attempts <= config_.broadcast_retries) {
    RotateOrderer();
    sim::SimDuration delay = Backoff(tx.broadcast_attempts);
    if (overloaded && ack.RetryAfter() > delay) delay = ack.RetryAfter();
    ScheduleRetry(ack.TxId(), delay,
                  [this, tx_id = ack.TxId()] { BroadcastEnvelope(tx_id); });
  } else {
    Reject(ack.TxId(), tx.overloaded);
  }
}

void Client::OnCommitEvent(const peer::CommitEventMsg& ev) {
  for (std::size_t i = 0; i < ev.codes->size(); ++i) {
    const std::string& tx_id = ev.block->transactions[i].tx_id;
    const proto::ValidationCode code = (*ev.codes)[i];
    // Outcome bookkeeping sees every commit event for our transactions,
    // including duplicates committed after this client already finished
    // the tx — exactly what the exactly-once invariant needs to audit.
    if (outcomes_ && outcomes_->submitted.count(tx_id) != 0) {
      ++outcomes_->commits[tx_id];
      if (code == proto::ValidationCode::kValid) {
        ++outcomes_->valid_commits[tx_id];
      }
    }
    auto it = pending_.find(tx_id);
    if (it == pending_.end() || it->second.done) continue;
    if (code == proto::ValidationCode::kValid) {
      ++committed_valid_;
    } else {
      ++committed_invalid_;
    }
    Finish(tx_id);
  }
}

void Client::Reject(const std::string& tx_id, bool shed) {
  ++rejected_;
  if (tracker_ != nullptr) {
    tracker_->MarkRejected(tx_id, env_.Now(),
                           shed ? metrics::RejectKind::kShed
                                : metrics::RejectKind::kFailed);
  }
  if (outcomes_) outcomes_->rejected.insert(tx_id);
  Finish(tx_id);
}

void Client::Finish(const std::string& tx_id) {
  auto it = pending_.find(tx_id);
  if (it == pending_.end()) return;
  PendingTx& tx = it->second;
  if (tx.endorse_timer != 0) env_.Sched().Cancel(tx.endorse_timer);
  if (tx.broadcast_timer != 0) env_.Sched().Cancel(tx.broadcast_timer);
  if (tx.commit_timer != 0) env_.Sched().Cancel(tx.commit_timer);
  const bool was_launched = tx.launched;
  tx.done = true;
  pending_.erase(it);
  if (was_launched && inflight_ > 0) --inflight_;
  if (config_.flow.enabled) PumpLaunchQueue();
}

}  // namespace fabricsim::client
