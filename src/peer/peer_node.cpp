#include "peer/peer_node.h"

#include <algorithm>

#include "obs/trace.h"
#include "ordering/messages.h"

namespace fabricsim::peer {
namespace {

// Deliver watchdog: ping the current OSN every kDeliverPingPeriod; after
// kDeliverMissThreshold consecutive unanswered pings, rotate to the next.
constexpr sim::SimDuration kDeliverPingPeriod = sim::FromMillis(500);
constexpr int kDeliverMissThreshold = 4;

}  // namespace

PeerNode::ChannelLedger::ChannelLedger(PeerNode& peer,
                                       const std::string& channel_id,
                                       std::shared_ptr<ChannelState> channel) {
  committer = std::make_unique<Committer>(
      peer.env_, peer.machine_, peer.disk_, peer.msps_, peer.cal_,
      peer.tracker_, std::move(channel), peer.committer_config_);
  endorser = std::make_unique<Endorser>(
      peer.identity_, peer.msps_, *peer.chaincodes_,
      [&c = *committer] { return c.State(); }, committer->Chain().Store(),
      channel_id);
}

PeerNode::PeerNode(sim::Environment& env, sim::Machine& machine,
                   crypto::Identity identity, const crypto::MspRegistry& msps,
                   std::shared_ptr<const chaincode::Registry> chaincodes,
                   const fabric::Calibration& cal, std::string channel_id,
                   std::shared_ptr<ChannelState> channel,
                   CommitterConfig committer_config,
                   metrics::TxTracker* tracker, bool endorsing, int index)
    : env_(env),
      machine_(machine),
      identity_(std::move(identity)),
      msps_(msps),
      chaincodes_(std::move(chaincodes)),
      cal_(cal),
      default_channel_(std::move(channel_id)),
      tracker_(tracker),
      endorsing_(endorsing),
      committer_config_(std::move(committer_config)),
      net_id_(env.Net().Register(
          (endorsing ? "peer.endorse" : "peer.commit") + std::to_string(index),
          [this](sim::NodeId from, sim::MessagePtr msg) {
            OnMessage(from, std::move(msg));
          })),
      disk_(env.Sched(), 1, machine.Profile().speed_factor),
      gossip_rng_(env.ForkRng()) {
  JoinChannel(default_channel_, std::move(channel));
}

void PeerNode::JoinChannel(const std::string& channel_id,
                           std::shared_ptr<ChannelState> channel) {
  if (channels_.count(channel_id) != 0) return;
  auto ledger =
      std::make_unique<ChannelLedger>(*this, channel_id, std::move(channel));
  ledger->endorser->SetForgeSignatures(forge_endorsements_);
  channels_.emplace(channel_id, std::move(ledger));
}

void PeerNode::OnCrash() {
  for (auto& [id, ledger] : channels_) ledger->committer->DetachState();
}

void PeerNode::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (auto req = std::dynamic_pointer_cast<const EndorseRequestMsg>(msg)) {
    if (endorsing_) HandleEndorseRequest(from, req);
    return;
  }
  if (auto blk = std::dynamic_pointer_cast<const ordering::DeliverBlockMsg>(
          msg)) {
    HandleDeliverBlock(from, blk);
    return;
  }
  if (auto pull = std::dynamic_pointer_cast<const GossipPullMsg>(msg)) {
    HandleGossipPull(from, *pull);
    return;
  }
  if (std::dynamic_pointer_cast<const RegisterEventsMsg>(msg)) {
    event_subscribers_.push_back(from);
    return;
  }
  if (auto pong = std::dynamic_pointer_cast<const ordering::DeliverPongMsg>(
          msg)) {
    auto it = deliver_watch_.find(pong->ChannelId());
    if (it != deliver_watch_.end() &&
        from == it->second.osns[it->second.index]) {
      it->second.awaiting_pong = false;
      it->second.missed = 0;
    }
    return;
  }
  if (auto att =
          std::dynamic_pointer_cast<const ordering::BlockAttestReplyMsg>(
              msg)) {
    OnAttestReply(from, *att);
    return;
  }
}

void PeerNode::EnableDeliverFailover(const std::string& channel_id,
                                     std::vector<sim::NodeId> osns,
                                     std::size_t current_index) {
  if (osns.empty() || channels_.count(channel_id) == 0) return;
  DeliverWatch w;
  w.osns = std::move(osns);
  w.index = current_index % w.osns.size();
  deliver_watch_[channel_id] = std::move(w);
  env_.Sched().ScheduleAfter(kDeliverPingPeriod,
                             [this, channel_id] { DeliverWatchTick(channel_id); },
                             "peer/deliver_watch");
}

void PeerNode::DeliverWatchTick(const std::string& channel_id) {
  auto it = deliver_watch_.find(channel_id);
  if (it == deliver_watch_.end()) return;
  DeliverWatch& w = it->second;
  if (w.awaiting_pong) {
    ++w.missed;
    if (w.missed >= kDeliverMissThreshold) {
      // The OSN looks dead: rotate and re-subscribe from the current chain
      // height. The committer drops duplicate blocks, so a backfill overlap
      // with blocks still in the validation pipeline is harmless.
      w.index = (w.index + 1) % w.osns.size();
      w.missed = 0;
      const std::uint64_t height =
          channels_.at(channel_id)->committer->Chain().Height();
      env_.Net().Send(net_id_, w.osns[w.index],
                      std::make_shared<ordering::SubscribeRequestMsg>(
                          channel_id, height));
    }
  }
  // Gap repair: message loss can drop a single block while the stream stays
  // alive (pings keep flowing), leaving SerialCommit waiting forever on a
  // block nobody will resend. If the same gap survives a full ping period,
  // re-subscribe at the current chain height — the OSN backfills the hole
  // and the committer drops the duplicates that follow.
  const Committer& committer = *channels_.at(channel_id)->committer;
  if (committer.AwaitingGapBlock()) {
    const std::uint64_t stuck_on = committer.NextCommit();
    if (w.gap_next == stuck_on) {
      env_.Net().Send(net_id_, w.osns[w.index],
                      std::make_shared<ordering::SubscribeRequestMsg>(
                          channel_id, committer.Chain().Height()));
      w.gap_next = 0;  // restart detection; repair needs a round trip
    } else {
      w.gap_next = stuck_on;
    }
  } else {
    w.gap_next = 0;
  }

  w.awaiting_pong = true;
  env_.Net().Send(net_id_, w.osns[w.index],
                  std::make_shared<ordering::DeliverPingMsg>(channel_id));
  env_.Sched().ScheduleAfter(kDeliverPingPeriod,
                             [this, channel_id] { DeliverWatchTick(channel_id); },
                             "peer/deliver_watch");
}

void PeerNode::HandleDeliverBlock(
    sim::NodeId from,
    const std::shared_ptr<const ordering::DeliverBlockMsg>& msg) {
  auto it = channels_.find(msg->ChannelId());
  if (it == channels_.end()) return;  // not joined to this channel
  const std::string channel_id = msg->ChannelId();

  // Windowed backfill: tell the OSN this block arrived so it can slide the
  // per-subscriber window forward.
  if (msg->AckRequested()) {
    env_.Net().Send(net_id_, from,
                    std::make_shared<ordering::DeliverAckMsg>(
                        channel_id, msg->GetBlock()->header.number));
  }

  // Wire spans for the validate phase: one per transaction, first delivery
  // of each block only (gossip re-deliveries carry the original send stamp).
  if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
    auto& seen = traced_deliveries_[channel_id];
    if (seen.insert(msg->GetBlock()->header.number).second) {
      const int pid = tr->PidFor(machine_.Name());
      for (const auto& tx : msg->GetBlock()->transactions) {
        tr->Record(pid, obs::SpanKind::kWire, "deliver.wire", tx.tx_id,
                   msg->SentAt(), env_.Now());
      }
    }
  }

  // Cross-OSN attestation: hold a first-seen block from the watched deliver
  // stream until a second OSN vouches for its header hash. Only deliveries
  // from the watchdog's OSN set are attested — gossip re-deliveries carry a
  // block some peer already accepted, and the committer's structural checks
  // plus the fork invariant re-screen those.
  if (byz_defense_.count(channel_id) != 0) {
    auto wit = deliver_watch_.find(channel_id);
    if (wit != deliver_watch_.end() && wit->second.osns.size() >= 2 &&
        std::find(wit->second.osns.begin(), wit->second.osns.end(), from) !=
            wit->second.osns.end()) {
      const std::uint64_t number = msg->GetBlock()->header.number;
      if (number >= it->second->committer->NextCommit()) {
        if (attest_pending_.count({channel_id, number}) != 0) {
          return;  // a copy of this block is already held for attestation
        }
        StartAttestation(channel_id, from, msg);
        return;
      }
    }
  }

  ReleaseDeliveredBlock(channel_id, msg);
}

void PeerNode::ReleaseDeliveredBlock(
    const std::string& channel_id,
    const std::shared_ptr<const ordering::DeliverBlockMsg>& msg) {
  auto it = channels_.find(channel_id);
  if (it == channels_.end()) return;

  // Gossip push: forward each block onward exactly once, whether it came
  // from the orderer or from another peer (the message object — and hence
  // the block — is shared, so forwarding costs only wire time).
  if (!gossip_targets_.empty()) {
    auto& seen = gossip_seen_[channel_id];
    if (seen.insert(msg->GetBlock()->header.number).second) {
      for (sim::NodeId target : gossip_targets_) {
        env_.Net().Send(net_id_, target, msg);
        ++gossip_forwarded_;
      }
    }
  }

  it->second->committer->OnBlock(
      msg->GetBlock(), [this, channel_id](const CommittedBlock& cb) {
        OnBlockCommitted(channel_id, cb);
      });
}

void PeerNode::EnableByzantineDefense(const std::string& channel_id) {
  auto wit = deliver_watch_.find(channel_id);
  if (wit == deliver_watch_.end() || wit->second.osns.size() < 2) return;
  byz_defense_.insert(channel_id);
}

void PeerNode::SetForgeEndorsements(bool on) {
  forge_endorsements_ = on;
  for (auto& [id, ledger] : channels_) {
    ledger->endorser->SetForgeSignatures(on);
  }
}

void PeerNode::StartAttestation(
    const std::string& channel_id, sim::NodeId deliverer,
    const std::shared_ptr<const ordering::DeliverBlockMsg>& msg) {
  const std::uint64_t number = msg->GetBlock()->header.number;
  PendingAttest pa;
  pa.msg = msg;
  pa.deliverer = deliverer;
  attest_pending_[{channel_id, number}] = std::move(pa);
  SendAttestRequest(channel_id, number);
}

void PeerNode::SendAttestRequest(const std::string& channel_id,
                                 std::uint64_t number) {
  auto pit = attest_pending_.find({channel_id, number});
  if (pit == attest_pending_.end()) return;
  PendingAttest& pa = pit->second;
  const DeliverWatch& w = deliver_watch_.at(channel_id);
  // Ask every OSN except the deliverer, round-robin across attempts.
  std::vector<sim::NodeId> others;
  for (sim::NodeId id : w.osns) {
    if (id != pa.deliverer) others.push_back(id);
  }
  if (others.empty()) {
    auto msg = pa.msg;
    attest_pending_.erase(pit);
    ReleaseDeliveredBlock(channel_id, msg);
    return;
  }
  pa.attester = others[static_cast<std::size_t>(pa.attempts) % others.size()];
  pa.version = ++attest_version_;
  env_.Net().Send(net_id_, pa.attester,
                  std::make_shared<ordering::BlockAttestRequestMsg>(
                      channel_id, number));
  env_.Sched().ScheduleAfter(
      attest_timeout_,
      [this, channel_id, number, version = pa.version] {
        OnAttestTimeout(channel_id, number, version);
      },
      "peer/attest_timeout");
}

void PeerNode::OnAttestReply(sim::NodeId from,
                             const ordering::BlockAttestReplyMsg& m) {
  auto pit = attest_pending_.find({m.ChannelId(), m.BlockNumber()});
  if (pit == attest_pending_.end() || from != pit->second.attester) return;
  PendingAttest& pa = pit->second;
  if (!m.Known()) {
    // The attester is lagging: in Raft a follower applies the entry a beat
    // after the leader delivers, so "unknown" usually means "not yet", not
    // "never". Re-ask after a full timeout period — an immediate retry
    // burns the whole attempt budget in microseconds and fails open right
    // past the defense while every honest attester is still catching up.
    pa.version = ++attest_version_;  // cancel the in-flight timeout
    env_.Sched().ScheduleAfter(
        attest_timeout_,
        [this, channel_id = m.ChannelId(), number = m.BlockNumber(),
         version = pa.version] {
          auto it2 = attest_pending_.find({channel_id, number});
          if (it2 == attest_pending_.end() || it2->second.version != version) {
            return;
          }
          RetryAttestation(channel_id, number);
        },
        "peer/attest_lag_retry");
    return;
  }
  if (m.HeaderHash() == pa.msg->GetBlock()->header.Hash()) {
    auto msg = pa.msg;
    const std::string channel_id = m.ChannelId();
    attest_pending_.erase(pit);
    ReleaseDeliveredBlock(channel_id, msg);
    return;
  }
  // Divergence: deliverer and attester cannot both be honest. Trust the
  // attester — it answers from its canonical history, which even an OSN
  // currently attacking the wire keeps honest — drop the held block and
  // quarantine the deliverer. The re-subscribe backfills the true block.
  ++byz_quarantines_;
  const sim::NodeId deliverer = pa.deliverer;
  const std::string channel_id = m.ChannelId();
  attest_pending_.erase(pit);
  QuarantineDeliverer(channel_id, deliverer);
}

void PeerNode::OnAttestTimeout(const std::string& channel_id,
                               std::uint64_t number, std::uint64_t version) {
  auto pit = attest_pending_.find({channel_id, number});
  if (pit == attest_pending_.end() || pit->second.version != version) return;
  RetryAttestation(channel_id, number);
}

void PeerNode::RetryAttestation(const std::string& channel_id,
                                std::uint64_t number) {
  auto pit = attest_pending_.find({channel_id, number});
  if (pit == attest_pending_.end()) return;
  PendingAttest& pa = pit->second;
  ++pa.attempts;
  const DeliverWatch& w = deliver_watch_.at(channel_id);
  if (pa.attempts >= static_cast<int>(2 * w.osns.size())) {
    // Fail open: nobody reachable can vouch (e.g. every other OSN crashed).
    // The committer's orderer-signature, data-hash and linkage checks still
    // stand between this block and the ledger.
    auto msg = pa.msg;
    attest_pending_.erase(pit);
    ReleaseDeliveredBlock(channel_id, msg);
    return;
  }
  SendAttestRequest(channel_id, number);
}

void PeerNode::QuarantineDeliverer(const std::string& channel_id,
                                   sim::NodeId deliverer) {
  auto wit = deliver_watch_.find(channel_id);
  if (wit == deliver_watch_.end()) return;
  DeliverWatch& w = wit->second;
  if (w.osns[w.index] == deliverer) {
    // Rotate to the next OSN that is not the quarantined one — the same
    // recovery machinery a crashed OSN triggers.
    for (std::size_t step = 1; step <= w.osns.size(); ++step) {
      const std::size_t cand = (w.index + step) % w.osns.size();
      if (w.osns[cand] != deliverer) {
        w.index = cand;
        break;
      }
    }
    w.missed = 0;
  }
  env_.Net().Send(net_id_, w.osns[w.index],
                  std::make_shared<ordering::SubscribeRequestMsg>(
                      channel_id,
                      channels_.at(channel_id)->committer->Chain().Height()));
}

void PeerNode::HandleGossipPull(sim::NodeId from, const GossipPullMsg& m) {
  auto it = channels_.find(m.channel_id);
  if (it == channels_.end()) return;
  const auto& store = it->second->committer->Chain().Store();
  constexpr std::uint64_t kMaxBlocksPerPull = 8;
  const std::uint64_t end =
      std::min<std::uint64_t>(store.Height(), m.from_number + kMaxBlocksPerPull);
  for (std::uint64_t n = m.from_number; n < end; ++n) {
    const proto::BlockPtr block = store.GetBlock(n);
    env_.Net().Send(net_id_, from,
                    std::make_shared<ordering::DeliverBlockMsg>(
                        block, block->WireSize(), m.channel_id));
  }
}

void PeerNode::StartGossip(sim::SimDuration pull_period) {
  gossip_pull_period_ = pull_period;
  AntiEntropyTick();
}

void PeerNode::AntiEntropyTick() {
  if (gossip_pull_period_ <= 0) return;
  if (!gossip_pull_targets_.empty()) {
    const sim::NodeId target = gossip_pull_targets_[static_cast<std::size_t>(
        gossip_rng_.NextBelow(gossip_pull_targets_.size()))];
    for (const auto& [channel_id, ledger] : channels_) {
      auto pull = std::make_shared<GossipPullMsg>();
      pull->channel_id = channel_id;
      pull->from_number = ledger->committer->Chain().Height();
      env_.Net().Send(net_id_, target, pull);
    }
  }
  env_.Sched().ScheduleAfter(gossip_pull_period_,
                             [this] { AntiEntropyTick(); },
                             "peer/anti_entropy");
}

void PeerNode::SetEndorseAdmission(const sim::AdmissionConfig& config,
                                   sim::SimDuration retry_after) {
  endorse_ingress_.Configure(config);
  endorse_retry_after_ = retry_after;
}

void PeerNode::HandleEndorseRequest(
    sim::NodeId from, const std::shared_ptr<const EndorseRequestMsg>& m) {
  auto it = channels_.find(m->Proposal().proposal.channel_id);
  if (it == channels_.end()) {
    // Unknown channel: refuse immediately (negligible cost).
    auto response = std::make_shared<proto::ProposalResponse>();
    response->tx_id = m->Proposal().proposal.tx_id;
    response->payload.status = proto::EndorseStatus::kBadProposal;
    const std::size_t wire = response->WireSize();
    env_.Net().Send(net_id_, from,
                    std::make_shared<EndorseResponseMsg>(std::move(response),
                                                         wire));
    return;
  }

  if (auto* tr = env_.Trace()) {
    tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kWire,
               "rpc.endorse", m->Proposal().proposal.tx_id, m->SentAt(),
               env_.Now());
  }

  if (!endorse_ingress_.Config().enabled) {
    StartEndorse({from, m});
    return;
  }
  auto result = endorse_ingress_.Offer({from, m});
  if (result.admit) StartEndorse(std::move(*result.admit));
  for (const auto& shed : result.shed) RefuseOverloaded(shed);
}

void PeerNode::RefuseOverloaded(const PendingEndorse& item) {
  const std::string& tx_id = item.msg->Proposal().proposal.tx_id;
  if (auto* tr = env_.Trace()) {
    tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kOther,
               "overload.shed", tx_id, env_.Now(), env_.Now());
  }
  // Under the block policy overflow vanishes (transport backpressure); the
  // client's endorse timeout surfaces the terminal status.
  if (endorse_ingress_.Config().policy == sim::OverloadPolicy::kBlock) return;
  auto response = std::make_shared<proto::ProposalResponse>();
  response->tx_id = tx_id;
  response->payload.status = proto::EndorseStatus::kServiceUnavailable;
  const std::size_t wire = response->WireSize();
  env_.Net().Send(net_id_, item.from,
                  std::make_shared<EndorseResponseMsg>(
                      std::move(response), wire, env_.Now(),
                      endorse_retry_after_));
}

void PeerNode::StartEndorse(PendingEndorse item) {
  auto it = channels_.find(item.msg->Proposal().proposal.channel_id);
  if (it == channels_.end()) return;
  Endorser* endorser = it->second->endorser.get();

  // Endorsement is the interactive RPC path: high priority on the CPU so
  // background VSCC work does not starve it (Go peers behave similarly —
  // proposal handling is latency-sensitive, validation is batched).
  // The request message is immutable and shared, so the job reads the
  // proposal in place; the tracing branch recomputes the (pure) cost to keep
  // the capture within the scheduler's inline storage.
  const sim::SimTime enqueued = env_.Now();
  machine_.GetCpu().Submit(
      endorser->CostOf(item.msg->Proposal(), cal_),
      [this, item, endorser, enqueued] {
        const proto::SignedProposal& proposal = item.msg->Proposal();
        if (auto* tr = env_.Trace()) {
          RecordEndorseSpans(*tr, endorser->CostOf(proposal, cal_), enqueued,
                             proposal.proposal.tx_id);
        }
        auto response = std::make_shared<proto::ProposalResponse>(
            endorser->Process(proposal));
        const std::size_t wire = response->WireSize();
        env_.Net().Send(net_id_, item.from,
                        std::make_shared<EndorseResponseMsg>(
                            std::move(response), wire, env_.Now()));
        if (endorse_ingress_.Config().enabled) {
          if (auto next = endorse_ingress_.Release()) {
            StartEndorse(std::move(*next));
          }
        }
      },
      /*high_priority=*/true);
}

void PeerNode::RecordEndorseSpans(obs::Tracer& tr, sim::SimDuration cost,
                                  sim::SimTime enqueued,
                                  const std::string& tx_id) {
  // Runs at job completion: reconstruct the service interval and split it
  // into the endorsement sub-steps (check, chaincode execute, ESCC sign) in
  // proportion to their calibrated costs.
  const int pid = tr.PidFor(machine_.Name());
  const sim::Cpu& cpu = machine_.GetCpu();
  const sim::SimTime end = env_.Now();
  sim::SimTime start = end - cpu.ScaledCost(cost);
  if (start < enqueued) start = enqueued;
  if (start > enqueued) {
    tr.Record(pid, obs::SpanKind::kQueue, "endorse.queue", tx_id, enqueued,
              start);
  }
  const sim::SimTime verify_end = start + cpu.ScaledCost(cal_.endorse_check_cpu);
  const sim::SimTime sign_begin = end - cpu.ScaledCost(cal_.endorse_sign_cpu);
  tr.Record(pid, obs::SpanKind::kService, "endorse.verify", tx_id, start,
            verify_end);
  tr.Record(pid, obs::SpanKind::kService, "endorse.execute", tx_id, verify_end,
            sign_begin);
  tr.Record(pid, obs::SpanKind::kService, "endorse.sign", tx_id, sign_begin,
            end);
}

void PeerNode::OnBlockCommitted(const std::string& channel_id,
                                const CommittedBlock& cb) {
  if (event_subscribers_.empty()) return;
  auto ev = std::make_shared<CommitEventMsg>(channel_id, cb.block, cb.codes);
  for (sim::NodeId sub : event_subscribers_) {
    env_.Net().Send(net_id_, sub, ev);
  }
}

}  // namespace fabricsim::peer
