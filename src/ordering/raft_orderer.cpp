#include "ordering/raft_orderer.h"

#include "obs/trace.h"

namespace fabricsim::ordering {

RaftOrderer::RaftOrderer(sim::Environment& env, sim::Machine& machine,
                         crypto::Identity identity,
                         const fabric::Calibration& cal, BatchConfig batch,
                         metrics::TxTracker* tracker,
                         int index, std::string channel_id)
    : OsnBase(env, machine, std::move(identity), cal, tracker,
              "orderer.raft" + std::to_string(index) + "/" + channel_id,
              channel_id),
      cutter_(batch) {}

void RaftOrderer::SetGroup(const std::vector<sim::NodeId>& group) {
  raft_ = std::make_unique<RaftNode>(
      env_.Sched(), env_.Net(), env_.ForkRng(), NetId(), group,
      [this](std::uint64_t /*index*/, const RaftEntry& entry) {
        OnCommitted(entry);
      });
  raft_->SetLeadershipCallback(
      [this](bool is_leader) { OnLeadershipChange(is_leader); });
}

void RaftOrderer::Start() { raft_->Start(); }

void RaftOrderer::RestartAfterCrash() {
  const bool was_leader = raft_->IsLeader();
  // Ingress state is volatile: whatever was queued died with the process.
  ResetAdmission();
  raft_->RestartAfterCrash();
  // The leadership callback does not fire inside RestartAfterCrash; drop
  // the block-cutter timer ourselves when leadership was just lost.
  if (was_leader) OnLeadershipChange(false);
}

void RaftOrderer::OnLeadershipChange(bool is_leader) {
  if (!is_leader) {
    if (timer_ != 0) {
      env_.Sched().Cancel(timer_);
      timer_ = 0;
    }
    // Envelopes parked in the cutter ride out the demotion (they get cut
    // if leadership returns), but their ingress slots must not: release
    // them now so the window keeps admitting for the new leader.
    if (AdmissionEnabled()) {
      for (const auto& env : cutter_.Pending()) ReleaseAdmittedTx(env->tx_id);
    }
    return;
  }
  // Continue the chain from the tail of the (replicated) log.
  const std::uint64_t last = raft_->LogSize();
  if (last == 0) {
    assembler_.SetNext(GenesisNextNumber(), GenesisHash());
  } else {
    const RaftEntry* tail = raft_->EntryAt(last);
    assembler_.SetNext(tail->block->header.number + 1,
                       tail->block->header.Hash());
  }
}

OsnBase::AcceptResult RaftOrderer::AcceptEnvelope(const EnvelopePtr& env,
                                                  std::size_t wire_size,
                                                  sim::NodeId origin) {
  if (raft_ == nullptr) return AcceptResult::kNack;
  if (raft_->IsLeader()) {
    LeaderEnqueue(env, wire_size);
    return AcceptResult::kOk;
  }
  const auto leader = raft_->KnownLeader();
  if (!leader) return AcceptResult::kNack;  // no leader yet: client retries
  if (AdmissionEnabled()) {
    // Relay with the origin attached: the leader runs the envelope through
    // its own bounded ingress and acks (or sheds) the client directly, so
    // a follower's ack can never outlive the leader's queue space.
    env_.Net().Send(NetId(), *leader,
                    std::make_shared<ForwardEnvelopeMsg>(env, wire_size,
                                                         origin));
    return AcceptResult::kDeferred;
  }
  env_.Net().Send(NetId(), *leader,
                  std::make_shared<ForwardEnvelopeMsg>(env, wire_size));
  return AcceptResult::kOk;
}

void RaftOrderer::LeaderEnqueue(const EnvelopePtr& env,
                                std::size_t wire_size) {
  auto result = cutter_.Ordered(env, wire_size);
  for (auto& batch : result.batches) ProposeBatch(std::move(batch));
  if (result.pending) {
    ArmTimerIfNeeded();
  } else if (!result.batches.empty() && timer_ != 0) {
    env_.Sched().Cancel(timer_);
    timer_ = 0;
  }
}

void RaftOrderer::ArmTimerIfNeeded() {
  if (timer_ != 0) return;
  timer_ = env_.Sched().ScheduleAfter(cutter_.Config().batch_timeout,
                                      [this] { OnTimeout(); },
                                      "raft_orderer/batch_timeout");
}

void RaftOrderer::OnTimeout() {
  timer_ = 0;
  if (!raft_->IsLeader()) return;
  Batch batch = cutter_.Cut();
  if (!batch.empty()) ProposeBatch(std::move(batch));
}

void RaftOrderer::ProposeBatch(Batch batch) {
  if (timer_ != 0) {
    env_.Sched().Cancel(timer_);
    timer_ = 0;
  }
  AssembleAsync(std::move(batch), [this](AssembledBlock built) {
    // Leadership may have moved while the CPU was busy; dropping the block
    // here mirrors Fabric (clients learn via missing commit events).
    if (raft_->IsLeader()) {
      if (auto* tr = env_.Trace()) {
        tr->Begin(tr->PidFor(machine_.Name()), obs::SpanKind::kWire,
                  "raft.replicate",
                  "block:" + channel_id_ + ":" +
                      std::to_string(built.block->header.number),
                  env_.Now());
      }
      raft_->Propose(built.block, built.wire_size);
    } else if (AdmissionEnabled()) {
      // The dropped block's txs will never reach FinishBlock here; free
      // the ingress slots they held so the window cannot shrink for good.
      for (const auto& tx : built.block->transactions) {
        ReleaseAdmittedTx(tx.tx_id);
      }
    }
  });
}

void RaftOrderer::OnCommitted(const RaftEntry& entry) {
  if (auto* tr = env_.Trace()) {
    // First OSN to learn of the commit closes the replication span.
    tr->End("block:" + channel_id_ + ":" +
                std::to_string(entry.block->header.number),
            "raft.replicate", env_.Now());
  }
  AssembledBlock b;
  b.block = entry.block;
  b.wire_size = entry.block_bytes;
  b.cpu_cost = 0;
  FinishBlock(std::move(b));
}

void RaftOrderer::OnOtherMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (raft_ != nullptr && raft_->OnMessage(from, msg)) return;
  if (auto fwd = std::dynamic_pointer_cast<const ForwardEnvelopeMsg>(msg)) {
    if (fwd->Origin() != sim::kInvalidNode) {
      // Admission-controlled relay: run the forwarded envelope through
      // this node's own bounded ingress; the origin client is acked (or
      // overload-nacked) from here.
      if (raft_ != nullptr && raft_->IsLeader()) {
        AdmitForVerify({fwd->Origin(), fwd->Envelope(), fwd->WireSize()});
      } else {
        // Leadership moved mid-flight: nack so the client rotates rather
        // than waiting out its broadcast timeout.
        env_.Net().Send(NetId(), fwd->Origin(),
                        std::make_shared<BroadcastAckMsg>(
                            fwd->Envelope()->tx_id, false));
      }
      return;
    }
    if (raft_ != nullptr && raft_->IsLeader()) {
      // Charge the same verification the leader would do for a direct
      // broadcast (Fabric re-validates forwarded envelopes).
      machine_.GetCpu().Submit(
          cal_.orderer_verify_cpu,
          [this, env = fwd->Envelope(), size = fwd->WireSize()] {
            if (raft_->IsLeader()) LeaderEnqueue(env, size);
          },
          /*high_priority=*/true);
    }
    // Not the leader (leadership moved mid-flight): drop; client retries.
    return;
  }
}

}  // namespace fabricsim::ordering
