#include "ordering/osn_base.h"

#include "obs/trace.h"

namespace fabricsim::ordering {
namespace {

// Backfill blocks in flight per subscriber, and how long an unacked window
// may stall before it is assumed delivered.
constexpr std::size_t kBackfillWindow = 4;
constexpr sim::SimDuration kBackfillTimeout = sim::FromSeconds(2);

}  // namespace

OsnBase::OsnBase(sim::Environment& env, sim::Machine& machine,
                 crypto::Identity identity, const fabric::Calibration& cal,
                 metrics::TxTracker* tracker, const std::string& net_name,
                 std::string channel_id)
    : env_(env),
      machine_(machine),
      identity_(std::move(identity)),
      cal_(cal),
      tracker_(tracker),
      channel_id_(std::move(channel_id)),
      net_id_(env.Net().Register(
          net_name,
          [this](sim::NodeId from, sim::MessagePtr msg) {
            OnMessage(from, std::move(msg));
          })),
      assembler_(identity_, cal.block_hash_us_per_kib,
                 cal.block_assemble_base_cpu),
      deliver_(env.Net(), net_id_, channel_id_) {}

void OsnBase::SetGenesis(const proto::Block& genesis) {
  genesis_next_number_ = genesis.header.number + 1;
  genesis_hash_ = genesis.header.Hash();
  assembler_.SetNext(genesis_next_number_, genesis_hash_);
  next_deliver_number_ = genesis_next_number_;
}

void OsnBase::SetAdmission(const sim::AdmissionConfig& config,
                           sim::SimDuration retry_after) {
  ingress_.Configure(config);
  retry_after_ = retry_after;
}

void OsnBase::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (auto bc = std::dynamic_pointer_cast<const BroadcastEnvelopeMsg>(msg)) {
    if (auto* tr = env_.Trace()) {
      tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kWire,
                 "rpc.broadcast", bc->Envelope()->tx_id, bc->SentAt(),
                 env_.Now());
    }
    AdmitForVerify({from, bc->Envelope(), bc->WireSize()});
    return;
  }
  if (auto ping = std::dynamic_pointer_cast<const DeliverPingMsg>(msg)) {
    // Liveness probe from a subscribed peer: answer immediately. No CPU
    // charge — the real Deliver stream's keepalive is a transport-level
    // frame, not an application request.
    env_.Net().Send(net_id_, from,
                    std::make_shared<DeliverPongMsg>(ping->ChannelId()));
    return;
  }
  if (auto sub = std::dynamic_pointer_cast<const SubscribeRequestMsg>(msg)) {
    if (sub->ChannelId() == channel_id_) {
      SubscribePeerFrom(from, sub->FromNumber());
    }
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<const DeliverAckMsg>(msg)) {
    if (ack->ChannelId() == channel_id_) OnDeliverAck(from);
    return;
  }
  if (auto att =
          std::dynamic_pointer_cast<const BlockAttestRequestMsg>(msg)) {
    if (att->ChannelId() == channel_id_) {
      // Answer from the canonical history. Like the deliver ping, this is a
      // metadata lookup, not an application request: no CPU charge.
      const auto hash = HistoryHeaderHash(att->BlockNumber());
      env_.Net().Send(net_id_, from,
                      std::make_shared<BlockAttestReplyMsg>(
                          channel_id_, att->BlockNumber(), hash.has_value(),
                          hash.value_or(crypto::Digest{})));
    }
    return;
  }
  OnOtherMessage(from, msg);
}

std::optional<crypto::Digest> OsnBase::HistoryHeaderHash(
    std::uint64_t number) const {
  const auto it = history_.find(number);
  if (it == history_.end()) return std::nullopt;
  return it->second.block->header.Hash();
}

void OsnBase::AdmitForVerify(PendingIngress item) {
  if (!AdmissionEnabled()) {
    // Legacy unbounded path: every envelope goes straight to verification.
    StartVerify(std::move(item));
    return;
  }
  auto result = ingress_.Offer(std::move(item));
  if (result.admit) StartVerify(std::move(*result.admit));
  if (!result.shed.empty()) ShedIngress(std::move(result.shed));
}

void OsnBase::ShedIngress(std::vector<PendingIngress> shed) {
  const bool silent =
      ingress_.Config().policy == sim::OverloadPolicy::kBlock;
  for (auto& item : shed) {
    if (auto* tr = env_.Trace()) {
      tr->Record(tr->PidFor(machine_.Name()), obs::SpanKind::kOther,
                 "overload.shed", item.env->tx_id, env_.Now(), env_.Now());
    }
    // Under the block policy overflow vanishes (transport backpressure);
    // the client's broadcast timeout surfaces the terminal status.
    if (!silent) NackOverloaded(item.from, item.env->tx_id);
  }
}

void OsnBase::NackOverloaded(sim::NodeId to, const std::string& tx_id) {
  env_.Net().Send(net_id_, to,
                  std::make_shared<BroadcastAckMsg>(
                      tx_id, BroadcastStatus::kOverloaded, retry_after_));
}

void OsnBase::StartVerify(PendingIngress item) {
  // Charge envelope unmarshal + signature/policy verification, then hand
  // to the consenter and ack the submitter.
  const sim::SimTime enqueued = env_.Now();
  machine_.GetCpu().Submit(
      cal_.orderer_verify_cpu,
      [this, enqueued, item = std::move(item)]() {
        if (auto* tr = env_.Trace()) {
          tr->RecordResourceSpan(
              tr->PidFor(machine_.Name()), "orderer.verify", item.env->tx_id,
              enqueued, env_.Now(),
              machine_.GetCpu().ScaledCost(cal_.orderer_verify_cpu));
        }
        const AcceptResult r =
            AcceptEnvelope(item.env, item.wire_size, item.from);
        switch (r) {
          case AcceptResult::kOk:
            if (AdmissionEnabled()) ++admitted_txs_[item.env->tx_id];
            if (auto* tr = env_.Trace()) {
              // Open until the tx lands in a delivered block: batching wait
              // + consensus replication + assembly, the whole ordering
              // pipeline.
              tr->Begin(tr->PidFor(machine_.Name()), obs::SpanKind::kQueue,
                        "order.consensus", item.env->tx_id, env_.Now());
            }
            env_.Net().Send(
                net_id_, item.from,
                std::make_shared<BroadcastAckMsg>(item.env->tx_id, true));
            break;
          case AcceptResult::kNack:
            env_.Net().Send(
                net_id_, item.from,
                std::make_shared<BroadcastAckMsg>(item.env->tx_id, false));
            if (AdmissionEnabled()) ReleaseIngressSlot();
            break;
          case AcceptResult::kDeferred:
            // Another node owns the envelope now and will ack the origin;
            // this node's pipeline is done with it.
            if (AdmissionEnabled()) ReleaseIngressSlot();
            break;
        }
      },
      /*high_priority=*/true);
}

void OsnBase::ReleaseIngressSlot() {
  if (auto next = ingress_.Release()) StartVerify(std::move(*next));
}

void OsnBase::ReleaseAdmittedTx(const std::string& tx_id) {
  auto it = admitted_txs_.find(tx_id);
  if (it == admitted_txs_.end()) return;
  if (--it->second == 0) admitted_txs_.erase(it);
  ReleaseIngressSlot();
}

void OsnBase::ResetAdmission() {
  const auto config = ingress_.Config();
  ingress_ = sim::AdmissionQueue<PendingIngress>(config);
  admitted_txs_.clear();
}

void OsnBase::SubscribePeerFrom(sim::NodeId peer, std::uint64_t from_number) {
  deliver_.Subscribe(peer);
  // Backfill what this OSN already delivered past the peer's height; blocks
  // the OSN has not seen yet will arrive through the normal deliver path.
  // The backfill is windowed so a rejoining peer's catch-up traffic cannot
  // monopolize the wire: at most kBackfillWindow blocks in flight, each
  // acked by the peer before the window slides.
  BackfillState& st = backfill_[peer];
  st.next = from_number;
  st.inflight = 0;
  ++st.version;
  PumpBackfill(peer);
}

void OsnBase::PumpBackfill(sim::NodeId peer) {
  auto it = backfill_.find(peer);
  if (it == backfill_.end()) return;
  BackfillState& st = it->second;
  while (st.inflight < kBackfillWindow) {
    auto h = history_.lower_bound(st.next);
    if (h == history_.end()) break;
    st.next = h->first + 1;
    ++st.inflight;
    ++st.version;
    if (byz_bogus_backfill_) {
      // Malicious deliver history: the catch-up stream serves corrupted
      // copies while the attack window is open. The committer's data-hash
      // check rejects them; once the window closes, the next repair
      // subscription backfills the honest copies still held here.
      deliver_.DeliverTo(peer, TamperedCopy(h->second),
                         /*ack_requested=*/true);
    } else {
      deliver_.DeliverTo(peer, h->second, /*ack_requested=*/true);
    }
  }
  if (st.inflight == 0) {
    // Caught up with history; future blocks flow through normal delivery.
    backfill_.erase(it);
    return;
  }
  // Lost-ack guard: if nothing moves for a while, assume the outstanding
  // window made it (legacy backfill had no retransmit either) and advance.
  const std::uint64_t version = st.version;
  env_.Sched().ScheduleAfter(
      kBackfillTimeout,
      [this, peer, version]() {
        auto g = backfill_.find(peer);
        if (g == backfill_.end() || g->second.version != version) return;
        g->second.inflight = 0;
        ++g->second.version;
        PumpBackfill(peer);
      },
      "osn/backfill_timeout");
}

void OsnBase::OnDeliverAck(sim::NodeId peer) {
  auto it = backfill_.find(peer);
  if (it == backfill_.end()) return;
  if (it->second.inflight > 0) --it->second.inflight;
  ++it->second.version;
  PumpBackfill(peer);
}

void OsnBase::FinishBlock(AssembledBlock b) {
  out_of_order_.emplace(b.block->header.number, std::move(b));
  while (true) {
    auto it = out_of_order_.find(next_deliver_number_);
    if (it == out_of_order_.end()) break;
    const AssembledBlock& ready = it->second;
    if (tracker_ != nullptr) {
      tracker_->RecordBlockCut(env_.Now(), ready.block->TxCount());
      auto* tr = env_.Trace();
      for (const auto& tx : ready.block->transactions) {
        tracker_->MarkOrdered(tx.tx_id, env_.Now());
        // Close exactly where MarkOrdered stamps the phase boundary (the
        // span may have been opened on a different OSN instance).
        if (tr != nullptr) tr->End(tx.tx_id, "order.consensus", env_.Now());
      }
    }
    // A delivered block is the end of the ordering pipeline: free the
    // ingress slots of every tx this node admitted.
    if (!admitted_txs_.empty()) {
      for (const auto& tx : ready.block->transactions) {
        auto slot = admitted_txs_.find(tx.tx_id);
        if (slot == admitted_txs_.end()) continue;
        if (--slot->second == 0) admitted_txs_.erase(slot);
        ReleaseIngressSlot();
      }
    }
    ++delivered_blocks_;
    if (byz_tamper_ || byz_equivocate_) {
      DeliverByzantine(ready);
    } else {
      deliver_.Deliver(ready);
    }
    history_.emplace(ready.block->header.number, ready);
    if (history_blocks_ > 0) {
      // Bounded backfill history: anything a subscriber might still seek
      // beyond this window is simply gone, like a Fabric orderer whose log
      // was snapshotted/compacted.
      while (history_.size() > history_blocks_) {
        history_.erase(history_.begin());
      }
    }
    out_of_order_.erase(it);
    ++next_deliver_number_;
  }
}

void OsnBase::DeliverByzantine(const AssembledBlock& ready) {
  if (byz_tamper_) {
    // Same corrupt copy to everyone: payload mutated, header (and thus the
    // orderer signature) left intact, so only the data-hash re-check at the
    // committer can notice.
    deliver_.Deliver(TamperedCopy(ready));
    return;
  }
  // Equivocation: the odd-indexed subscribers get a divergent, re-signed
  // variant; the rest get the canonical block. With a single subscriber the
  // lie goes to it — the divergence is then only visible across OSNs.
  const AssembledBlock forged = ForgedVariant(ready);
  const auto& subs = deliver_.Subscribers();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const bool lie = subs.size() == 1 || (i % 2 == 1);
    deliver_.DeliverTo(subs[i], lie ? forged : ready);
  }
}

AssembledBlock OsnBase::TamperedCopy(const AssembledBlock& b) const {
  auto copy = std::make_shared<proto::Block>(*b.block);
  if (!copy->transactions.empty()) {
    copy->transactions.Mutable(0).chaincode_result.push_back(0xA5);
    copy->InvalidateCaches();
  }
  AssembledBlock out = b;
  out.block = std::move(copy);
  return out;
}

AssembledBlock OsnBase::ForgedVariant(const AssembledBlock& b) const {
  // Rebuild the block with one transaction's payload mutated, recompute the
  // data hash, and re-sign the header: structurally indistinguishable from
  // an honest block signed by this (trusted) orderer identity.
  proto::EnvelopeList txs = b.block->transactions;
  if (!txs.empty()) txs.Mutable(0).chaincode_result.push_back(0x5A);
  auto forged = std::make_shared<proto::Block>(
      proto::Block::Make(b.block->header.number,
                         &b.block->header.previous_hash, std::move(txs)));
  forged->metadata.orderer_cert = identity_.SerializedCert();
  forged->metadata.orderer_signature =
      identity_.SignDigest(forged->header.Hash());
  AssembledBlock out = b;
  out.block = std::move(forged);
  return out;
}

void OsnBase::AssembleAsync(Batch batch,
                            std::function<void(AssembledBlock)> done) {
  // Assemble immediately (deterministic data), then charge the CPU cost
  // before surfacing the block to the consenter.
  AssembledBlock built = assembler_.Assemble(batch);
  const sim::SimDuration cost = built.cpu_cost;
  const sim::SimTime enqueued = env_.Now();
  machine_.GetCpu().Submit(
      cost,
      [this, cost, enqueued, built = std::move(built),
       done = std::move(done)]() mutable {
        if (auto* tr = env_.Trace()) {
          tr->RecordResourceSpan(
              tr->PidFor(machine_.Name()), "block.assemble",
              "block:" + channel_id_ + ":" +
                  std::to_string(built.block->header.number),
              enqueued, env_.Now(), machine_.GetCpu().ScaledCost(cost));
        }
        done(std::move(built));
      });
}

}  // namespace fabricsim::ordering
