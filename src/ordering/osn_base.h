// Shared behaviour of ordering service nodes (OSNs).
//
// Every OSN — Solo, a Raft consenter, or a Kafka-backed OSN — accepts
// Broadcast envelopes from clients (charging the envelope-verification CPU
// cost and replying with an ack), delivers cut blocks to subscribed peers,
// and reports block cuts / ordered transactions to the tracker.
//
// With admission control enabled (SetAdmission) the broadcast ingress is a
// bounded queue: at most `max_inflight` envelopes live anywhere in the
// verify -> cutter -> assembly -> consensus pipeline at once (a slot frees
// when the transaction lands in a delivered block), at most `max_waiting`
// park behind them, and overflow is shed per the configured policy with a
// SERVICE_UNAVAILABLE-style nack carrying a retry-after hint.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/identity.h"
#include "fabric/calibration.h"
#include "metrics/phase_stats.h"
#include "ordering/deliver.h"
#include "ordering/messages.h"
#include "sim/admission.h"
#include "sim/machine.h"

namespace fabricsim::ordering {

class OsnBase {
 public:
  /// One OSN instance serves one channel (Fabric OSN processes serve many
  /// channels; model that by placing several instances on one Machine).
  OsnBase(sim::Environment& env, sim::Machine& machine,
          crypto::Identity identity, const fabric::Calibration& cal,
          metrics::TxTracker* tracker, const std::string& net_name,
          std::string channel_id = "mychannel");

  [[nodiscard]] const std::string& ChannelId() const { return channel_id_; }

  virtual ~OsnBase() = default;
  OsnBase(const OsnBase&) = delete;
  OsnBase& operator=(const OsnBase&) = delete;

  [[nodiscard]] sim::NodeId NetId() const { return net_id_; }

  /// The machine hosting this node (its scheduler lane owns all the
  /// node's timers and deliveries).
  [[nodiscard]] sim::Machine& Host() { return machine_; }
  [[nodiscard]] const crypto::Identity& GetIdentity() const {
    return identity_;
  }

  /// Subscribes a peer to this OSN's block deliveries.
  void SubscribePeer(sim::NodeId peer) { deliver_.Subscribe(peer); }

  /// Subscribes `peer` and backfills every already-delivered block from
  /// `from_number` on (Fabric's Deliver seek). Used by peers failing over
  /// from a crashed OSN; idempotent for existing subscribers. The backfill
  /// is windowed: at most 4 blocks in flight per subscriber, advanced by
  /// DeliverAckMsg, so recovery traffic cannot monopolize the wire during
  /// failover.
  void SubscribePeerFrom(sim::NodeId peer, std::uint64_t from_number);

  /// Bounds the ingress queue. `retry_after` is the pause hint attached to
  /// overload nacks.
  void SetAdmission(const sim::AdmissionConfig& config,
                    sim::SimDuration retry_after);

  /// Caps the retained backfill history to the newest `blocks` delivered
  /// blocks (0 = keep all, the default). Memory is otherwise O(chain
  /// length); long soak runs bound it and forgo deep backfill seeks.
  void SetHistoryBlocks(std::size_t blocks) { history_blocks_ = blocks; }

  /// Envelopes currently admitted or waiting at the ingress queue.
  [[nodiscard]] std::size_t IngressDepth() const { return ingress_.Depth(); }
  /// Peak ingress depth ever observed (catches spikes between samples).
  [[nodiscard]] std::size_t IngressDepthHighWatermark() const {
    return ingress_.DepthHighWatermark();
  }
  [[nodiscard]] std::uint64_t IngressShed() const {
    return ingress_.ShedTotal();
  }

  /// Anchors this OSN on the channel's genesis block: user blocks start at
  /// number 1 and chain off the genesis hash.
  void SetGenesis(const proto::Block& genesis);

  [[nodiscard]] std::uint64_t GenesisNextNumber() const {
    return genesis_next_number_;
  }
  [[nodiscard]] const crypto::Digest& GenesisHash() const {
    return genesis_hash_;
  }

  /// Blocks delivered so far by this OSN.
  [[nodiscard]] std::uint64_t DeliveredBlocks() const {
    return delivered_blocks_;
  }

  // --- Byzantine attack hooks (armed/disarmed by the FaultInjector) -------
  //
  // The attacks act on the *wire*: the OSN's internal history stays the
  // canonical chain (a deliberate simplification — attestation replies and
  // backfills after the window always serve the honest copy, which is what
  // lets the defense re-fetch a clean block after rejecting a corrupt one).

  /// Deliver a divergent, re-signed block variant to a subset of this OSN's
  /// subscribers. Structurally valid — only cross-OSN attestation or the
  /// next block's linkage check can catch it.
  void SetEquivocate(bool on) { byz_equivocate_ = on; }
  /// Corrupt a transaction payload in delivered blocks without recomputing
  /// the header's data hash — caught by the committer's data-hash check.
  void SetTamperDeliver(bool on) { byz_tamper_ = on; }
  /// Serve corrupted copies on backfill/catch-up subscriptions.
  void SetBogusBackfill(bool on) { byz_bogus_backfill_ = on; }

  /// Header hash of the block this OSN holds at `number`, for attestation
  /// and the fork invariant; nullopt outside the retained history.
  [[nodiscard]] std::optional<crypto::Digest> HistoryHeaderHash(
      std::uint64_t number) const;

 protected:
  /// What the consenter did with a verified envelope.
  enum class AcceptResult {
    kOk,        // enqueued; ack the submitter, slot frees at block delivery
    kNack,      // hard-rejected; nack the submitter, slot frees now
    kDeferred,  // handed to another node which will ack; slot frees now
  };

  /// One envelope parked at (or admitted through) the ingress queue.
  struct PendingIngress {
    sim::NodeId from = sim::kInvalidNode;
    EnvelopePtr env;
    std::size_t wire_size = 0;
  };

  /// Consensus-specific envelope path, invoked after the shared verification
  /// CPU charge. `origin` is the node to be acked (the submitting client,
  /// or with admission on, the client a follower forwarded for).
  virtual AcceptResult AcceptEnvelope(const EnvelopePtr& env,
                                      std::size_t wire_size,
                                      sim::NodeId origin) = 0;

  /// Consensus-specific extra message handling (raft/kafka traffic).
  virtual void OnOtherMessage(sim::NodeId from, const sim::MessagePtr& msg) = 0;

  /// Marks all txs of `b` ordered, records the cut, and delivers to peers.
  /// Out-of-order completions (parallel CPU) are buffered and flushed in
  /// block-number order so subscribers always see a contiguous chain.
  void FinishBlock(AssembledBlock b);

  /// Builds + signs the next block from `batch` on this node's CPU, then
  /// calls `done` with the result.
  void AssembleAsync(Batch batch,
                     std::function<void(AssembledBlock)> done);

  /// Runs `item` through the bounded ingress: admitted items get the verify
  /// CPU charge then AcceptEnvelope; shed items get an overload nack (or
  /// vanish under the block policy, modelling transport backpressure).
  /// Entry point for both client broadcasts and leader-side handling of
  /// forwarded envelopes.
  void AdmitForVerify(PendingIngress item);

  [[nodiscard]] bool AdmissionEnabled() const {
    return ingress_.Config().enabled;
  }

  /// Sends a SERVICE_UNAVAILABLE-style nack with the retry-after hint.
  void NackOverloaded(sim::NodeId to, const std::string& tx_id);

  /// Releases the ingress slot held for an admitted tx that will never
  /// reach a delivered block on this node (e.g. dropped on leadership
  /// loss). No-op for txs this node did not admit.
  void ReleaseAdmittedTx(const std::string& tx_id);

  /// Clears all admission state (crash restart).
  void ResetAdmission();

  sim::Environment& env_;
  sim::Machine& machine_;
  crypto::Identity identity_;
  const fabric::Calibration& cal_;
  metrics::TxTracker* tracker_;
  std::string channel_id_;
  sim::NodeId net_id_ = sim::kInvalidNode;
  BlockAssembler assembler_;
  DeliverService deliver_;
  std::uint64_t delivered_blocks_ = 0;

 private:
  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg);
  /// Charges the verify CPU cost for an admitted envelope, then dispatches
  /// to AcceptEnvelope and acks/releases per the result.
  void StartVerify(PendingIngress item);
  /// Frees one ingress slot; pulls and starts the next waiting envelope.
  void ReleaseIngressSlot();
  void ShedIngress(std::vector<PendingIngress> shed);

  struct BackfillState {
    std::uint64_t next = 0;      // next block number to send
    std::size_t inflight = 0;    // sent but not yet acked
    std::uint64_t version = 0;   // bumped on every change, guards the timer
  };
  void PumpBackfill(sim::NodeId peer);
  void OnDeliverAck(sim::NodeId peer);

  /// Deliver path when an equivocate/tamper attack window is active.
  void DeliverByzantine(const AssembledBlock& ready);
  /// Copy with one tx payload corrupted and the (now stale) header kept.
  [[nodiscard]] AssembledBlock TamperedCopy(const AssembledBlock& b) const;
  /// Divergent variant rebuilt and re-signed by this OSN's identity.
  [[nodiscard]] AssembledBlock ForgedVariant(const AssembledBlock& b) const;

  std::uint64_t next_deliver_number_ = 0;
  std::map<std::uint64_t, AssembledBlock> out_of_order_;
  // Every block delivered so far, by number, so late (re)subscribers can be
  // backfilled. Blocks are shared_ptrs into the same objects the peers hold,
  // so retention costs pointers, not copies.
  std::map<std::uint64_t, AssembledBlock> history_;
  std::uint64_t genesis_next_number_ = 0;
  crypto::Digest genesis_hash_{};

  sim::AdmissionQueue<PendingIngress> ingress_;
  sim::SimDuration retry_after_ = 0;
  // Occurrence counts of admitted tx ids still in the pipeline (counts, not
  // a set: a client may legitimately resubmit the same tx id and both
  // copies hold slots until each lands in a block).
  std::unordered_map<std::string, int> admitted_txs_;

  std::map<sim::NodeId, BackfillState> backfill_;
  std::size_t history_blocks_ = 0;  // 0 = unbounded

  bool byz_equivocate_ = false;
  bool byz_tamper_ = false;
  bool byz_bogus_backfill_ = false;
};

}  // namespace fabricsim::ordering
