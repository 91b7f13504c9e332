// A peer process: network endpoint + per-channel ledgers, each with an
// endorser (optional) and a committer.
//
// Fabric peers join any number of channels; each channel has its own chain,
// state database, and policies, but all channels share the peer's CPU and
// its single ledger-write (fsync) path — which is exactly what makes
// channel scaling interesting. Endorsing peers serve ProcessProposal on the
// interactive (high-priority) CPU path and validate blocks in the
// background; committing-only peers (the paper's third-phase machines) just
// validate and serve commit events to subscribed clients.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "peer/committer.h"
#include "peer/endorser.h"
#include "peer/peer_messages.h"
#include "sim/admission.h"

namespace fabricsim::obs {
class Tracer;
}  // namespace fabricsim::obs

namespace fabricsim::ordering {
class DeliverBlockMsg;
class BlockAttestReplyMsg;
}  // namespace fabricsim::ordering

namespace fabricsim::peer {

class PeerNode {
 public:
  /// Constructs the peer and joins it to `channel_id` (its first channel),
  /// committing into `channel`. Every channel committer of the peer is
  /// built with `committer_config`.
  PeerNode(sim::Environment& env, sim::Machine& machine,
           crypto::Identity identity, const crypto::MspRegistry& msps,
           std::shared_ptr<const chaincode::Registry> chaincodes,
           const fabric::Calibration& cal, std::string channel_id,
           std::shared_ptr<ChannelState> channel,
           CommitterConfig committer_config, metrics::TxTracker* tracker,
           bool endorsing, int index);

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  /// Joins an additional channel, committing into `channel` (same tracker
  /// policy as the constructor: only the peer-level tracker is reported
  /// to). A no-op for a channel already joined.
  void JoinChannel(const std::string& channel_id,
                   std::shared_ptr<ChannelState> channel);

  [[nodiscard]] sim::NodeId NetId() const { return net_id_; }

  /// The machine hosting this node (its scheduler lane owns all the
  /// node's timers and deliveries).
  [[nodiscard]] sim::Machine& Host() { return machine_; }
  [[nodiscard]] bool IsEndorsing() const { return endorsing_; }
  [[nodiscard]] const crypto::Identity& GetIdentity() const {
    return identity_;
  }
  [[nodiscard]] crypto::Principal PrincipalOf() const {
    return crypto::Principal{identity_.MspId(), crypto::Role::kPeer};
  }

  /// Ledger components of the first (default) channel.
  [[nodiscard]] Committer& GetCommitter() {
    return GetCommitter(default_channel_);
  }
  [[nodiscard]] const Committer& GetCommitter() const {
    return *channels_.at(default_channel_)->committer;
  }

  /// Per-channel accessors. Throws std::out_of_range for unknown channels.
  [[nodiscard]] Committer& GetCommitter(const std::string& channel_id) {
    return *channels_.at(channel_id)->committer;
  }
  [[nodiscard]] bool HasChannel(const std::string& channel_id) const {
    return channels_.count(channel_id) != 0;
  }
  [[nodiscard]] std::size_t ChannelCount() const { return channels_.size(); }

  void SetPolicy(const std::string& chaincode_id,
                 policy::EndorsementPolicy policy) {
    SetPolicy(default_channel_, chaincode_id, std::move(policy));
  }
  void SetPolicy(const std::string& channel_id,
                 const std::string& chaincode_id,
                 policy::EndorsementPolicy policy);

  /// Crash hook: every channel committer leaves its channel's shared world
  /// state, so a peer that stops committing never pins old versions there.
  void OnCrash();

  // --- gossip block dissemination (Fabric's gossip layer) -----------------
  // With gossip, only designated leader peers subscribe to the ordering
  // service; they push delivered blocks to their gossip peers, and every
  // peer periodically anti-entropy-pulls missing blocks from a random
  // gossip peer — so dissemination survives losses and non-leaders.

  /// Adds a peer this node pushes freshly received blocks to.
  void AddGossipPeer(sim::NodeId peer) { gossip_targets_.push_back(peer); }

  /// Adds a peer this node may anti-entropy-pull missing blocks from.
  void AddGossipPullTarget(sim::NodeId peer) {
    gossip_pull_targets_.push_back(peer);
  }

  /// Starts the periodic anti-entropy pull against random gossip peers.
  void StartGossip(sim::SimDuration pull_period = sim::FromSeconds(2));

  [[nodiscard]] std::uint64_t GossipBlocksForwarded() const {
    return gossip_forwarded_;
  }

  /// The peer's single-writer ledger disk station (for telemetry).
  [[nodiscard]] const sim::Cpu& Disk() const { return disk_; }
  /// Mutable access for fault injection (transient disk slowdown).
  [[nodiscard]] sim::Cpu& MutableDisk() { return disk_; }

  // --- overload protection -------------------------------------------------

  /// Bounds the ProcessProposal ingress: at most `max_inflight` proposals
  /// executing/waiting on the CPU plus `max_waiting` parked; overflow is
  /// answered with SERVICE_UNAVAILABLE carrying `retry_after` (or dropped
  /// under the block policy).
  void SetEndorseAdmission(const sim::AdmissionConfig& config,
                           sim::SimDuration retry_after);

  [[nodiscard]] std::size_t EndorseDepth() const {
    return endorse_ingress_.Depth();
  }
  /// Peak endorse-ingress depth ever observed (spikes between samples).
  [[nodiscard]] std::size_t EndorseDepthHighWatermark() const {
    return endorse_ingress_.DepthHighWatermark();
  }
  [[nodiscard]] std::uint64_t EndorseShed() const {
    return endorse_ingress_.ShedTotal();
  }

  // --- deliver-stream failover --------------------------------------------
  // A peer subscribed to one OSN's deliver stream loses its block feed when
  // that OSN crashes. The watchdog pings the current OSN every 500 ms;
  // after 4 consecutive unanswered pings it rotates to the next OSN in the
  // list and re-subscribes from its current chain height (the OSN backfills
  // any blocks it already delivered past that height). When the stream is
  // alive but gapped, it re-subscribes in place to backfill the dropped
  // block. On a single-OSN channel (Solo) there is nowhere to rotate to,
  // but the in-place re-subscribe still repairs gaps and catches the peer
  // up once the OSN revives.

  /// Arms the watchdog for `channel_id`. `osns` is the rotation list and
  /// `current_index` the OSN this peer is currently subscribed to.
  void EnableDeliverFailover(const std::string& channel_id,
                             std::vector<sim::NodeId> osns,
                             std::size_t current_index);

  // --- Byzantine defense: cross-OSN attestation ---------------------------
  // Before handing a freshly delivered block to the committer, ask a
  // *different* OSN for the header hash it holds at that number. A match
  // releases the block; a mismatch means the deliverer equivocated — the
  // held block is dropped, the deliver watchdog rotates off the lying OSN
  // (quarantine) and re-subscribes so an honest OSN backfills the truth.
  // An attester that does not know the block yet (lagging) is retried on a
  // rotating schedule; after 2*|osns| failed attempts the block falls
  // through to the committer's structural checks (fail-open: with every
  // other OSN crashed, wedging the channel would be worse than trusting
  // the linkage/data-hash/signature checks alone). Attestation replies are
  // served from each OSN's canonical history, so even a currently-lying
  // OSN attests honestly — the attack in this model is on the wire, not on
  // the stored chain (see OsnBase's Byzantine hooks).

  /// Arms attestation for `channel_id`. Requires an armed deliver-stream
  /// watchdog with at least two OSNs; no-op otherwise.
  void EnableByzantineDefense(const std::string& channel_id);

  /// Attack passthrough: every channel endorser signs endorsements with a
  /// corrupted signature (see Endorser::SetForgeSignatures). Applies to
  /// current and future channels.
  void SetForgeEndorsements(bool on);

  /// Blocks dropped on an attestation mismatch, deliverer quarantined.
  [[nodiscard]] std::uint64_t ByzantineQuarantines() const {
    return byz_quarantines_;
  }

 private:
  struct ChannelLedger {
    ChannelLedger(PeerNode& peer, const std::string& channel_id,
                  std::shared_ptr<ChannelState> channel);
    std::unique_ptr<Committer> committer;
    std::unique_ptr<Endorser> endorser;
  };

  /// One proposal parked at (or admitted through) the endorse ingress.
  struct PendingEndorse {
    sim::NodeId from = sim::kInvalidNode;
    std::shared_ptr<const EndorseRequestMsg> msg;
  };

  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg);
  void HandleEndorseRequest(
      sim::NodeId from, const std::shared_ptr<const EndorseRequestMsg>& m);
  void StartEndorse(PendingEndorse item);
  void RefuseOverloaded(const PendingEndorse& item);
  void OnBlockCommitted(const std::string& channel_id,
                        const CommittedBlock& cb);
  void HandleDeliverBlock(
      sim::NodeId from,
      const std::shared_ptr<const ordering::DeliverBlockMsg>& msg);
  /// Gossip-forwards `msg` and hands its block to the channel committer —
  /// the tail of delivery, run directly or after attestation clears.
  void ReleaseDeliveredBlock(
      const std::string& channel_id,
      const std::shared_ptr<const ordering::DeliverBlockMsg>& msg);
  void StartAttestation(
      const std::string& channel_id, sim::NodeId deliverer,
      const std::shared_ptr<const ordering::DeliverBlockMsg>& msg);
  void SendAttestRequest(const std::string& channel_id, std::uint64_t number);
  void OnAttestReply(sim::NodeId from,
                     const ordering::BlockAttestReplyMsg& m);
  void OnAttestTimeout(const std::string& channel_id, std::uint64_t number,
                       std::uint64_t version);
  void RetryAttestation(const std::string& channel_id, std::uint64_t number);
  void QuarantineDeliverer(const std::string& channel_id,
                           sim::NodeId deliverer);
  void HandleGossipPull(sim::NodeId from, const GossipPullMsg& m);
  void AntiEntropyTick();
  void DeliverWatchTick(const std::string& channel_id);
  void RecordEndorseSpans(obs::Tracer& tr, sim::SimDuration cost,
                          sim::SimTime enqueued, const std::string& tx_id);

  sim::Environment& env_;
  sim::Machine& machine_;
  crypto::Identity identity_;
  const crypto::MspRegistry& msps_;
  std::shared_ptr<const chaincode::Registry> chaincodes_;
  const fabric::Calibration& cal_;
  std::string default_channel_;
  metrics::TxTracker* tracker_;
  bool endorsing_;
  const CommitterConfig committer_config_;  // every channel committer's
  sim::NodeId net_id_;
  sim::Cpu disk_;  // single-writer ledger path, shared by all channels
  std::map<std::string, std::unique_ptr<ChannelLedger>> channels_;
  std::vector<sim::NodeId> event_subscribers_;

  // Gossip state.
  std::vector<sim::NodeId> gossip_targets_;       // push fan-out
  std::vector<sim::NodeId> gossip_pull_targets_;  // anti-entropy sources
  sim::SimDuration gossip_pull_period_ = 0;  // 0 = anti-entropy off
  sim::Rng gossip_rng_;
  // Per channel: block numbers already pushed onward (loop suppression).
  std::map<std::string, std::set<std::uint64_t>> gossip_seen_;
  std::uint64_t gossip_forwarded_ = 0;
  // Per channel: block numbers whose deliver.wire spans were recorded
  // (touched only while tracing with a tracker attached).
  std::map<std::string, std::set<std::uint64_t>> traced_deliveries_;

  // Deliver-stream watchdog state, per channel.
  struct DeliverWatch {
    std::vector<sim::NodeId> osns;
    std::size_t index = 0;
    bool awaiting_pong = false;
    int missed = 0;
    /// Gap repair: block number the committer was stuck on last tick
    /// (0 = no gap). A gap that survives a full ping period triggers a
    /// re-subscribe so the OSN backfills the dropped block.
    std::uint64_t gap_next = 0;
  };
  std::map<std::string, DeliverWatch> deliver_watch_;

  // Byzantine defense state.
  struct PendingAttest {
    std::shared_ptr<const ordering::DeliverBlockMsg> msg;
    sim::NodeId deliverer = sim::kInvalidNode;
    sim::NodeId attester = sim::kInvalidNode;
    int attempts = 0;
    std::uint64_t version = 0;  // bumped per request; guards the timer
  };
  // (channel, block number) -> held block awaiting attestation.
  std::map<std::pair<std::string, std::uint64_t>, PendingAttest>
      attest_pending_;
  std::set<std::string> byz_defense_;  // channels with attestation armed
  sim::SimDuration attest_timeout_ = sim::FromMillis(300);
  std::uint64_t attest_version_ = 0;
  std::uint64_t byz_quarantines_ = 0;
  bool forge_endorsements_ = false;

  // Bounded ProcessProposal ingress (overload protection).
  sim::AdmissionQueue<PendingEndorse> endorse_ingress_;
  sim::SimDuration endorse_retry_after_ = 0;
};

}  // namespace fabricsim::peer
