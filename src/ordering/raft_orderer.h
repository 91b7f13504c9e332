// Raft-backed ordering service node (Fabric's etcd/raft consenter).
//
// Every OSN embeds a RaftNode. The elected leader runs the block cutter:
// incoming envelopes (from its own clients, or forwarded by follower OSNs)
// are batched, each cut batch is assembled into a block and proposed into
// the Raft log, and every OSN delivers blocks to its subscribed peers when
// its Raft instance commits them — so followers serve Deliver too, exactly
// like Fabric.
#pragma once

#include <memory>

#include "ordering/osn_base.h"
#include "ordering/raft.h"

namespace fabricsim::ordering {

class RaftOrderer final : public OsnBase {
 public:
  RaftOrderer(sim::Environment& env, sim::Machine& machine,
              crypto::Identity identity, const fabric::Calibration& cal,
              BatchConfig batch, metrics::TxTracker* tracker, int index,
              std::string channel_id = "mychannel");

  /// Wires the consenter group. Call once for each node, then StartAll.
  void SetGroup(const std::vector<sim::NodeId>& group);

  /// Arms raft timers. All nodes must have their group set first.
  void Start();

  [[nodiscard]] bool IsLeader() const { return raft_->IsLeader(); }
  [[nodiscard]] const RaftNode& Raft() const { return *raft_; }

  /// Crash-recovery: resets the consenter's volatile Raft state and re-arms
  /// its timers, as a real orderer restart would. Call when the simulated
  /// process comes back after sim::Network::Revive.
  void RestartAfterCrash();

 protected:
  AcceptResult AcceptEnvelope(const EnvelopePtr& env, std::size_t wire_size,
                              sim::NodeId origin) override;
  void OnOtherMessage(sim::NodeId from, const sim::MessagePtr& msg) override;

 private:
  void LeaderEnqueue(const EnvelopePtr& env, std::size_t wire_size);
  void ArmTimerIfNeeded();
  void OnTimeout();
  void ProposeBatch(Batch batch);
  void OnCommitted(const RaftEntry& entry);
  void OnLeadershipChange(bool is_leader);

  std::unique_ptr<RaftNode> raft_;
  BlockCutter cutter_;
  sim::EventId timer_ = 0;
};

}  // namespace fabricsim::ordering
