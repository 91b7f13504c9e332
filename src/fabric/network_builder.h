// FabricNetwork: builds and owns one complete simulated Fabric deployment —
// the library's main entry point.
//
//   fabric::NetworkOptions opts;
//   opts.topology.ordering = fabric::OrderingType::kRaft;
//   fabric::FabricNetwork net(opts);
//   net.Start();
//   ... submit transactions via net.Clients() or a WorkloadController ...
//   net.Env().Sched().RunUntil(sim::FromSeconds(60));
//
// Multi-channel deployments (`opts.channels > 1`) mirror Fabric: every peer
// joins every channel (separate chain + state per channel, shared CPU and
// ledger-write path); each channel gets its own consenter instance — a Solo
// node, a Raft group, or a Kafka partition — hosted on the *same* orderer /
// broker machines, exactly like Fabric OSN processes serving many channels.
// Clients are bound to channels round-robin.
#pragma once

#include <memory>

#include "chaincode/kvwrite.h"
#include "chaincode/smallbank.h"
#include "chaincode/token.h"
#include "client/client.h"
#include "fabric/calibration.h"
#include "fabric/channel.h"
#include "fabric/optimizations.h"
#include "fabric/topology.h"
#include "ordering/kafka_orderer.h"
#include "ordering/raft_orderer.h"
#include "ordering/solo.h"
#include "peer/peer_node.h"

namespace fabricsim::obs {
class Tracer;
}  // namespace fabricsim::obs

namespace fabricsim::fabric {

/// Failure-recovery behaviour for chaos experiments. Off by default, which
/// reproduces the paper's SDK exactly: one pinned orderer endpoint, a fixed
/// 200 ms nack retry, no endorsement retries, no deliver-stream failover.
struct RecoveryOptions {
  bool enabled = false;
  /// Client: rotate orderer endpoints on silent broadcast timeouts.
  int broadcast_timeout_retries = 3;
  /// Client: nack retry budget (each retry rotates endpoints and backs off).
  int broadcast_nack_retries = 5;
  /// Client: resubmit an acked envelope whose commit event never arrives
  /// (the committer's tx-id dedup makes this safe).
  sim::SimDuration commit_timeout = sim::FromSeconds(8);
  int commit_retries = 2;
  /// Client: retry endorsement against the surviving endorsers.
  int endorse_retries = 1;
  /// Peer: deliver-stream watchdog tuning. The watchdog re-subscribes to an
  /// alternate OSN when the stream dies, and re-subscribes in place to
  /// backfill a dropped block when the stream is alive but gapped. On a
  /// single-OSN channel (Solo) there is nowhere to rotate to, but the
  /// in-place re-subscribe still repairs gaps and catches the peer up once
  /// the OSN revives.
  peer::DeliverFailoverConfig deliver;
};

/// Overload protection: bounded ingress queues with admission control at
/// every tier plus client-side flow control. Off by default — the legacy
/// queue-forever behaviour the paper measured. Fabric analogues: the
/// Broadcast RPC's SERVICE_UNAVAILABLE status (orderer), the chaincode
/// shim's 503 (endorser), and etcdraft's bounded in-flight blocks.
struct OverloadOptions {
  bool enabled = false;
  /// What happens when a bounded queue overflows (reject newest, displace
  /// oldest, or model transport backpressure by dropping silently).
  sim::OverloadPolicy policy = sim::OverloadPolicy::kReject;
  /// OSN broadcast ingress: envelopes in verify/order plus parked. A slot
  /// is held until the envelope's block finishes, so this bound must exceed
  /// capacity x block residence (~300 tps x ~1 s blocks needs > 300 slots)
  /// or admission, not the CPU, sets the saturation knee.
  std::size_t osn_max_inflight = 512;
  std::size_t osn_max_waiting = 512;
  /// Endorser ProcessProposal ingress.
  std::size_t endorser_max_inflight = 32;
  std::size_t endorser_max_waiting = 128;
  /// Committer validation pipeline bound in blocks (0 = unbounded).
  /// Delivered blocks are deferred, never shed — they are acked work.
  std::size_t committer_max_blocks = 8;
  /// Retry-after hint carried on SERVICE_UNAVAILABLE nacks.
  sim::SimDuration retry_after = sim::FromMillis(200);
  /// Client AIMD window + pacing. Note `flow.enabled` is its own switch so
  /// server-side bounds can be studied with and without cooperative clients.
  client::FlowControlConfig flow;
};

/// Bounded-memory retention for long soak runs. Defaults keep everything
/// (the paper's measurement regime, and what attribution/invariants need).
/// With bounds set, per-run memory stays O(retained state) instead of
/// O(total transactions) — pair with ExperimentConfig::streaming_stats for
/// flat-RSS million-transaction runs (bench/soak.cpp).
struct RetentionOptions {
  /// Blocks kept resident per peer ledger (0 = all). Shrinks the committer's
  /// duplicate-tx-id detection horizon to the retained window.
  std::uint64_t ledger_blocks = 0;
  /// Modifications kept per key by perfbench's history replay, its only
  /// reader (0 = all). Peers build key history on demand instead.
  std::size_t history_per_key = 0;
  /// Delivered blocks kept per OSN for backfill seeks (0 = all).
  std::size_t osn_history_blocks = 0;
};

/// Deliberate-bug injection for chaos-fuzzer demos and oracle self-tests.
/// Each failpoint disables one safety mechanism so the matching invariant
/// can be shown to fire. All off by default; never enable in real runs.
struct FailpointOptions {
  /// Skip committer duplicate-tx-id screening: a commit-timeout
  /// resubmission then commits twice (double-commit invariant).
  bool disable_committer_dedup = false;
  /// Every nth client submission vanishes before the wire with no terminal
  /// status (silent-drop invariant). 0 = off.
  int client_silent_drop_every = 0;
  /// Disable the Byzantine defenses — no cross-OSN attestation and no
  /// commit-time data-hash re-check — so planted attacks reach the ledger
  /// and the no-forged-commit / no-surviving-fork invariants can be shown
  /// to fire.
  bool disable_byzantine_defense = false;

  bool operator==(const FailpointOptions&) const = default;

  [[nodiscard]] bool Any() const {
    return disable_committer_dedup || client_silent_drop_every > 0 ||
           disable_byzantine_defense;
  }
};

struct NetworkOptions {
  TopologyConfig topology;
  ChannelConfig channel;
  /// Number of channels. 1 keeps `channel.id` verbatim; with n > 1 the
  /// channels are named "<channel.id>0" .. "<channel.id><n-1>".
  int channels = 1;
  Calibration calibration;
  std::uint64_t seed = 42;
  sim::NetworkConfig net;
  /// Gossip block dissemination: when enabled, only `gossip_leaders` peers
  /// subscribe to the ordering service; everyone else receives blocks via
  /// gossip push from the leaders plus periodic anti-entropy pulls. Offloads
  /// orderer egress at the cost of one extra dissemination hop.
  bool gossip = false;
  int gossip_leaders = 2;
  /// Accounts pre-seeded for the token/smallbank chaincodes (per channel).
  std::size_t seeded_accounts = 1000;
  std::int64_t seeded_balance = 1'000'000;
  /// Optional span tracer, attached to the environment before any component
  /// is built. Not owned; must outlive the network. nullptr = tracing off
  /// (zero overhead).
  obs::Tracer* tracer = nullptr;
  /// Failover/retry behaviour under faults (chaos experiments).
  RecoveryOptions recovery;
  /// Bounded queues + admission control + client flow control.
  OverloadOptions overload;
  /// Ledger/OSN retention bounds for long soak runs (defaults: keep all).
  RetentionOptions retention;
  /// Force per-tx outcome logging on every client even without recovery
  /// (the invariant checker needs it for pure-overload runs).
  bool track_outcomes = false;
  /// Arm the cross-OSN attestation defense on every subscribing peer
  /// (channels with >= 2 OSNs only; requires recovery.enabled for the
  /// deliver watchdog the quarantine path rides on). RunExperiment turns
  /// this on automatically when the fault schedule contains a Byzantine
  /// kind, so honest runs pay nothing and stay byte-identical.
  bool byzantine_defense = false;
  /// Deliberate-bug injection (chaos-fuzzer demos / oracle self-tests).
  FailpointOptions failpoints;
  /// Thakkar-style validate-phase optimization knobs (fabric/
  /// optimizations.h). All off by default — the paper's unoptimized peer.
  OptimizationOptions optimizations;
};

class FabricNetwork {
 public:
  explicit FabricNetwork(NetworkOptions options);

  FabricNetwork(const FabricNetwork&) = delete;
  FabricNetwork& operator=(const FabricNetwork&) = delete;

  /// Starts the ordering service (ZooKeeper sessions, controller election,
  /// Raft elections) and registers client event listeners.
  void Start();

  [[nodiscard]] sim::Environment& Env() { return *env_; }
  [[nodiscard]] metrics::TxTracker& Tracker() { return tracker_; }
  [[nodiscard]] const NetworkOptions& Options() const { return options_; }
  [[nodiscard]] const policy::EndorsementPolicy& Policy() const {
    return policy_;
  }

  [[nodiscard]] int ChannelCount() const { return options_.channels; }
  [[nodiscard]] std::string ChannelId(int channel) const;

  [[nodiscard]] std::vector<client::Client*> Clients();
  [[nodiscard]] std::size_t PeerCount() const { return peers_.size(); }
  [[nodiscard]] peer::PeerNode& Peer(std::size_t i) { return *peers_.at(i); }
  /// The dedicated validating peer used as the measurement point.
  [[nodiscard]] peer::PeerNode& ValidatorPeer();

  /// Ordering-service accessors; the default channel is channel 0.
  [[nodiscard]] std::size_t OsnCount() const;
  /// Network endpoints of every OSN serving `channel`, in orderer index
  /// order (Solo: one entry). For failover lists and fault targeting.
  [[nodiscard]] std::vector<sim::NodeId> OsnNetIds(int channel = 0) const;
  [[nodiscard]] ordering::SoloOrderer* Solo(int channel = 0) {
    return solos_.empty() ? nullptr
                          : solos_.at(static_cast<std::size_t>(channel)).get();
  }
  [[nodiscard]] std::vector<std::unique_ptr<ordering::RaftOrderer>>& Rafts(
      int channel = 0) {
    return raft_channels_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] std::vector<std::unique_ptr<ordering::KafkaOrderer>>&
  KafkaOsns(int channel = 0) {
    return kafka_channels_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] std::vector<std::unique_ptr<ordering::KafkaBroker>>& Brokers(
      int channel = 0) {
    return broker_channels_.at(static_cast<std::size_t>(channel));
  }
  [[nodiscard]] ordering::ZooKeeperEnsemble* ZooKeeper() { return zk_.get(); }

  /// Every OSN serving `channel` through the common OsnBase interface
  /// (admission/backfill accessors for telemetry and tests).
  [[nodiscard]] std::vector<ordering::OsnBase*> Osns(int channel = 0);

  [[nodiscard]] const crypto::MspRegistry& Msps() const { return msps_; }

 private:
  void BuildPeers();
  void BuildOrdering();
  void BuildClients();
  void SeedAccounts();
  void ApplyOverloadProtection();
  void ApplyRetention();
  void ApplyFailpoints();
  void ApplyOptimizations();
  [[nodiscard]] sim::NodeId OsnNetId(int channel, std::size_t index) const;

  NetworkOptions options_;
  std::unique_ptr<sim::Environment> env_;
  std::vector<proto::BlockPtr> genesis_;  // one per channel
  // One committed ledger per channel, shared by every peer that joins it.
  // Only construction reads it, but it is kept for the network's lifetime:
  // leaving the ledgers to the committers alone measured 0.12 MB more peak
  // RSS on perfbench's and5-kafka (cause not traced).
  std::vector<std::shared_ptr<peer::ChannelState>> ledgers_;
  metrics::TxTracker tracker_;
  crypto::MspRegistry msps_;
  std::shared_ptr<chaincode::Registry> chaincodes_;
  policy::EndorsementPolicy policy_;

  std::vector<std::unique_ptr<peer::PeerNode>> peers_;  // endorsing first
  int endorsing_count_ = 0;

  // Shared machines for orderer-side roles (instances per channel).
  std::vector<sim::Machine*> orderer_machines_;
  std::vector<sim::Machine*> broker_machines_;

  // Indexed [channel][instance].
  std::vector<std::unique_ptr<ordering::SoloOrderer>> solos_;
  std::vector<std::vector<std::unique_ptr<ordering::RaftOrderer>>>
      raft_channels_;
  std::unique_ptr<ordering::ZooKeeperEnsemble> zk_;
  std::vector<std::vector<std::unique_ptr<ordering::KafkaBroker>>>
      broker_channels_;
  std::vector<std::vector<std::unique_ptr<ordering::KafkaOrderer>>>
      kafka_channels_;

  std::vector<std::unique_ptr<client::Client>> clients_;
};

}  // namespace fabricsim::fabric
