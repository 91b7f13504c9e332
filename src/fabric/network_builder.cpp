#include "fabric/network_builder.h"

#include <algorithm>

namespace fabricsim::fabric {
namespace {

// Client budgets with RecoveryOptions on: rotate orderers on up to 3 silent
// broadcast timeouts and 5 nacks, resubmit an acked envelope whose commit
// event has not arrived after 8 s up to twice (the committer's tx-id dedup
// makes this safe), and retry endorsement once against the survivors.
constexpr int kRecoveryTimeoutRetries = 3;
constexpr int kRecoveryNackRetries = 5;
constexpr sim::SimDuration kRecoveryCommitTimeout = sim::FromSeconds(8);
constexpr int kRecoveryCommitRetries = 2;
constexpr int kRecoveryEndorseRetries = 1;

}  // namespace

FabricNetwork::FabricNetwork(NetworkOptions options)
    : options_(std::move(options)),
      env_(std::make_unique<sim::Environment>(options_.seed, options_.net)),
      chaincodes_(std::make_shared<chaincode::Registry>()),
      policy_(ResolvePolicy(options_.channel,
                            options_.topology.endorsing_peers)) {
  if (options_.channels < 1) options_.channels = 1;
  env_->SetTracer(options_.tracer);

  chaincodes_->Install(std::make_shared<chaincode::KvWriteChaincode>());
  chaincodes_->Install(std::make_shared<chaincode::TokenChaincode>());
  chaincodes_->Install(std::make_shared<chaincode::SmallBankChaincode>());

  // Organizations: one per endorsing peer (so ANDx can demand x distinct
  // peers), one for committing peers, one for clients, one for orderers.
  for (int i = 1; i <= options_.topology.endorsing_peers; ++i) {
    msps_.AddOrganization(PeerOrgMsp(i));
  }
  msps_.AddOrganization("CommitOrgMSP");
  msps_.AddOrganization("ClientOrgMSP");
  msps_.AddOrganization("OrdererMSP");

  // Per-channel genesis blocks (block 0): carry the channel configuration
  // in Fabric; here they anchor the hash chains so user blocks start at 1
  // and genesis-seeded state versions ({0,0}) never collide with
  // transactions.
  for (int c = 0; c < options_.channels; ++c) {
    proto::TransactionEnvelope config_tx;
    config_tx.channel_id = ChannelId(c);
    config_tx.tx_id = "genesis:" + ChannelId(c);
    config_tx.chaincode_result = proto::ToBytes(policy_.ToString());
    genesis_.push_back(std::make_shared<proto::Block>(
        proto::Block::Make(0, nullptr, {std::move(config_tx)})));
  }

  BuildLedgers();
  BuildPeers();
  BuildOrdering();
  BuildClients();
  ApplyOverloadProtection();
  ApplyRetention();
}

void FabricNetwork::ApplyRetention() {
  const std::size_t keep = options_.retention.osn_history_blocks;
  if (keep == 0) return;
  for (int c = 0; c < ChannelCount(); ++c) {
    for (ordering::OsnBase* osn : Osns(c)) osn->SetHistoryBlocks(keep);
  }
}

std::string FabricNetwork::ChannelId(int channel) const {
  if (options_.channels == 1) return options_.channel.id;
  return options_.channel.id + std::to_string(channel);
}

void FabricNetwork::BuildPeers() {
  const auto& topo = options_.topology;
  endorsing_count_ = topo.endorsing_peers;

  // Every committer's settings, fixed when it is built.
  peer::CommitterConfig committer;
  if (options_.overload.enabled) {
    committer.max_pipeline_blocks = options_.overload.committer_max_blocks;
  }
  committer.optimizations = options_.optimizations;
  committer.dedup_disabled = options_.failpoints.disable_committer_dedup;
  // Attestation is suppressed at Start(); the failpoint also drops the
  // committer's commit-time data-hash re-check so a tampered block reaches
  // the ledger and the no-forged-commit invariant can be shown to fire.
  committer.data_hash_check_disabled =
      options_.failpoints.disable_byzantine_defense;

  auto setup_channels = [this](peer::PeerNode& peer) {
    for (int c = 0; c < options_.channels; ++c) {
      const std::string id = ChannelId(c);
      peer.JoinChannel(id, ledgers_[static_cast<std::size_t>(c)]);
      peer.SetPolicy(id, "kvwrite", policy_);
      peer.SetPolicy(id, "token", policy_);
      peer.SetPolicy(id, "smallbank", policy_);
    }
  };

  for (int i = 0; i < topo.endorsing_peers; ++i) {
    auto& machine = env_->AddMachine("peer-machine" + std::to_string(i),
                                     ProfileForPeer());
    const auto* ca = msps_.Find(PeerOrgMsp(i + 1));
    auto identity = ca->Enroll("peer0." + PeerOrgMsp(i + 1),
                               crypto::Role::kPeer);
    // Construct under the machine's lane so the peer's network endpoint
    // (and any setup timers) land on its logical process.
    sim::Scheduler::LaneScope scope(env_->Sched(), machine.Lane());
    peers_.push_back(std::make_unique<peer::PeerNode>(
        *env_, machine, std::move(identity), msps_, chaincodes_,
        options_.calibration, ChannelId(0), ledgers_.front(), committer,
        /*tracker=*/nullptr, /*endorsing=*/true, i));
    setup_channels(*peers_.back());
  }
  for (int i = 0; i < topo.committing_peers; ++i) {
    auto& machine = env_->AddMachine(
        "validator-machine" + std::to_string(i), ProfileForPeer());
    const auto* ca = msps_.Find("CommitOrgMSP");
    auto identity =
        ca->Enroll("validator" + std::to_string(i), crypto::Role::kPeer);
    // The first committing peer is the measurement point.
    metrics::TxTracker* tracker = (i == 0) ? &tracker_ : nullptr;
    sim::Scheduler::LaneScope scope(env_->Sched(), machine.Lane());
    peers_.push_back(std::make_unique<peer::PeerNode>(
        *env_, machine, std::move(identity), msps_, chaincodes_,
        options_.calibration, ChannelId(0), ledgers_.front(), committer,
        tracker, /*endorsing=*/false, endorsing_count_ + i));
    setup_channels(*peers_.back());
  }
  // Genesis goes in once every peer's committer is built on its channel,
  // so the verdict the first peer records for it is still held when the
  // last one follows it.
  for (auto& p : peers_) {
    for (int c = 0; c < options_.channels; ++c) {
      p->GetCommitter(ChannelId(c))
          .InstallGenesis(genesis_[static_cast<std::size_t>(c)]);
    }
  }
}

peer::PeerNode& FabricNetwork::ValidatorPeer() {
  return *peers_.at(static_cast<std::size_t>(endorsing_count_));
}

void FabricNetwork::BuildOrdering() {
  const auto& topo = options_.topology;
  const auto* orderer_ca = msps_.Find("OrdererMSP");

  // Machines are created once and shared by all channels' instances.
  for (int i = 0; i < topo.EffectiveOsns(); ++i) {
    orderer_machines_.push_back(&env_->AddMachine(
        "orderer-machine" + std::to_string(i), ProfileForOrderer()));
  }
  if (topo.ordering == OrderingType::kKafka) {
    // The ZooKeeper ensemble forms one logical process: the replicas
    // exchange quorum traffic constantly, so co-locating them on one lane
    // keeps that chatter intra-lane (zero mailbox traffic) without
    // affecting the simulated outcome.
    std::vector<sim::Machine*> zk_machines;
    for (int i = 0; i < topo.zookeepers; ++i) {
      zk_machines.push_back(&env_->AddMachine(
          "zk-machine" + std::to_string(i), ProfileForZooKeeper(),
          i == 0 ? -1 : zk_machines[0]->Lane()));
    }
    sim::Scheduler::LaneScope zk_scope(
        env_->Sched(), zk_machines.empty() ? sim::Scheduler::kGlobalLane
                                           : zk_machines[0]->Lane());
    zk_ = std::make_unique<ordering::ZooKeeperEnsemble>(
        *env_, options_.calibration, zk_machines);
    for (int i = 0; i < topo.kafka_brokers; ++i) {
      broker_machines_.push_back(&env_->AddMachine(
          "broker-machine" + std::to_string(i), ProfileForBroker()));
    }
  }

  for (int c = 0; c < options_.channels; ++c) {
    const std::string channel_id = ChannelId(c);
    metrics::TxTracker* tracker = &tracker_;  // instance 0 of each channel

    switch (topo.ordering) {
      case OrderingType::kSolo: {
        sim::Scheduler::LaneScope scope(env_->Sched(),
                                        orderer_machines_[0]->Lane());
        solos_.push_back(std::make_unique<ordering::SoloOrderer>(
            *env_, *orderer_machines_[0],
            orderer_ca->Enroll("orderer0." + channel_id,
                               crypto::Role::kOrderer),
            options_.calibration, options_.channel.batch, tracker,
            channel_id));
        solos_.back()->SetGenesis(*genesis_[static_cast<std::size_t>(c)]);
        break;
      }
      case OrderingType::kRaft: {
        std::vector<std::unique_ptr<ordering::RaftOrderer>> group;
        for (int i = 0; i < topo.EffectiveOsns(); ++i) {
          sim::Scheduler::LaneScope scope(
              env_->Sched(),
              orderer_machines_[static_cast<std::size_t>(i)]->Lane());
          group.push_back(std::make_unique<ordering::RaftOrderer>(
              *env_, *orderer_machines_[static_cast<std::size_t>(i)],
              orderer_ca->Enroll(
                  "orderer" + std::to_string(i) + "." + channel_id,
                  crypto::Role::kOrderer),
              options_.calibration, options_.channel.batch,
              i == 0 ? tracker : nullptr, i, channel_id));
          group.back()->SetGenesis(*genesis_[static_cast<std::size_t>(c)]);
        }
        std::vector<sim::NodeId> ids;
        for (auto& o : group) ids.push_back(o->NetId());
        for (auto& o : group) o->SetGroup(ids);
        raft_channels_.push_back(std::move(group));
        break;
      }
      case OrderingType::kKafka: {
        ordering::KafkaConfig kcfg;
        kcfg.replication_factor = topo.kafka_replication_factor;
        std::vector<std::unique_ptr<ordering::KafkaBroker>> brokers;
        for (int i = 0; i < topo.kafka_brokers; ++i) {
          sim::Scheduler::LaneScope scope(
              env_->Sched(),
              broker_machines_[static_cast<std::size_t>(i)]->Lane());
          brokers.push_back(std::make_unique<ordering::KafkaBroker>(
              *env_, *broker_machines_[static_cast<std::size_t>(i)],
              options_.calibration, kcfg, i, zk_->NetIds(), channel_id));
        }
        std::vector<sim::NodeId> broker_ids;
        for (auto& b : brokers) broker_ids.push_back(b->NetId());
        for (auto& b : brokers) b->SetPeers(broker_ids);
        broker_channels_.push_back(std::move(brokers));

        std::vector<std::unique_ptr<ordering::KafkaOrderer>> osns;
        for (int i = 0; i < topo.EffectiveOsns(); ++i) {
          sim::Scheduler::LaneScope scope(
              env_->Sched(),
              orderer_machines_[static_cast<std::size_t>(i)]->Lane());
          osns.push_back(std::make_unique<ordering::KafkaOrderer>(
              *env_, *orderer_machines_[static_cast<std::size_t>(i)],
              orderer_ca->Enroll(
                  "orderer" + std::to_string(i) + "." + channel_id,
                  crypto::Role::kOrderer),
              options_.calibration, options_.channel.batch,
              i == 0 ? tracker : nullptr, i, zk_->NetIds(), channel_id));
          osns.back()->SetGenesis(*genesis_[static_cast<std::size_t>(c)]);
        }
        kafka_channels_.push_back(std::move(osns));
        break;
      }
    }

    // Peers subscribe to one OSN of this channel, round-robin. With gossip
    // enabled, only the leader peers subscribe; the rest receive blocks
    // through the gossip layer.
    const std::size_t osn_count =
        static_cast<std::size_t>(topo.EffectiveOsns());
    const std::size_t subscribers =
        options_.gossip ? std::min<std::size_t>(
                              static_cast<std::size_t>(options_.gossip_leaders),
                              peers_.size())
                        : peers_.size();
    for (std::size_t i = 0; i < subscribers; ++i) {
      const std::size_t osn = i % osn_count;
      switch (topo.ordering) {
        case OrderingType::kSolo:
          solos_.back()->SubscribePeer(peers_[i]->NetId());
          break;
        case OrderingType::kRaft:
          raft_channels_.back()[osn]->SubscribePeer(peers_[i]->NetId());
          break;
        case OrderingType::kKafka:
          kafka_channels_.back()[osn]->SubscribePeer(peers_[i]->NetId());
          break;
      }
    }
  }

  if (options_.gossip) {
    const auto leaders = std::min<std::size_t>(
        static_cast<std::size_t>(options_.gossip_leaders), peers_.size());
    // Each non-leader is pushed to by exactly one leader (blocks traverse
    // the wire once per peer, as with direct delivery); anti-entropy pulls
    // may go to any leader, covering a push leader's outage.
    for (std::size_t j = leaders; j < peers_.size(); ++j) {
      const std::size_t owner = (j - leaders) % leaders;
      peers_[owner]->AddGossipPeer(peers_[j]->NetId());
      for (std::size_t l = 0; l < leaders; ++l) {
        peers_[j]->AddGossipPullTarget(peers_[l]->NetId());
      }
    }
  }
}

std::size_t FabricNetwork::OsnCount() const {
  return static_cast<std::size_t>(options_.topology.EffectiveOsns());
}

std::vector<sim::NodeId> FabricNetwork::OsnNetIds(int channel) const {
  std::vector<sim::NodeId> out;
  out.reserve(OsnCount());
  for (std::size_t i = 0; i < OsnCount(); ++i) {
    out.push_back(OsnNetId(channel, i));
  }
  return out;
}

sim::NodeId FabricNetwork::OsnNetId(int channel, std::size_t index) const {
  const auto c = static_cast<std::size_t>(channel);
  switch (options_.topology.ordering) {
    case OrderingType::kSolo:
      return solos_.at(c)->NetId();
    case OrderingType::kRaft:
      return raft_channels_.at(c)[index % raft_channels_.at(c).size()]
          ->NetId();
    case OrderingType::kKafka:
      return kafka_channels_.at(c)[index % kafka_channels_.at(c).size()]
          ->NetId();
  }
  return sim::kInvalidNode;
}

void FabricNetwork::BuildClients() {
  const auto* ca = msps_.Find("ClientOrgMSP");
  const int n = options_.topology.EffectiveClients();

  std::vector<sim::NodeId> endorser_ids;
  std::vector<crypto::Principal> endorser_principals;
  for (int i = 0; i < endorsing_count_; ++i) {
    endorser_ids.push_back(peers_[static_cast<std::size_t>(i)]->NetId());
    endorser_principals.push_back(
        peers_[static_cast<std::size_t>(i)]->PrincipalOf());
  }

  for (int i = 0; i < n; ++i) {
    auto& machine = env_->AddMachine("client-machine" + std::to_string(i),
                                     ProfileForClient());
    sim::Scheduler::LaneScope scope(env_->Sched(), machine.Lane());
    auto identity =
        ca->Enroll("app" + std::to_string(i), crypto::Role::kClient);
    const int channel = i % options_.channels;
    client::ClientConfig config;
    config.channel_id = ChannelId(channel);
    const bool recovery = options_.recovery.enabled;
    if (recovery) {
      config.broadcast_timeout_retries = kRecoveryTimeoutRetries;
      config.broadcast_retries = kRecoveryNackRetries;
      config.commit_timeout = kRecoveryCommitTimeout;
      config.commit_retries = kRecoveryCommitRetries;
      config.endorse_retries = kRecoveryEndorseRetries;
      config.track_outcomes = true;
    }
    if (options_.track_outcomes) config.track_outcomes = true;
    config.silent_drop_every = options_.failpoints.client_silent_drop_every;
    if (options_.overload.enabled) config.flow = options_.overload.flow;
    auto c = std::make_unique<client::Client>(
        *env_, machine, std::move(identity), options_.calibration,
        std::move(config), policy_, &tracker_, i);
    c->SetEndorsers(endorser_ids, endorser_principals);
    if (recovery || options_.overload.enabled) {
      // The full endpoint list: broadcasts start at this client's usual OSN
      // and rotate through the rest on failure or overload nacks.
      c->SetOrderers(OsnNetIds(channel), static_cast<std::size_t>(i));
    } else {
      c->SetOrderer(OsnNetId(channel, static_cast<std::size_t>(i)));
    }
    clients_.push_back(std::move(c));
  }
}

std::vector<ordering::OsnBase*> FabricNetwork::Osns(int channel) {
  std::vector<ordering::OsnBase*> out;
  const auto c = static_cast<std::size_t>(channel);
  switch (options_.topology.ordering) {
    case OrderingType::kSolo:
      out.push_back(solos_.at(c).get());
      break;
    case OrderingType::kRaft:
      for (auto& o : raft_channels_.at(c)) out.push_back(o.get());
      break;
    case OrderingType::kKafka:
      for (auto& o : kafka_channels_.at(c)) out.push_back(o.get());
      break;
  }
  return out;
}

void FabricNetwork::ApplyOverloadProtection() {
  const OverloadOptions& ov = options_.overload;
  if (!ov.enabled) return;

  sim::AdmissionConfig osn_cfg;
  osn_cfg.enabled = true;
  osn_cfg.policy = ov.policy;
  osn_cfg.max_inflight = ov.osn_max_inflight;
  osn_cfg.max_waiting = ov.osn_max_inflight;

  sim::AdmissionConfig endorse_cfg;
  endorse_cfg.enabled = true;
  endorse_cfg.policy = ov.policy;
  endorse_cfg.max_inflight = ov.endorser_max_inflight;
  endorse_cfg.max_waiting = ov.endorser_max_inflight * 4;

  for (int c = 0; c < options_.channels; ++c) {
    for (ordering::OsnBase* osn : Osns(c)) {
      osn->SetAdmission(osn_cfg, ov.retry_after);
    }
  }
  for (auto& p : peers_) {
    if (p->IsEndorsing()) p->SetEndorseAdmission(endorse_cfg, ov.retry_after);
  }
}

void FabricNetwork::BuildLedgers() {
  // One world state and block log per channel, shared by every peer that
  // joins it: each honest peer would hold an identical copy (see
  // peer::ChannelState). The accounts are seeded before any committer is
  // built, so a committer that starts on a private copy holds them too.
  const proto::Bytes balance =
      proto::ToBytes(std::to_string(options_.seeded_balance));
  const proto::KeyVersion genesis{0, 0};
  for (int c = 0; c < options_.channels; ++c) {
    ledgers_.push_back(
        std::make_shared<peer::ChannelState>(options_.retention.ledger_blocks));
    ledger::StateDb& state = ledgers_.back()->state;
    for (std::size_t a = 0; a < options_.seeded_accounts; ++a) {
      const std::string acct = "acct" + std::to_string(a);
      state.Put("token", acct, balance, genesis);
      state.Put("smallbank", chaincode::SmallBankChaincode::CheckingKey(acct),
                balance, genesis);
      state.Put("smallbank", chaincode::SmallBankChaincode::SavingsKey(acct),
                balance, genesis);
    }
  }
}

void FabricNetwork::Start() {
  // Every Start() below schedules that component's initial timers; the
  // LaneScope pins them (and everything they transitively spawn) to the
  // owning machine's logical process.
  sim::Scheduler& sched = env_->Sched();
  if (zk_ != nullptr) {
    sim::Scheduler::LaneScope scope(sched, zk_->Server(0).Host().Lane());
    zk_->Start();
  }
  for (auto& channel : broker_channels_) {
    for (auto& b : channel) {
      sim::Scheduler::LaneScope scope(sched, b->Host().Lane());
      b->Start();
    }
  }
  for (auto& channel : kafka_channels_) {
    for (auto& o : channel) {
      sim::Scheduler::LaneScope scope(sched, o->Host().Lane());
      o->Start();
    }
  }
  for (auto& channel : raft_channels_) {
    for (auto& o : channel) {
      sim::Scheduler::LaneScope scope(sched, o->Host().Lane());
      o->Start();
    }
  }

  if (options_.gossip) {
    for (auto& p : peers_) {
      sim::Scheduler::LaneScope scope(sched, p->Host().Lane());
      p->StartGossip();
    }
  }

  // Clients listen for commit events on the validating peer.
  for (auto& c : clients_) {
    sim::Scheduler::LaneScope scope(sched, c->Host().Lane());
    c->SetEventSource(ValidatorPeer().NetId());
  }

  // Deliver-stream failover: each subscribed peer watches its OSN and
  // re-subscribes to an alternate when it dies (with one OSN the rotation
  // re-subscribes to the same node, which still repairs deliver gaps and
  // catches the peer up after the OSN revives).
  if (options_.recovery.enabled && OsnCount() >= 1) {
    const std::size_t subscribers =
        options_.gossip
            ? std::min<std::size_t>(
                  static_cast<std::size_t>(options_.gossip_leaders),
                  peers_.size())
            : peers_.size();
    for (int c = 0; c < options_.channels; ++c) {
      const std::vector<sim::NodeId> osns = OsnNetIds(c);
      for (std::size_t i = 0; i < subscribers; ++i) {
        sim::Scheduler::LaneScope scope(sched, peers_[i]->Host().Lane());
        peers_[i]->EnableDeliverFailover(ChannelId(c), osns, i % osns.size());
        // Cross-OSN attestation rides on the watchdog's OSN list; it only
        // arms on channels with a second OSN to ask (PeerNode enforces
        // that), and the failpoint keeps it off for oracle self-tests.
        if (options_.byzantine_defense &&
            !options_.failpoints.disable_byzantine_defense) {
          peers_[i]->EnableByzantineDefense(ChannelId(c));
        }
      }
    }
  }
}

std::vector<client::Client*> FabricNetwork::Clients() {
  std::vector<client::Client*> out;
  out.reserve(clients_.size());
  for (auto& c : clients_) out.push_back(c.get());
  return out;
}

}  // namespace fabricsim::fabric
