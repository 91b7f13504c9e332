// Kafka broker model: a single-partition topic (Fabric uses one partition
// per channel, §III of the paper) with leader/follower replication.
//
// - The controller (and partition leader) is elected through ZooKeeper: each
//   broker races to create the ephemeral "/controller" znode; the winner
//   leads, losers watch it. When the leader's ZK session expires, the watch
//   fires and the survivors race again — the Kafka failover story the paper
//   summarizes.
// - The partition's ISR is the replication-factor-sized broker set; a
//   produced record is committed (visible to consumers / acked to the
//   producer) once every ISR follower has acknowledged it, matching the
//   paper's description of in-sync-replica commit.
// - Consumers (the OSNs) long-poll fetch from the committed prefix.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "fabric/calibration.h"
#include "ordering/messages.h"
#include "ordering/zookeeper.h"
#include "sim/machine.h"

namespace fabricsim::ordering {

struct KafkaConfig {
  int replication_factor = 3;  // the paper's default
  sim::SimDuration zk_heartbeat = sim::FromSeconds(2);
  std::size_t max_fetch_records = 256;
  /// A follower that stays behind and silent for this long is dropped from
  /// the in-sync replica set (Kafka's replica.lag.time.max.ms).
  sim::SimDuration isr_lag_limit = sim::FromSeconds(6);
};

class KafkaBroker {
 public:
  /// One KafkaBroker instance hosts one partition (= one channel / topic;
  /// the paper's §III). Multi-channel deployments place one instance per
  /// channel on each broker Machine.
  KafkaBroker(sim::Environment& env, sim::Machine& machine,
              const fabric::Calibration& cal, KafkaConfig config, int index,
              std::vector<sim::NodeId> zk_ids,
              std::string topic = "mychannel");

  /// All brokers of the cluster, in index order (includes self).
  void SetPeers(std::vector<sim::NodeId> brokers);

  /// Begins the ZK session and the controller race.
  void Start();

  [[nodiscard]] sim::NodeId NetId() const { return net_id_; }

  /// The machine hosting this node (its scheduler lane owns all the
  /// node's timers and deliveries).
  [[nodiscard]] sim::Machine& Host() { return machine_; }
  [[nodiscard]] bool IsPartitionLeader() const { return is_leader_; }
  [[nodiscard]] std::uint64_t LogEnd() const { return log_.size(); }
  [[nodiscard]] std::uint64_t HighWatermark() const { return high_watermark_; }
  /// Leader-side ISR size including self (followers currently in sync).
  [[nodiscard]] std::size_t IsrSize() const {
    return follower_log_end_.size() + 1;
  }
  /// Followers dropped from the ISR that the leader is still catching up.
  [[nodiscard]] std::size_t CatchingUp() const {
    return catchup_log_end_.size();
  }

 private:
  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg);
  void SendZk(ZkOp op, const std::string& path, const std::string& data,
              std::function<void(const ZkResponseMsg&)> on_reply);
  void HeartbeatTick();
  void TryBecomeController();
  void OnBecameLeader();
  void HandleProduce(sim::NodeId from, const KafkaProduceMsg& m);
  void HandleFetch(sim::NodeId from, const KafkaFetchMsg& m);
  void ReplicateToFollowers();
  void MaybeAdvanceHighWatermark();
  void AnswerPendingFetches();
  void IsrMaintenanceTick();
  [[nodiscard]] std::vector<sim::NodeId> IsrFollowers() const;

  sim::Environment& env_;
  sim::Machine& machine_;
  const fabric::Calibration& cal_;
  KafkaConfig config_;
  int index_;
  std::string topic_;
  sim::NodeId net_id_ = sim::kInvalidNode;
  std::vector<sim::NodeId> zk_ids_;
  std::vector<sim::NodeId> brokers_;

  bool is_leader_ = false;
  bool controller_race_in_flight_ = false;

  // Partition log (leader and followers).
  std::vector<KafkaRecord> log_;
  std::uint64_t high_watermark_ = 0;

  // Leader-side replication progress: follower -> acked log end.
  std::map<sim::NodeId, std::uint64_t> follower_log_end_;
  // Followers dropped from the ISR (crashed/partitioned) that the leader
  // keeps replicating to; once one acks the full log it re-enters the ISR
  // (Kafka's shrink/re-expand cycle on broker revive).
  std::map<sim::NodeId, std::uint64_t> catchup_log_end_;
  // Leader-side liveness: follower -> last ack time (for ISR shrinking).
  std::map<sim::NodeId, sim::SimTime> follower_last_ack_;
  // One replication batch in flight per follower (pipelined, not resent on
  // every produce — resending the whole unacked window per record would be
  // quadratic traffic). A lost batch is recovered by the retry tick.
  std::map<sim::NodeId, bool> replication_in_flight_;
  // Producer acks owed: offset -> producer node.
  std::multimap<std::uint64_t, sim::NodeId> pending_produce_acks_;
  // Long-poll fetches: consumer -> wanted offset.
  std::map<sim::NodeId, std::uint64_t> pending_fetches_;

  std::uint64_t next_zk_request_ = 1;
  std::map<std::uint64_t, std::function<void(const ZkResponseMsg&)>>
      zk_callbacks_;
};

}  // namespace fabricsim::ordering
