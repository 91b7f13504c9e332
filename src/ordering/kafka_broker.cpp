#include "ordering/kafka_broker.h"

#include <algorithm>

namespace fabricsim::ordering {
namespace {

// A broker renews its ZooKeeper session every kZkHeartbeat.
constexpr sim::SimDuration kZkHeartbeat = sim::FromSeconds(2);
// One fetch or replication batch carries at most this many records.
constexpr std::size_t kMaxFetchRecords = 256;
// A follower that stays behind and silent for this long is dropped from the
// in-sync replica set (Kafka's replica.lag.time.max.ms).
constexpr sim::SimDuration kIsrLagLimit = sim::FromSeconds(6);

}  // namespace

KafkaBroker::KafkaBroker(sim::Environment& env, sim::Machine& machine,
                         const fabric::Calibration& cal, KafkaConfig config,
                         int index, std::vector<sim::NodeId> zk_ids,
                         std::string topic)
    : env_(env),
      machine_(machine),
      cal_(cal),
      config_(config),
      topic_(std::move(topic)),
      zk_ids_(std::move(zk_ids)) {
  net_id_ = env_.Net().Register(
      "kafka-broker" + std::to_string(index) + "/" + topic_,
      [this](sim::NodeId from, sim::MessagePtr msg) {
        OnMessage(from, std::move(msg));
      });
}

void KafkaBroker::SetPeers(std::vector<sim::NodeId> brokers) {
  brokers_ = std::move(brokers);
}

void KafkaBroker::Start() {
  HeartbeatTick();
  TryBecomeController();
}

void KafkaBroker::SendZk(ZkOp op, const std::string& path,
                         const std::string& data,
                         std::function<void(const ZkResponseMsg&)> on_reply) {
  auto req = std::make_shared<ZkRequestMsg>();
  req->op = op;
  req->path = path;
  req->data = data;
  req->session_id = static_cast<std::uint64_t>(net_id_) + 1;
  req->request_id = next_zk_request_++;
  if (on_reply) zk_callbacks_[req->request_id] = std::move(on_reply);
  // Clients talk to the ensemble leader (first server).
  env_.Net().Send(net_id_, zk_ids_.front(), req);
}

void KafkaBroker::HeartbeatTick() {
  SendZk(ZkOp::kHeartbeat, "", "", nullptr);
  env_.Sched().ScheduleAfter(kZkHeartbeat, [this] { HeartbeatTick(); },
                             "kafka_broker/zk_heartbeat");
}

void KafkaBroker::TryBecomeController() {
  if (is_leader_ || controller_race_in_flight_) return;
  controller_race_in_flight_ = true;
  SendZk(ZkOp::kCreateEphemeral, "/controller/" + topic_,
         std::to_string(net_id_),
         [this](const ZkResponseMsg& resp) {
           controller_race_in_flight_ = false;
           if (resp.ok) {
             OnBecameLeader();
           }
           // If not ok, the ZK server registered a deletion watch for us;
           // we re-race when the watch event arrives.
         });
}

void KafkaBroker::OnBecameLeader() {
  is_leader_ = true;
  follower_log_end_.clear();
  follower_last_ack_.clear();
  catchup_log_end_.clear();
  for (sim::NodeId f : IsrFollowers()) {
    follower_log_end_[f] = 0;
    follower_last_ack_[f] = env_.Now();
  }
  // Sync followers from the beginning of what they miss; followers tell us
  // their progress via acks, so start by (re)sending everything committed
  // and beyond.
  ReplicateToFollowers();
  IsrMaintenanceTick();
}

void KafkaBroker::IsrMaintenanceTick() {
  if (!is_leader_) return;
  // Shrink the ISR: drop followers that are behind and have been silent
  // past the lag limit (a crashed broker must not hold back the high
  // watermark forever — Kafka's replica.lag.time.max.ms behaviour).
  bool shrunk = false;
  bool retry = false;
  for (auto it = follower_log_end_.begin(); it != follower_log_end_.end();) {
    const bool behind = it->second < log_.size();
    const sim::SimDuration silence =
        env_.Now() - follower_last_ack_[it->first];
    if (behind && silence > kIsrLagLimit) {
      // Keep replicating to the dropped follower so it can catch up and
      // re-enter the ISR once it revives.
      catchup_log_end_[it->first] = it->second;
      follower_last_ack_.erase(it->first);
      replication_in_flight_.erase(it->first);
      it = follower_log_end_.erase(it);
      shrunk = true;
      continue;
    }
    if (behind && silence > sim::FromSeconds(2)) {
      // The in-flight batch (or its ack) was probably lost: resend.
      replication_in_flight_[it->first] = false;
      retry = true;
    }
    ++it;
  }
  // Catch-up followers get their batch re-offered every tick: sends to a
  // still-crashed broker vanish, and duplicates are harmless (followers
  // append only the record at their log end).
  for (auto& [follower, acked] : catchup_log_end_) {
    if (acked < log_.size()) {
      replication_in_flight_[follower] = false;
      retry = true;
    }
  }
  if (shrunk) MaybeAdvanceHighWatermark();
  if (retry) ReplicateToFollowers();
  env_.Sched().ScheduleAfter(sim::FromSeconds(2),
                             [this] { IsrMaintenanceTick(); },
                             "kafka_broker/isr_tick");
}

std::vector<sim::NodeId> KafkaBroker::IsrFollowers() const {
  // ISR = the replication_factor brokers starting at this broker's slot,
  // wrapping around the cluster, excluding self.
  std::vector<sim::NodeId> out;
  if (brokers_.empty()) return out;
  const auto self_slot = static_cast<std::size_t>(
      std::find(brokers_.begin(), brokers_.end(), net_id_) - brokers_.begin());
  const int rf = std::min<int>(config_.replication_factor,
                               static_cast<int>(brokers_.size()));
  for (int i = 1; i < rf; ++i) {
    out.push_back(brokers_[(self_slot + static_cast<std::size_t>(i)) %
                           brokers_.size()]);
  }
  return out;
}

void KafkaBroker::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (auto resp = std::dynamic_pointer_cast<const ZkResponseMsg>(msg)) {
    auto it = zk_callbacks_.find(resp->request_id);
    if (it != zk_callbacks_.end()) {
      auto cb = std::move(it->second);
      zk_callbacks_.erase(it);
      cb(*resp);
    }
    return;
  }
  if (std::dynamic_pointer_cast<const ZkWatchEventMsg>(msg)) {
    // The controller znode vanished: race to take over.
    TryBecomeController();
    return;
  }
  if (auto produce = std::dynamic_pointer_cast<const KafkaProduceMsg>(msg)) {
    machine_.GetCpu().Submit(cal_.broker_append_cpu, [this, from, produce] {
      HandleProduce(from, *produce);
    });
    return;
  }
  if (auto fetch = std::dynamic_pointer_cast<const KafkaFetchMsg>(msg)) {
    HandleFetch(from, *fetch);
    return;
  }
  if (auto rep = std::dynamic_pointer_cast<const KafkaReplicateMsg>(msg)) {
    // Follower: append records we don't have yet, in offset order.
    machine_.GetCpu().Submit(cal_.broker_append_cpu, [this, from, rep] {
      for (const auto& rec : rep->records) {
        if (rec.offset == log_.size()) {
          log_.push_back(rec);
        }
      }
      if (rep->high_watermark > high_watermark_) {
        high_watermark_ =
            std::min<std::uint64_t>(rep->high_watermark, log_.size());
      }
      auto ack = std::make_shared<KafkaReplicateAckMsg>();
      ack->log_end = log_.size();
      env_.Net().Send(net_id_, from, ack);
    });
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<const KafkaReplicateAckMsg>(msg)) {
    if (!is_leader_) return;
    auto it = follower_log_end_.find(from);
    if (it == follower_log_end_.end()) {
      // An out-of-ISR follower catching back up.
      auto cit = catchup_log_end_.find(from);
      if (cit == catchup_log_end_.end()) return;
      replication_in_flight_[from] = false;
      if (ack->log_end > cit->second) cit->second = ack->log_end;
      if (cit->second >= log_.size()) {
        // Fully caught up: re-expand the ISR.
        follower_log_end_[from] = cit->second;
        follower_last_ack_[from] = env_.Now();
        catchup_log_end_.erase(cit);
      } else {
        ReplicateToFollowers();
      }
      return;
    }
    follower_last_ack_[from] = env_.Now();
    replication_in_flight_[from] = false;
    if (ack->log_end > it->second) it->second = ack->log_end;
    MaybeAdvanceHighWatermark();
    // Keep streaming if the follower is behind.
    if (it->second < log_.size()) ReplicateToFollowers();
    return;
  }
}

void KafkaBroker::HandleProduce(sim::NodeId from, const KafkaProduceMsg& m) {
  if (!is_leader_) {
    // Not the partition leader: nack with offset 0 so the producer can
    // rediscover the leader via ZooKeeper and retry.
    auto nack = std::make_shared<KafkaProduceAckMsg>();
    nack->ok = false;
    env_.Net().Send(net_id_, from, nack);
    return;
  }
  KafkaRecord rec = m.record;
  rec.offset = log_.size();
  log_.push_back(std::move(rec));
  pending_produce_acks_.emplace(log_.size() - 1, from);
  if (IsrFollowers().empty()) {
    MaybeAdvanceHighWatermark();
  } else {
    ReplicateToFollowers();
  }
}

void KafkaBroker::ReplicateToFollowers() {
  auto stream_to = [this](sim::NodeId follower, std::uint64_t acked) {
    if (acked >= log_.size()) return;
    if (replication_in_flight_[follower]) return;  // pipelined: one batch
    replication_in_flight_[follower] = true;
    auto rep = std::make_shared<KafkaReplicateMsg>();
    rep->high_watermark = high_watermark_;
    const std::uint64_t end =
        std::min<std::uint64_t>(log_.size(), acked + kMaxFetchRecords);
    for (std::uint64_t i = acked; i < end; ++i) {
      rep->records.push_back(log_[i]);
    }
    env_.Net().Send(net_id_, follower, rep);
  };
  for (auto& [follower, acked] : follower_log_end_) stream_to(follower, acked);
  for (auto& [follower, acked] : catchup_log_end_) stream_to(follower, acked);
}

void KafkaBroker::MaybeAdvanceHighWatermark() {
  // Committed = replicated to ALL in-sync replicas (paper §III).
  std::uint64_t hw = log_.size();
  for (const auto& [follower, acked] : follower_log_end_) {
    (void)follower;
    hw = std::min(hw, acked);
  }
  if (hw <= high_watermark_) return;
  high_watermark_ = hw;

  // Ack producers whose records just committed.
  for (auto it = pending_produce_acks_.begin();
       it != pending_produce_acks_.end() && it->first < high_watermark_;) {
    auto ack = std::make_shared<KafkaProduceAckMsg>();
    ack->offset = it->first;
    ack->ok = true;
    env_.Net().Send(net_id_, it->second, ack);
    it = pending_produce_acks_.erase(it);
  }
  AnswerPendingFetches();
}

void KafkaBroker::HandleFetch(sim::NodeId from, const KafkaFetchMsg& m) {
  pending_fetches_[from] = m.offset;
  AnswerPendingFetches();
}

void KafkaBroker::AnswerPendingFetches() {
  for (auto it = pending_fetches_.begin(); it != pending_fetches_.end();) {
    const sim::NodeId consumer = it->first;
    const std::uint64_t offset = it->second;
    if (offset >= high_watermark_) {
      ++it;  // long-poll: keep parked until data commits
      continue;
    }
    auto resp = std::make_shared<KafkaFetchResponseMsg>();
    const std::uint64_t end = std::min<std::uint64_t>(
        high_watermark_, offset + kMaxFetchRecords);
    for (std::uint64_t i = offset; i < end; ++i) {
      resp->records.push_back(log_[i]);
    }
    resp->next_offset = end;
    env_.Net().Send(net_id_, consumer, resp);
    it = pending_fetches_.erase(it);
  }
}

}  // namespace fabricsim::ordering
