// Tests for the Solo, Kafka, and ZooKeeper components of the ordering
// service, driven over the simulated network.
#include <gtest/gtest.h>

#include "crypto/ca.h"
#include "ordering/kafka_broker.h"
#include "ordering/kafka_orderer.h"
#include "ordering/solo.h"
#include "ordering/zookeeper.h"

namespace fabricsim::ordering {
namespace {

EnvelopePtr Env(const std::string& id) {
  auto env = std::make_shared<proto::TransactionEnvelope>();
  env->tx_id = id;
  env->channel_id = "ch";
  return env;
}

crypto::Identity OrdererIdentity(int i = 0) {
  static crypto::CertificateAuthority ca("OrdererMSP");
  return ca.Enroll("orderer" + std::to_string(i), crypto::Role::kOrderer);
}

/// A fake peer endpoint recording delivered blocks, plus a fake client
/// endpoint recording broadcast acks.
struct Sink {
  explicit Sink(sim::Environment& env) {
    peer_id = env.Net().Register("sink-peer", [this](sim::NodeId,
                                                     sim::MessagePtr msg) {
      if (auto b = std::dynamic_pointer_cast<const DeliverBlockMsg>(msg)) {
        blocks.push_back(b->GetBlock());
      }
    });
    client_id = env.Net().Register("sink-client", [this](sim::NodeId,
                                                         sim::MessagePtr msg) {
      if (auto a = std::dynamic_pointer_cast<const BroadcastAckMsg>(msg)) {
        acks.emplace_back(a->TxId(), a->Ok());
      }
    });
  }
  sim::NodeId peer_id = sim::kInvalidNode;
  sim::NodeId client_id = sim::kInvalidNode;
  std::vector<proto::BlockPtr> blocks;
  std::vector<std::pair<std::string, bool>> acks;
};

BatchConfig Batch3() {
  BatchConfig b;
  b.max_message_count = 3;
  return b;
}

// ---------------------------------------------------------------- Solo

struct SoloFixture {
  SoloFixture() : env(1), sink(env) {
    machine = &env.AddMachine("osn", sim::I7_2600());
    orderer = std::make_unique<SoloOrderer>(env, *machine, OrdererIdentity(),
                                            fabric::DefaultCalibration(),
                                            Batch3(), nullptr);
    orderer->SubscribePeer(sink.peer_id);
  }
  void Broadcast(const std::string& id) {
    auto env_msg = std::make_shared<BroadcastEnvelopeMsg>(Env(id), 500);
    env.Net().Send(sink.client_id, orderer->NetId(), env_msg);
  }
  sim::Environment env;
  Sink sink;
  sim::Machine* machine = nullptr;
  std::unique_ptr<SoloOrderer> orderer;
};

TEST(Solo, CutsOnBatchSize) {
  SoloFixture f;
  for (int i = 0; i < 3; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromMillis(500));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
  EXPECT_EQ(f.sink.blocks[0]->TxCount(), 3u);
  EXPECT_EQ(f.sink.blocks[0]->header.number, 0u);
  EXPECT_EQ(f.sink.acks.size(), 3u);
  for (const auto& [id, ok] : f.sink.acks) EXPECT_TRUE(ok);
}

TEST(Solo, CutsOnBatchTimeout) {
  SoloFixture f;
  f.Broadcast("lonely");
  // Before the 1s timeout: nothing.
  f.env.Sched().RunUntil(sim::FromMillis(900));
  EXPECT_TRUE(f.sink.blocks.empty());
  f.env.Sched().RunUntil(sim::FromMillis(1500));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
  EXPECT_EQ(f.sink.blocks[0]->TxCount(), 1u);
}

TEST(Solo, BlocksChainTogether) {
  SoloFixture f;
  for (int i = 0; i < 7; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(3));
  ASSERT_EQ(f.sink.blocks.size(), 3u);  // 3 + 3 + timeout(1)
  EXPECT_EQ(f.sink.blocks[2]->TxCount(), 1u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(f.sink.blocks[i]->header.previous_hash,
              f.sink.blocks[i - 1]->header.Hash());
    EXPECT_EQ(f.sink.blocks[i]->header.number, i);
  }
}

TEST(Solo, BlocksAreSignedByOrderer) {
  SoloFixture f;
  for (int i = 0; i < 3; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(1));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
  const auto& block = *f.sink.blocks[0];
  auto cert = crypto::Certificate::Deserialize(block.metadata.orderer_cert);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(crypto::Verify(cert->subject_public_key,
                             block.header.Serialize(),
                             block.metadata.orderer_signature));
}

// ------------------------------------------------------------- ZooKeeper

struct ZkFixture {
  explicit ZkFixture(int servers = 3) : env(11) {
    std::vector<sim::Machine*> machines;
    for (int i = 0; i < servers; ++i) {
      machines.push_back(&env.AddMachine("zk" + std::to_string(i),
                                         sim::I7_920()));
    }
    ensemble = std::make_unique<ZooKeeperEnsemble>(
        env, fabric::DefaultCalibration(), machines);
    ensemble->Start();
    client_id = env.Net().Register(
        "zk-client", [this](sim::NodeId, sim::MessagePtr msg) {
          if (auto r = std::dynamic_pointer_cast<const ZkResponseMsg>(msg)) {
            responses.push_back(*r);
          } else if (auto w =
                         std::dynamic_pointer_cast<const ZkWatchEventMsg>(msg)) {
            watch_events.push_back(w->path);
          }
        });
  }

  void Send(ZkOp op, const std::string& path, const std::string& data,
            std::uint64_t session, sim::NodeId from = sim::kInvalidNode) {
    auto req = std::make_shared<ZkRequestMsg>();
    req->op = op;
    req->path = path;
    req->data = data;
    req->session_id = session;
    req->request_id = next_request++;
    env.Net().Send(from == sim::kInvalidNode ? client_id : from,
                   ensemble->NetIds().front(), req);
  }

  sim::Environment env;
  std::unique_ptr<ZooKeeperEnsemble> ensemble;
  sim::NodeId client_id = sim::kInvalidNode;
  std::vector<ZkResponseMsg> responses;
  std::vector<std::string> watch_events;
  std::uint64_t next_request = 1;
};

TEST(ZooKeeper, CreateEphemeralSucceedsOnce) {
  ZkFixture f;
  f.Send(ZkOp::kCreateEphemeral, "/controller", "me", 1);
  f.env.Sched().RunUntil(sim::FromMillis(200));
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_TRUE(f.responses[0].ok);

  f.Send(ZkOp::kCreateEphemeral, "/controller", "me-too", 2);
  f.env.Sched().RunUntil(sim::FromMillis(400));
  ASSERT_EQ(f.responses.size(), 2u);
  EXPECT_FALSE(f.responses[1].ok);
}

TEST(ZooKeeper, GetDataReadsBack) {
  ZkFixture f;
  f.Send(ZkOp::kCreateEphemeral, "/x", "payload", 1);
  f.env.Sched().RunUntil(sim::FromMillis(200));
  f.Send(ZkOp::kGetData, "/x", "", 1);
  f.env.Sched().RunUntil(sim::FromMillis(400));
  ASSERT_EQ(f.responses.size(), 2u);
  EXPECT_TRUE(f.responses[1].ok);
  EXPECT_EQ(f.responses[1].data, "payload");
}

TEST(ZooKeeper, GetDataMissingFails) {
  ZkFixture f;
  f.Send(ZkOp::kGetData, "/missing", "", 1);
  f.env.Sched().RunUntil(sim::FromMillis(200));
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_FALSE(f.responses[0].ok);
}

TEST(ZooKeeper, WritesReplicateToFollowers) {
  ZkFixture f(3);
  f.Send(ZkOp::kCreateEphemeral, "/x", "v", 1);
  f.env.Sched().RunUntil(sim::FromMillis(500));
  // Every replica holds the znode after quorum commit.
  int holders = 0;
  for (std::size_t i = 0; i < f.ensemble->Size(); ++i) {
    if (f.ensemble->Server(i).Peek("/x").has_value()) ++holders;
  }
  EXPECT_EQ(holders, 3);
}

TEST(ZooKeeper, SessionExpiryDeletesEphemeralsAndFiresWatch) {
  ZkFixture f;
  // Session 1 creates; the loser (session 2) is watching.
  f.Send(ZkOp::kCreateEphemeral, "/controller", "one", 1);
  f.env.Sched().RunUntil(sim::FromMillis(300));
  f.Send(ZkOp::kCreateEphemeral, "/controller", "two", 2);
  f.env.Sched().RunUntil(sim::FromMillis(600));
  ASSERT_EQ(f.responses.size(), 2u);
  EXPECT_FALSE(f.responses[1].ok);

  // Session 2 keeps heart-beating; session 1 goes silent and expires.
  for (int i = 0; i < 10; ++i) {
    f.Send(ZkOp::kHeartbeat, "", "", 2);
    f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(1));
  }
  EXPECT_FALSE(f.watch_events.empty());
  EXPECT_EQ(f.watch_events[0], "/controller");
  EXPECT_FALSE(f.ensemble->Server(0).Peek("/controller").has_value());
}

TEST(ZooKeeper, SingleServerEnsembleWorks) {
  ZkFixture f(1);
  f.Send(ZkOp::kCreateEphemeral, "/solo", "v", 1);
  f.env.Sched().RunUntil(sim::FromMillis(300));
  ASSERT_EQ(f.responses.size(), 1u);
  EXPECT_TRUE(f.responses[0].ok);
  EXPECT_TRUE(f.ensemble->Server(0).Peek("/solo").has_value());
}

// ----------------------------------------------------------------- Kafka

struct KafkaFixture {
  explicit KafkaFixture(int brokers = 3, int osns = 2, int zks = 3)
      : env(21), sink(env) {
    std::vector<sim::Machine*> zk_machines;
    for (int i = 0; i < zks; ++i) {
      zk_machines.push_back(
          &env.AddMachine("zk" + std::to_string(i), sim::I7_920()));
    }
    zk = std::make_unique<ZooKeeperEnsemble>(env, fabric::DefaultCalibration(),
                                             zk_machines);
    KafkaConfig kcfg;
    for (int i = 0; i < brokers; ++i) {
      auto& m = env.AddMachine("broker" + std::to_string(i), sim::I7_920());
      this->brokers.push_back(std::make_unique<KafkaBroker>(
          env, m, fabric::DefaultCalibration(), kcfg, i, zk->NetIds()));
    }
    std::vector<sim::NodeId> broker_ids;
    for (auto& b : this->brokers) broker_ids.push_back(b->NetId());
    for (auto& b : this->brokers) b->SetPeers(broker_ids);

    for (int i = 0; i < osns; ++i) {
      auto& m = env.AddMachine("osn" + std::to_string(i), sim::I7_2600());
      this->osns.push_back(std::make_unique<KafkaOrderer>(
          env, m, OrdererIdentity(i), fabric::DefaultCalibration(), Batch3(),
          nullptr, i, zk->NetIds()));
    }
    zk->Start();
    for (auto& b : this->brokers) b->Start();
    for (auto& o : this->osns) o->Start();
  }

  void Broadcast(const std::string& id, std::size_t osn = 0) {
    env.Net().Send(sink.client_id, osns[osn]->NetId(),
                   std::make_shared<BroadcastEnvelopeMsg>(Env(id), 500));
  }

  sim::Environment env;
  Sink sink;
  std::unique_ptr<ZooKeeperEnsemble> zk;
  std::vector<std::unique_ptr<KafkaBroker>> brokers;
  std::vector<std::unique_ptr<KafkaOrderer>> osns;
};

TEST(Kafka, ExactlyOneBrokerBecomesControllerAndLeader) {
  KafkaFixture f;
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  int leaders = 0;
  for (auto& b : f.brokers) leaders += b->IsPartitionLeader() ? 1 : 0;
  EXPECT_EQ(leaders, 1);
}

TEST(Kafka, OrdersThroughPartitionAndDelivers) {
  KafkaFixture f;
  f.osns[0]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  for (int i = 0; i < 3; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
  EXPECT_EQ(f.sink.blocks[0]->TxCount(), 3u);
}

TEST(Kafka, AllOsnsCutIdenticalBlocks) {
  KafkaFixture f;
  // Subscribe the sink to BOTH OSNs: identical blocks arrive twice.
  f.osns[0]->SubscribePeer(f.sink.peer_id);
  f.osns[1]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  for (int i = 0; i < 3; ++i) f.Broadcast("tx" + std::to_string(i), 0);
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  ASSERT_EQ(f.sink.blocks.size(), 2u);
  EXPECT_EQ(f.sink.blocks[0]->header.Hash(), f.sink.blocks[1]->header.Hash());
}

TEST(Kafka, AllOsnsShareOneCopyOfEachEnvelope) {
  KafkaFixture f(3, 3);
  for (auto& o : f.osns) o->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  std::vector<EnvelopePtr> sent;
  for (int i = 0; i < 3; ++i) {
    sent.push_back(Env("tx" + std::to_string(i)));
    f.env.Net().Send(f.sink.client_id, f.osns[0]->NetId(),
                     std::make_shared<BroadcastEnvelopeMsg>(sent.back(), 500));
  }
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  // Each OSN assembles its own block at the same height; all three point at
  // the client's envelopes rather than copies of them.
  ASSERT_EQ(f.sink.blocks.size(), 3u);
  for (std::size_t b = 0; b < f.sink.blocks.size(); ++b) {
    const auto& block = f.sink.blocks[b];
    EXPECT_EQ(block->header.number, f.sink.blocks[0]->header.number);
    if (b > 0) {
      EXPECT_NE(block.get(), f.sink.blocks[0].get());
    }
    ASSERT_EQ(block->TxCount(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(block->transactions.Ptr(i), sent[i]) << "osn block " << b;
    }
  }
}

TEST(Kafka, TtcCutsPendingBatchAcrossOsns) {
  KafkaFixture f;
  f.osns[1]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  // One lonely tx submitted via OSN 0; OSN 1 must still cut (TTC through
  // the partition), and the block arrives from OSN 1's subscription.
  f.Broadcast("lonely", 0);
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
  EXPECT_EQ(f.sink.blocks[0]->TxCount(), 1u);
}

TEST(Kafka, RecordsReplicateToFollowers) {
  KafkaFixture f;
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  for (int i = 0; i < 5; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  // All brokers hold the records (replication factor 3 of 3 brokers).
  for (auto& b : f.brokers) {
    EXPECT_GE(b->LogEnd(), 5u) << "broker log should have the records";
  }
}

TEST(Kafka, LeaderBrokerFailureElectsNewControllerAndContinues) {
  KafkaFixture f;
  f.osns[0]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  for (int i = 0; i < 3; ++i) f.Broadcast("a" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  ASSERT_EQ(f.sink.blocks.size(), 1u);

  // Kill the current partition leader.
  for (auto& b : f.brokers) {
    if (b->IsPartitionLeader()) {
      f.env.Net().Crash(b->NetId());
      break;
    }
  }
  // Wait out session expiry (6 s) + re-election, then order more.
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(12));
  int live_leaders = 0;
  for (auto& b : f.brokers) {
    if (b->IsPartitionLeader() && !f.env.Net().IsCrashed(b->NetId())) {
      ++live_leaders;
    }
  }
  EXPECT_EQ(live_leaders, 1);

  for (int i = 0; i < 3; ++i) f.Broadcast("b" + std::to_string(i));
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(6));
  EXPECT_GE(f.sink.blocks.size(), 2u);
}

TEST(Kafka, IsrShrinksOnFollowerCrashAndReExpandsOnRevive) {
  KafkaFixture f;
  f.osns[0]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));

  KafkaBroker* leader = nullptr;
  KafkaBroker* follower = nullptr;
  for (auto& b : f.brokers) {
    if (b->IsPartitionLeader()) {
      leader = b.get();
    } else if (follower == nullptr) {
      follower = b.get();
    }
  }
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(follower, nullptr);
  ASSERT_EQ(leader->IsrSize(), 3u);  // all three brokers in sync

  // Crash a follower and keep producing: the leader stops hearing acks and
  // shrinks the ISR to itself + the surviving follower.
  f.env.Net().Crash(follower->NetId());
  for (int i = 0; i < 6; ++i) {
    f.Broadcast("a" + std::to_string(i));
    f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(1));
  }
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(6));
  EXPECT_EQ(leader->IsrSize(), 2u);
  EXPECT_EQ(leader->CatchingUp(), 1u);
  // Ordering never stalled on the dead replica (acks=ISR, not acks=all).
  EXPECT_GE(f.sink.blocks.size(), 1u);

  // Revive: the leader replays the missed suffix; once the follower acks
  // the full log it re-enters the ISR (Kafka's shrink/re-expand cycle).
  f.env.Net().Revive(follower->NetId());
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(8));
  EXPECT_EQ(leader->IsrSize(), 3u);
  EXPECT_EQ(leader->CatchingUp(), 0u);
  EXPECT_EQ(follower->LogEnd(), leader->LogEnd());
}

TEST(Kafka, SingleBrokerClusterStillOrders) {
  KafkaFixture f(/*brokers=*/1, /*osns=*/1);
  f.osns[0]->SubscribePeer(f.sink.peer_id);
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  for (int i = 0; i < 3; ++i) f.Broadcast("tx" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  ASSERT_EQ(f.sink.blocks.size(), 1u);
}

}  // namespace
}  // namespace fabricsim::ordering
