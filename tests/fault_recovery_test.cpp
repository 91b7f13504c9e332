// End-to-end chaos tests: declarative fault schedules against the full
// network, with hard assertions on committed counts, the ledger-consistency
// invariants, and determinism of the injected runs. Also pins the deliver
// watchdog's timing against fake OSN endpoints.
#include <gtest/gtest.h>

#include "crypto/ca.h"
#include "fabric/experiment.h"
#include "ordering/messages.h"
#include "peer/peer_node.h"

namespace fabricsim {
namespace {

// ------------------------------------------------------- deliver watchdog

/// A fake OSN endpoint that records the watchdog traffic it receives and,
/// when `answer_pings`, answers each ping with a pong.
struct FakeOsn {
  FakeOsn(sim::Environment& env, const std::string& name, bool answer_pings) {
    id = env.Net().Register(
        name, [this, &env, answer_pings](sim::NodeId from,
                                         sim::MessagePtr msg) {
          if (auto ping =
                  std::dynamic_pointer_cast<const ordering::DeliverPingMsg>(
                      msg)) {
            pings.push_back(env.Now());
            if (answer_pings) {
              env.Net().Send(id, from,
                             std::make_shared<ordering::DeliverPongMsg>(
                                 ping->ChannelId()));
            }
          } else if (std::dynamic_pointer_cast<
                         const ordering::SubscribeRequestMsg>(msg)) {
            subscribes.push_back(env.Now());
          }
        });
  }
  sim::NodeId id = sim::kInvalidNode;
  std::vector<sim::SimTime> pings;
  std::vector<sim::SimTime> subscribes;
};

/// One peer on channel "ch" whose watchdog rotates over two fake OSNs,
/// starting at `first`. On jitter-free links a message's delay depends only
/// on its size, so pings arrive spaced exactly as the watchdog sends them,
/// and messages of other sizes within a microsecond of that.
struct WatchdogFixture {
  explicit WatchdogFixture(bool first_answers)
      : env(5, sim::NetworkConfig{.jitter_fraction = 0.0}),
        first(env, "osn-a", first_answers),
        second(env, "osn-b", /*answer_pings=*/true) {
    const auto& ca = msps.AddOrganization("Org1MSP");
    auto& machine = env.AddMachine("peer", sim::I7_2600());
    peer = std::make_unique<peer::PeerNode>(
        env, machine, ca.Enroll("peer0", crypto::Role::kPeer), msps,
        std::make_shared<chaincode::Registry>(), fabric::DefaultCalibration(),
        "ch", std::make_shared<peer::ChannelState>(), peer::CommitterConfig{},
        nullptr, /*endorsing=*/false, 0);
    peer->EnableDeliverFailover("ch", {first.id, second.id}, 0);
  }
  sim::Environment env;
  crypto::MspRegistry msps;
  FakeOsn first;
  FakeOsn second;
  std::unique_ptr<peer::PeerNode> peer;
};

TEST(DeliverWatchdog, SilentOsnIsPingedEvery500msThenLeftAfterFourMisses) {
  WatchdogFixture f(/*first_answers=*/false);
  f.env.Sched().RunUntil(sim::FromSeconds(3));

  // Pings every 500 ms from 0.5 s on; the 4th goes unanswered at 2.5 s,
  // when the peer re-subscribes to the second OSN and pings it instead.
  ASSERT_EQ(f.first.pings.size(), 4u);
  for (std::size_t i = 1; i < f.first.pings.size(); ++i) {
    EXPECT_EQ(f.first.pings[i] - f.first.pings[i - 1], sim::FromMillis(500));
  }
  EXPECT_GT(f.first.pings.front(), sim::FromMillis(500));
  EXPECT_LT(f.first.pings.front(), sim::FromMillis(501));
  EXPECT_TRUE(f.first.subscribes.empty());
  ASSERT_EQ(f.second.subscribes.size(), 1u);
  EXPECT_NEAR(sim::ToSeconds(f.second.subscribes.front()), 2.5, 1e-3);
  ASSERT_EQ(f.second.pings.size(), 1u);
  // Sent 500 ms after the last ping to the first OSN, queued on the link
  // behind the re-subscribe.
  EXPECT_NEAR(sim::ToSeconds(f.second.pings.front() - f.first.pings.back()),
              0.5, 1e-5);

  // The second OSN answers, so the peer stays on it.
  f.env.Sched().RunUntil(sim::FromSeconds(10));
  EXPECT_EQ(f.first.pings.size(), 4u);
  EXPECT_EQ(f.second.subscribes.size(), 1u);
  EXPECT_EQ(f.second.pings.size(), 15u);  // sent at 2.5 s .. 9.5 s
}

TEST(DeliverWatchdog, AnsweredPingsNeverRotate) {
  WatchdogFixture f(/*first_answers=*/true);
  f.env.Sched().RunUntil(sim::FromSeconds(30));

  EXPECT_EQ(f.first.pings.size(), 59u);  // sent at 0.5 s .. 29.5 s
  EXPECT_TRUE(f.first.subscribes.empty());
  EXPECT_TRUE(f.second.pings.empty());
  EXPECT_TRUE(f.second.subscribes.empty());
}

fabric::ExperimentConfig ChaosConfig(fabric::OrderingType ordering,
                                     const std::string& faults) {
  fabric::ExperimentConfig config;
  config.network.topology.ordering = ordering;
  config.network.topology.endorsing_peers = 4;
  config.network.topology.osns = 3;
  config.network.topology.kafka_brokers = 3;
  config.network.topology.zookeepers = 3;
  config.workload.rate_tps = 100.0;
  config.workload.duration = sim::FromSeconds(25);
  config.warmup = sim::FromSeconds(5);
  config.drain = sim::FromSeconds(15);
  config.faults = faults;
  return config;
}

TEST(FaultRecovery, RaftLeaderCrashRecoversWithCleanLedger) {
  const auto result = fabric::RunExperiment(
      ChaosConfig(fabric::OrderingType::kRaft, "crash:leader@12s,revive@22s"));

  // The fault actually fired and was undone.
  ASSERT_EQ(result.fault_log.size(), 2u);

  // Zero invariant violations: no forks, exactly-once, nothing acked lost.
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();

  // Commits recovered: finite TTR, recovered rate within 90% of pre-fault.
  ASSERT_TRUE(result.recovery.has_value());
  const auto& rec = *result.recovery;
  EXPECT_FALSE(rec.stalled);
  ASSERT_GE(rec.time_to_recover_s, 0.0);
  EXPECT_GE(rec.recovered_tps, 0.9 * rec.pre_fault_tps);

  // Hard committed-count floor: a 10 s leader outage at 100 tps must not
  // cost more than the in-flight window around it. With failover + retries
  // nearly everything submitted lands.
  EXPECT_GT(result.generated, 2000u);
  EXPECT_GE(result.client_committed_valid + result.client_rejected,
            result.generated * 9 / 10);
  EXPECT_GT(result.client_committed_valid, result.generated * 3 / 4);
  EXPECT_TRUE(result.chain_audit_ok);
}

TEST(FaultRecovery, KafkaPartitionLeaderCrashRecovers) {
  const auto result = fabric::RunExperiment(
      ChaosConfig(fabric::OrderingType::kKafka, "crash:leader@12s,revive@22s"));

  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();

  ASSERT_TRUE(result.recovery.has_value());
  const auto& rec = *result.recovery;
  EXPECT_FALSE(rec.stalled);
  // Kafka failover rides ZooKeeper session expiry (6 s) + controller
  // re-election, so the TTR is finite but longer than Raft's.
  ASSERT_GE(rec.time_to_recover_s, 0.0);
  EXPECT_GE(rec.recovered_tps, 0.9 * rec.pre_fault_tps);
  EXPECT_GT(result.client_committed_valid, result.generated / 2);
  EXPECT_TRUE(result.chain_audit_ok);
}

TEST(FaultRecovery, SoloHaltIsDetectedNotHung) {
  // Solo has nowhere to fail over to: with the single OSN down for good
  // (bare crash, no revive) commits halt permanently. The run must complete
  // (not hang), report the stall, and leave a consistent chain — clients
  // give their acked-but-uncommitted txs an explicit rejection when their
  // commit-timeout retries run out, so nothing is silently lost.
  //
  // (A crash:leader@t,revive@t' pair on Solo recovers: the deliver
  // watchdog's gap repair re-subscribes after the revive and the OSN
  // backfills from its history — that path is covered by the recovery
  // benches. This test pins the no-failover permanent-outage detection.)
  auto config = ChaosConfig(fabric::OrderingType::kSolo, "crash:leader@15s");
  config.workload.duration = sim::FromSeconds(30);
  const auto result = fabric::RunExperiment(config);

  ASSERT_TRUE(result.recovery.has_value());
  const auto& rec = *result.recovery;
  EXPECT_GT(rec.pre_fault_tps, 50.0);  // healthy before the crash
  EXPECT_TRUE(rec.stalled);
  EXPECT_LT(rec.time_to_recover_s, 0.0);

  // Whatever committed is a consistent, fork-free chain, and every acked
  // tx reached a terminal status (committed or explicitly rejected).
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();
  EXPECT_TRUE(result.chain_audit_ok);
}

TEST(FaultRecovery, OutageIsTheCommitFreeSpanOpenedByTheFault) {
  // 100 tps, except nothing commits from 15 s to 25 s (and, in `halted`,
  // nothing after 15 s at all).
  metrics::RateLog commits("commits");
  metrics::RateLog halted("halted");
  for (int s = 0; s < 30; ++s) {
    for (int i = 0; i < 100; ++i) {
      const sim::SimTime t = sim::FromSeconds(s) + i * sim::FromMillis(10);
      if (s < 15) halted.Record(t);
      if (s < 15 || s >= 25) commits.Record(t);
    }
  }
  const sim::SimTime end = sim::FromSeconds(30);

  const auto down = faults::AnalyzeRecovery(commits, sim::FromSeconds(15), end);
  EXPECT_DOUBLE_EQ(down.outage_s, 10.0);
  EXPECT_DOUBLE_EQ(down.time_to_recover_s, 10.0);
  EXPECT_FALSE(down.stalled);

  // Commits still flowing right after the fault: no outage yet.
  EXPECT_DOUBLE_EQ(
      faults::AnalyzeRecovery(commits, sim::FromSeconds(12), end).outage_s,
      0.0);

  // A permanent stall is an outage until the end of the analysis.
  const auto stall = faults::AnalyzeRecovery(halted, sim::FromSeconds(15), end);
  EXPECT_TRUE(stall.stalled);
  EXPECT_DOUBLE_EQ(stall.outage_s, 15.0);
}

TEST(FaultRecovery, SameSeedAndScheduleIsBitIdentical) {
  auto run = [] {
    auto config = ChaosConfig(fabric::OrderingType::kRaft,
                              "crash:leader@12s,revive@22s,loss:0.02@8s-18s");
    config.workload.duration = sim::FromSeconds(15);
    return fabric::RunExperiment(config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.chain_height, b.chain_height);
  EXPECT_EQ(a.client_committed_valid, b.client_committed_valid);
  EXPECT_EQ(a.client_rejected, b.client_rejected);
  EXPECT_EQ(a.generated, b.generated);
}

TEST(FaultRecovery, LossWindowRestoresBaselineAndCommitsEverything) {
  const auto result = fabric::RunExperiment(
      ChaosConfig(fabric::OrderingType::kRaft, "loss:0.05@10s-20s"));
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();
  EXPECT_GT(result.messages_dropped, 0u);
  ASSERT_TRUE(result.recovery.has_value());
  EXPECT_FALSE(result.recovery->stalled);
}

TEST(FaultRecovery, PartitionWindowHealsAndConverges) {
  // Split one OSN from the rest of the world for a while; the ledger must
  // converge with no forks once healed.
  const auto result = fabric::RunExperiment(ChaosConfig(
      fabric::OrderingType::kRaft,
      "partition:osn0|osn1+osn2@10s-18s"));
  ASSERT_TRUE(result.invariants.has_value());
  for (const auto& v : result.invariants->violations) {
    EXPECT_NE(v.invariant, "chain-fork") << v.detail;
    EXPECT_NE(v.invariant, "double-commit") << v.detail;
  }
  EXPECT_TRUE(result.chain_audit_ok);
}

}  // namespace
}  // namespace fabricsim
