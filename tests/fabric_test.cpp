// Tests for the fabric façade: topology, channel policies, network
// construction, and the workload controller.
#include <gtest/gtest.h>

#include "client/workload.h"
#include "fabric/network_builder.h"

namespace fabricsim::fabric {
namespace {

TEST(Topology, Defaults) {
  TopologyConfig topo;
  EXPECT_EQ(topo.EffectiveClients(), topo.endorsing_peers);
  topo.clients = 3;
  EXPECT_EQ(topo.EffectiveClients(), 3);
  topo.ordering = OrderingType::kSolo;
  topo.osns = 7;
  EXPECT_EQ(topo.EffectiveOsns(), 1);  // solo is always one node
  topo.ordering = OrderingType::kRaft;
  EXPECT_EQ(topo.EffectiveOsns(), 7);
}

TEST(Topology, Profiles) {
  EXPECT_EQ(ProfileForClient().cores, 1);  // Node.js event loop
  EXPECT_EQ(ProfileForPeer().cores, 4);
  EXPECT_GT(ProfileForPeer().speed_factor, ProfileForBroker().speed_factor);
}

TEST(Topology, Names) {
  EXPECT_EQ(OrderingTypeName(OrderingType::kSolo), "Solo");
  EXPECT_EQ(OrderingTypeName(OrderingType::kKafka), "Kafka");
  EXPECT_EQ(OrderingTypeName(OrderingType::kRaft), "Raft");
}

TEST(Channel, PolicyBuilders) {
  EXPECT_EQ(MakeOrPolicy(3).ToString(),
            "OR('Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')");
  EXPECT_EQ(MakeAndPolicy(2).ToString(), "AND('Org1MSP.peer','Org2MSP.peer')");
  EXPECT_EQ(MakeOutOfPolicy(2, 3).MinEndorsements(), 2);
  EXPECT_EQ(MakeOrPolicy(5).MinEndorsements(), 1);
  EXPECT_EQ(MakeAndPolicy(5).MinEndorsements(), 5);
}

TEST(Channel, ResolvePolicyPrefersExpression) {
  ChannelConfig cfg;
  cfg.policy_expr = "AND('Org1MSP.peer','Org2MSP.peer')";
  EXPECT_EQ(ResolvePolicy(cfg, 10).MinEndorsements(), 2);
  cfg.policy_expr.clear();
  EXPECT_EQ(ResolvePolicy(cfg, 10).MinEndorsements(), 1);  // OR over all
  EXPECT_EQ(ResolvePolicy(cfg, 10).Principals().size(), 10u);
}

TEST(Calibration, DocumentedCapacitiesHold) {
  const Calibration& cal = DefaultCalibration();
  // Per-client OR generation ceiling ~51 tps.
  const double client_ms =
      sim::ToMillis(cal.client_proposal_cpu + cal.client_per_response_cpu +
                    cal.client_envelope_cpu);
  EXPECT_NEAR(1000.0 / client_ms, 51.3, 1.0);
  // VSCC capacity: 4 cores / (base + 5 * per-endorsement) ~ 210 tps (AND5).
  const double and5_ms = sim::ToMillis(
      cal.vscc_base_cpu + 5 * cal.vscc_per_endorsement_cpu);
  EXPECT_NEAR(4000.0 / and5_ms, 210.0, 5.0);
  // Serial ledger write ~ 310 tps ceiling (OR).
  const double serial_ms =
      sim::ToMillis(cal.mvcc_per_tx_disk + cal.state_write_per_tx_disk +
                    cal.block_write_per_tx_disk) +
      sim::ToMillis(cal.block_write_base_disk) / 100.0;
  EXPECT_NEAR(1000.0 / serial_ms, 303.0, 10.0);
}

TEST(FabricNetwork, BuildsRequestedTopology) {
  NetworkOptions opts;
  opts.topology.ordering = OrderingType::kKafka;
  opts.topology.endorsing_peers = 5;
  opts.topology.committing_peers = 2;
  opts.topology.osns = 3;
  opts.topology.kafka_brokers = 4;
  opts.topology.zookeepers = 3;
  FabricNetwork net(opts);

  EXPECT_EQ(net.PeerCount(), 7u);  // 5 endorsing + 2 committing
  EXPECT_EQ(net.OsnCount(), 3u);
  EXPECT_EQ(net.Brokers().size(), 4u);
  EXPECT_EQ(net.ZooKeeper()->Size(), 3u);
  EXPECT_EQ(net.Clients().size(), 5u);  // one per endorsing peer
  EXPECT_TRUE(net.Peer(0).IsEndorsing());
  EXPECT_FALSE(net.ValidatorPeer().IsEndorsing());
}

TEST(FabricNetwork, GenesisInstalledEverywhere) {
  NetworkOptions opts;
  opts.topology.ordering = OrderingType::kSolo;
  opts.topology.endorsing_peers = 3;
  FabricNetwork net(opts);
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    EXPECT_EQ(net.Peer(p).GetCommitter().Chain().Height(), 1u) << p;
    EXPECT_TRUE(net.Peer(p).GetCommitter().Chain().Audit().ok);
  }
  // Seeded accounts present at genesis version {0,0}.
  const auto v = net.Peer(0).GetCommitter().State().Get("token", "acct0");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, (proto::KeyVersion{0, 0}));
}

TEST(FabricNetwork, DistinctOrgsPerEndorsingPeer) {
  NetworkOptions opts;
  opts.topology.endorsing_peers = 4;
  FabricNetwork net(opts);
  std::set<std::string> orgs;
  for (int i = 0; i < 4; ++i) {
    orgs.insert(net.Peer(static_cast<std::size_t>(i)).GetIdentity().MspId());
  }
  EXPECT_EQ(orgs.size(), 4u);
  EXPECT_NE(net.Msps().Find("Org1MSP"), nullptr);
  EXPECT_NE(net.Msps().Find("OrdererMSP"), nullptr);
}

TEST(Workload, GeneratesAtConfiguredRate) {
  sim::Environment env(7);
  // No clients needed to test the arrival process? The controller needs
  // clients; use a tiny network.
  NetworkOptions opts;
  opts.topology.endorsing_peers = 2;
  FabricNetwork net(opts);
  net.Start();
  client::WorkloadConfig wl;
  wl.rate_tps = 40;
  wl.duration = sim::FromSeconds(10);
  wl.start = sim::FromSeconds(1);
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(30));
  // Poisson with mean 400 arrivals.
  EXPECT_NEAR(static_cast<double>(controller.Generated()), 400.0, 80.0);
}

TEST(Workload, UniformArrivalsExact) {
  NetworkOptions opts;
  opts.topology.endorsing_peers = 2;
  FabricNetwork net(opts);
  net.Start();
  client::WorkloadConfig wl;
  wl.rate_tps = 50;
  wl.duration = sim::FromSeconds(10);
  wl.arrivals = client::ArrivalProcess::kUniform;
  wl.start = sim::FromSeconds(1);
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();
  net.Env().Sched().RunUntil(sim::FromSeconds(30));
  EXPECT_NEAR(static_cast<double>(controller.Generated()), 500.0, 5.0);
}

TEST(Workload, GapTooLargeForSimTimeEndsTheClientsArrivals) {
  // At 1e-300 tps the mean gap is far beyond what SimTime holds: no arrival
  // falls in the window.
  NetworkOptions opts;
  opts.topology.endorsing_peers = 2;
  FabricNetwork net(opts);
  net.Start();
  for (const auto arrivals :
       {client::ArrivalProcess::kPoisson, client::ArrivalProcess::kUniform}) {
    client::WorkloadConfig wl;
    wl.rate_tps = 1e-300;
    wl.start = net.Env().Now();
    wl.duration = sim::FromSeconds(10);
    wl.arrivals = arrivals;
    client::WorkloadController controller(net.Env(), net.Clients(), wl);
    controller.Start();
    net.Env().Sched().RunUntil(net.Env().Now() + sim::FromSeconds(20));
    EXPECT_EQ(controller.Generated(), 0u);
  }
}

TEST(Workload, InvocationShapes) {
  NetworkOptions opts;
  opts.topology.endorsing_peers = 1;
  FabricNetwork net(opts);
  {
    client::WorkloadConfig wl;
    wl.kind = client::WorkloadKind::kKvWrite;
    wl.value_size = 1;
    client::WorkloadController c(net.Env(), net.Clients(), wl);
    auto inv = c.NextInvocation(0);
    EXPECT_EQ(inv.chaincode_id, "kvwrite");
    EXPECT_EQ(inv.function, "write");
    ASSERT_EQ(inv.args.size(), 2u);
    EXPECT_EQ(inv.args[1].size(), 1u);  // the paper's 1-byte values
    // Keys are unique per invocation (no accidental conflicts).
    auto inv2 = c.NextInvocation(0);
    EXPECT_NE(proto::ToString(inv.args[0]), proto::ToString(inv2.args[0]));
  }
  {
    client::WorkloadConfig wl;
    wl.kind = client::WorkloadKind::kTokenTransfer;
    wl.key_space = 5;
    client::WorkloadController c(net.Env(), net.Clients(), wl);
    for (int i = 0; i < 50; ++i) {
      auto inv = c.NextInvocation(0);
      EXPECT_EQ(inv.chaincode_id, "token");
      ASSERT_EQ(inv.args.size(), 3u);
      EXPECT_NE(proto::ToString(inv.args[0]), proto::ToString(inv.args[1]));
    }
  }
  {
    client::WorkloadConfig wl;
    wl.kind = client::WorkloadKind::kSmallBank;
    client::WorkloadController c(net.Env(), net.Clients(), wl);
    std::set<std::string> fns;
    for (int i = 0; i < 100; ++i) fns.insert(c.NextInvocation(0).function);
    EXPECT_GE(fns.size(), 4u);  // the op mix actually mixes
  }
}

TEST(Workload, AccountsHelper) {
  const auto accounts = client::WorkloadAccounts(3);
  ASSERT_EQ(accounts.size(), 3u);
  EXPECT_EQ(accounts[0], "acct0");
  EXPECT_EQ(accounts[2], "acct2");
}

}  // namespace
}  // namespace fabricsim::fabric
