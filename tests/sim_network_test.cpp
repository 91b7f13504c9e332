#include "sim/network.h"

#include <gtest/gtest.h>

#include "sim/machine.h"

namespace fabricsim::sim {
namespace {

class TestMsg final : public Message {
 public:
  explicit TestMsg(std::size_t size = 100, int tag = 0)
      : size_(size), tag_(tag) {}
  [[nodiscard]] std::size_t WireSize() const override { return size_; }
  [[nodiscard]] std::string TypeName() const override { return "TestMsg"; }
  [[nodiscard]] int Tag() const { return tag_; }

 private:
  std::size_t size_;
  int tag_;
};

struct Fixture {
  Fixture() : net(sched, Rng(1), NetworkConfig{}) {}
  Scheduler sched;
  Network net;

  NodeId AddNode(std::vector<std::pair<NodeId, MessagePtr>>* inbox,
                 const std::string& name) {
    return net.Register(name, [inbox](NodeId from, MessagePtr msg) {
      if (inbox) inbox->emplace_back(from, std::move(msg));
    });
  }
};

TEST(Network, DeliversMessages) {
  Fixture f;
  std::vector<std::pair<NodeId, MessagePtr>> inbox;
  NodeId a = f.AddNode(nullptr, "a");
  NodeId b = f.AddNode(&inbox, "b");
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.sched.Run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].first, a);
  EXPECT_EQ(f.net.MessagesDelivered(), 1u);
}

TEST(Network, DeliveryTakesAtLeastBaseLatency) {
  Fixture f;
  SimTime delivered_at = 0;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) {
    delivered_at = f.sched.Now();
  });
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.sched.Run();
  // base latency 180us with 10% jitter: at least 162us.
  EXPECT_GE(delivered_at, FromMicros(160));
  EXPECT_LE(delivered_at, FromMicros(210));
}

TEST(Network, LargeMessagesSerializeLonger) {
  Fixture f;
  SimTime small_done = 0, large_done = 0;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr msg) {
    auto m = std::dynamic_pointer_cast<const TestMsg>(msg);
    if (m->Tag() == 0) small_done = f.sched.Now();
    if (m->Tag() == 1) large_done = f.sched.Now();
  });
  {
    // Independent sends from a fresh NIC each: use two source nodes.
    NodeId a2 = f.net.Register("a2", [](NodeId, MessagePtr) {});
    f.net.Send(a, b, std::make_shared<TestMsg>(100, 0));
    f.net.Send(a2, b, std::make_shared<TestMsg>(1000000, 1));  // 1 MB
  }
  f.sched.Run();
  // 1MB at 1Gbps = 8ms of serialization; far above the small message.
  EXPECT_GT(large_done, small_done + FromMillis(7));
}

TEST(Network, SenderNicSerializesBackToBackSends) {
  Fixture f;
  std::vector<SimTime> arrivals;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) {
    arrivals.push_back(f.sched.Now());
  });
  for (int i = 0; i < 3; ++i) {
    f.net.Send(a, b, std::make_shared<TestMsg>(125000));  // 1ms each at 1Gbps
  }
  f.sched.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each subsequent message waits for the previous serialization (~1ms).
  EXPECT_GT(arrivals[1], arrivals[0] + FromMicros(900));
  EXPECT_GT(arrivals[2], arrivals[1] + FromMicros(900));
}

TEST(Network, PartitionBlocksBothDirections) {
  Fixture f;
  int delivered = 0;
  NodeId a = f.net.Register("a", [&](NodeId, MessagePtr) { ++delivered; });
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });
  f.net.Partition(a, b);
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.net.Send(b, a, std::make_shared<TestMsg>());
  f.sched.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.net.MessagesDropped(), 2u);

  f.net.Heal(a, b);
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.sched.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, HealAllClearsEverything) {
  Fixture f;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [](NodeId, MessagePtr) {});
  NodeId c = f.net.Register("c", [](NodeId, MessagePtr) {});
  f.net.Partition(a, b);
  f.net.Partition(b, c);
  f.net.HealAll();
  EXPECT_FALSE(f.net.IsPartitioned(a, b));
  EXPECT_FALSE(f.net.IsPartitioned(b, c));
}

TEST(Network, CrashedNodeDropsTraffic) {
  Fixture f;
  int delivered = 0;
  NodeId a = f.net.Register("a", [&](NodeId, MessagePtr) { ++delivered; });
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });
  f.net.Crash(b);
  EXPECT_TRUE(f.net.IsCrashed(b));
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.net.Send(b, a, std::make_shared<TestMsg>());
  f.sched.Run();
  EXPECT_EQ(delivered, 0);

  f.net.Revive(b);
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.sched.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, CrashWhileInFlightDropsAtDelivery) {
  Fixture f;
  int delivered = 0;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.net.Crash(b);  // crash before the in-flight message lands
  f.sched.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(Network, LossProbabilityDropsRoughlyThatFraction) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.loss_probability = 0.5;
  Network net(sched, Rng(3), cfg);
  int delivered = 0;
  NodeId a = net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });
  for (int i = 0; i < 2000; ++i) net.Send(a, b, std::make_shared<TestMsg>());
  sched.Run();
  EXPECT_NEAR(delivered, 1000, 100);
}

TEST(Network, SelfSendIsFastAndLossless) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.loss_probability = 1.0;  // even with full loss, loopback delivers
  Network net(sched, Rng(5), cfg);
  bool got = false;
  NodeId a = net.Register("a", [&](NodeId, MessagePtr) { got = true; });
  net.Send(a, a, std::make_shared<TestMsg>());
  sched.Run();
  EXPECT_TRUE(got);
  EXPECT_LE(sched.Now(), FromMicros(5));
}

TEST(Network, CountsBytes) {
  Fixture f;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [](NodeId, MessagePtr) {});
  f.net.Send(a, b, std::make_shared<TestMsg>(1000));
  EXPECT_EQ(f.net.BytesSent(),
            1000 + f.net.Config().per_message_overhead_bytes);
}

TEST(Network, TracksBytesInFlight) {
  Fixture f;
  const std::size_t overhead = f.net.Config().per_message_overhead_bytes;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [](NodeId, MessagePtr) {});
  NodeId c = f.net.Register("c", [](NodeId, MessagePtr) {});

  // Send: both messages are on the wire until they land.
  f.net.Send(a, b, std::make_shared<TestMsg>(500));
  f.net.Send(a, c, std::make_shared<TestMsg>(300));
  EXPECT_EQ(f.net.BytesInFlight(), 800 + 2 * overhead);

  // A crash at delivery time drops c's message and releases its bytes, just
  // as b's delivery releases its own.
  f.net.Crash(c);
  f.sched.Run();
  EXPECT_EQ(f.net.MessagesDelivered(), 1u);
  EXPECT_EQ(f.net.MessagesDropped(), 1u);
  EXPECT_EQ(f.net.BytesInFlight(), 0u);

  // A send-time drop never goes on the wire, so it is never counted.
  f.net.Send(a, c, std::make_shared<TestMsg>(700));
  EXPECT_EQ(f.net.MessagesDropped(), 2u);
  EXPECT_EQ(f.net.BytesInFlight(), 0u);
  EXPECT_EQ(f.net.BytesSent(), 1500 + 3 * overhead);
}

TEST(Network, ConnectionDeliveryIsFifo) {
  Fixture f;
  std::vector<int> tags;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr msg) {
    tags.push_back(std::dynamic_pointer_cast<const TestMsg>(msg)->Tag());
  });
  // Many small back-to-back messages: jitter must never reorder them.
  for (int i = 0; i < 200; ++i) {
    f.net.Send(a, b, std::make_shared<TestMsg>(64, i));
  }
  f.sched.Run();
  ASSERT_EQ(tags.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(tags[static_cast<size_t>(i)], i);
}

TEST(Network, NamesAreStored) {
  Fixture f;
  NodeId a = f.net.Register("alpha", [](NodeId, MessagePtr) {});
  EXPECT_EQ(f.net.NameOf(a), "alpha");
}

TEST(Network, ReviveBeforeDeliveryLetsInFlightMessageLand) {
  Fixture f;
  int delivered = 0;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.net.Crash(b);
  f.net.Revive(b);  // revived before the in-flight message lands
  f.sched.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, SetLossProbabilityTakesEffectMidRun) {
  Scheduler sched;
  Network net(sched, Rng(7), NetworkConfig{});
  int delivered = 0;
  NodeId a = net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = net.Register("b", [&](NodeId, MessagePtr) { ++delivered; });

  for (int i = 0; i < 500; ++i) net.Send(a, b, std::make_shared<TestMsg>());
  sched.Run();
  EXPECT_EQ(delivered, 500);  // lossless baseline

  net.SetLossProbability(1.0);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 1.0);
  for (int i = 0; i < 100; ++i) net.Send(a, b, std::make_shared<TestMsg>());
  sched.Run();
  EXPECT_EQ(delivered, 500);  // everything in the window dropped

  net.SetLossProbability(0.0);  // the injector restores the baseline
  for (int i = 0; i < 100; ++i) net.Send(a, b, std::make_shared<TestMsg>());
  sched.Run();
  EXPECT_EQ(delivered, 600);
}

// The chaos harness depends on runs being reproducible: the same seed and
// the same fault schedule must produce the exact same drop count.
TEST(Network, LossDropsAreDeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Scheduler sched;
    NetworkConfig cfg;
    cfg.loss_probability = 0.3;
    Network net(sched, Rng(seed), cfg);
    NodeId a = net.Register("a", [](NodeId, MessagePtr) {});
    NodeId b = net.Register("b", [](NodeId, MessagePtr) {});
    for (int i = 0; i < 1000; ++i) {
      net.Send(a, b, std::make_shared<TestMsg>());
    }
    sched.Run();
    return net.MessagesDropped();
  };
  const std::uint64_t drops = run(11);
  EXPECT_EQ(run(11), drops);      // bit-identical replay
  EXPECT_NE(run(12), drops);      // and the seed actually matters
}

TEST(Network, CrashDropsCountedInMessagesDropped) {
  Fixture f;
  NodeId a = f.net.Register("a", [](NodeId, MessagePtr) {});
  NodeId b = f.net.Register("b", [](NodeId, MessagePtr) {});
  f.net.Crash(b);
  f.net.Send(a, b, std::make_shared<TestMsg>());
  f.net.Send(b, a, std::make_shared<TestMsg>());
  f.sched.Run();
  EXPECT_EQ(f.net.MessagesDropped(), 2u);
  EXPECT_EQ(f.net.MessagesDelivered(), 0u);
}

}  // namespace
}  // namespace fabricsim::sim
