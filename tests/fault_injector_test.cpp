// FaultInjector edge cases the chaos fuzzer hits immediately: double
// crashes, revives of healthy nodes, partitions naming crashed nodes, and
// overlapping loss/slowdown windows. Each behavior is pinned so fuzz
// campaigns can rely on it.
#include <gtest/gtest.h>

#include <string>

#include "fabric/experiment.h"
#include "fabric/network_builder.h"
#include "faults/fault_injector.h"
#include "faults/fault_schedule.h"

namespace fabricsim {
namespace {

struct InjectorFixture {
  explicit InjectorFixture(fabric::OrderingType ordering =
                               fabric::OrderingType::kRaft) {
    fabric::NetworkOptions options;
    options.topology.ordering = ordering;
    options.topology.endorsing_peers = 2;
    options.topology.osns = 3;
    net = std::make_unique<fabric::FabricNetwork>(options);
    net->Start();
  }

  void Arm(const std::string& spec) {
    injector = std::make_unique<faults::FaultInjector>(
        *net, faults::FaultSchedule::Parse(spec));
    injector->Arm();
  }

  void RunUntil(double seconds) {
    net->Env().Sched().RunUntil(sim::FromSeconds(seconds));
  }

  [[nodiscard]] sim::NodeId Osn(std::size_t i) const {
    return net->OsnNetIds(0).at(i);
  }

  [[nodiscard]] sim::Cpu& OrdererCpu(const std::string& name) {
    for (std::size_t i = 0; i < net->Env().MachineCount(); ++i) {
      if (net->Env().MachineAt(i).Name() == name) {
        return net->Env().MachineAt(i).GetCpu();
      }
    }
    throw std::logic_error("no machine " + name);
  }

  [[nodiscard]] bool LogContains(const std::string& needle) const {
    return injector->LogText().find(needle) != std::string::npos;
  }

  std::unique_ptr<fabric::FabricNetwork> net;
  std::unique_ptr<faults::FaultInjector> injector;
};

TEST(FaultInjector, CrashOfAlreadyCrashedNodeIsIdempotent) {
  InjectorFixture f;
  // The window at 2-3s hits a node the permanent crash already took down;
  // its undo must NOT revive it (the window crashed nothing).
  f.Arm("crash:osn0@1s,crash:osn0@2s-3s");
  f.RunUntil(1.5);
  EXPECT_TRUE(f.net->Env().Net().IsCrashed(f.Osn(0)));
  f.RunUntil(4.0);
  EXPECT_TRUE(f.net->Env().Net().IsCrashed(f.Osn(0)))
      << "overlapping crash window revived a node it never crashed:\n"
      << f.injector->LogText();
  EXPECT_TRUE(f.LogContains("(already down)"));
}

TEST(FaultInjector, ReviveOfNeverCrashedNodeIsNoop) {
  InjectorFixture f;
  f.Arm("revive:osn1@1s");
  f.RunUntil(2.0);
  EXPECT_FALSE(f.net->Env().Net().IsCrashed(f.Osn(1)));
  EXPECT_TRUE(f.LogContains("(already up)"));
}

TEST(FaultInjector, BareReviveWithNothingCrashedIsNoop) {
  InjectorFixture f;
  f.Arm("revive@1s");
  f.RunUntil(2.0);
  EXPECT_EQ(f.injector->Log().size(), 0u);
}

TEST(FaultInjector, PartitionMayNameCrashedNode) {
  InjectorFixture f;
  f.Arm("crash:osn0@1s,partition:osn0|osn1@2s-4s,revive:osn0@3s");
  // Must not throw; after revive the partition still cuts osn0 from osn1
  // until the window heals it.
  f.RunUntil(5.0);
  EXPECT_FALSE(f.net->Env().Net().IsCrashed(f.Osn(0)));
  EXPECT_TRUE(f.LogContains("partition"));
  EXPECT_TRUE(f.LogContains("heal partition"));
}

TEST(FaultInjector, OverlappingLossWindowsRestoreInOrder) {
  InjectorFixture f;
  f.Arm("loss:0.2@1s-5s,loss:0.5@2s-3s");
  auto& net = f.net->Env().Net();
  f.RunUntil(1.5);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.2);
  f.RunUntil(2.5);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.5);
  // Inner window closes -> back to the still-open outer window's value,
  // not to the pre-fault baseline.
  f.RunUntil(3.5);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.2);
  f.RunUntil(6.0);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.0);
}

TEST(FaultInjector, StraddlingLossWindowsDoNotLeakFaultedBaseline) {
  InjectorFixture f;
  // Window B opens while A is active and closes after A: the old
  // capture-at-fire logic would "restore" A's value forever.
  f.Arm("loss:0.3@1s-3s,loss:0.6@2s-4s");
  auto& net = f.net->Env().Net();
  f.RunUntil(2.5);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.6);
  f.RunUntil(3.5);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.6);
  f.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(net.Config().loss_probability, 0.0);
}

TEST(FaultInjector, OverlappingSlowWindowsCompoundAndUnwind) {
  InjectorFixture f;
  f.Arm(
      "slow:orderer-machine0:0.5@1s-5s,"
      "slow:orderer-machine0:0.5@2s-3s");
  auto& cpu = f.OrdererCpu("orderer-machine0");
  const double base = 1.0;
  f.RunUntil(1.5);
  EXPECT_NEAR(cpu.SpeedFactor(), 0.5 * base, 1e-9);
  f.RunUntil(2.5);
  EXPECT_NEAR(cpu.SpeedFactor(), 0.25 * base, 1e-9);
  f.RunUntil(3.5);
  EXPECT_NEAR(cpu.SpeedFactor(), 0.5 * base, 1e-9);
  f.RunUntil(6.0);
  EXPECT_NEAR(cpu.SpeedFactor(), base, 1e-9);
}

TEST(FaultInjector, PermanentSlowFoldsIntoBaseline) {
  InjectorFixture f;
  f.Arm("slow:orderer-machine0:0.5@1s,slow:orderer-machine0:0.5@2s-3s");
  auto& cpu = f.OrdererCpu("orderer-machine0");
  f.RunUntil(2.5);
  EXPECT_NEAR(cpu.SpeedFactor(), 0.25, 1e-9);
  // The window unwinds to the permanently-slowed speed, not full speed.
  f.RunUntil(4.0);
  EXPECT_NEAR(cpu.SpeedFactor(), 0.5, 1e-9);
}

TEST(FaultInjector, OverlappingSlowDiskWindowsUnwind) {
  InjectorFixture f;
  const std::string peer =
      f.net->Env().Net().NameOf(f.net->Peer(0).NetId());
  f.Arm("slowdisk:" + peer + ":0.25@1s-4s,slowdisk:" + peer + ":0.5@2s-3s");
  auto& disk = f.net->Peer(0).MutableDisk();
  f.RunUntil(2.5);
  EXPECT_NEAR(disk.SpeedFactor(), 0.125, 1e-9);
  f.RunUntil(3.5);
  EXPECT_NEAR(disk.SpeedFactor(), 0.25, 1e-9);
  f.RunUntil(5.0);
  EXPECT_NEAR(disk.SpeedFactor(), 1.0, 1e-9);
}

TEST(FaultInjector, UnknownTargetThrowsAtArm) {
  InjectorFixture f;
  const std::size_t pending = f.net->Env().Sched().PendingEvents();
  // The valid first event must not be scheduled either: a rejected schedule
  // leaves the run untouched.
  EXPECT_THROW(f.Arm("crash:osn0@1s,crash:no-such-node@2s"),
               std::invalid_argument);
  EXPECT_EQ(f.net->Env().Sched().PendingEvents(), pending);
  EXPECT_THROW(f.Arm("crash:broker0@1s"), std::invalid_argument);  // no Kafka
  EXPECT_THROW(f.Arm("slow:no-such-machine:0.5@1s"), std::invalid_argument);
  EXPECT_THROW(f.Arm("forge-endorsement:osn0@1s-2s"), std::invalid_argument);
}

TEST(FaultInjector, ExperimentRejectsUnknownTarget) {
  fabric::ExperimentConfig config;
  config.workload.duration = sim::FromSeconds(10);
  config.faults = "crash:peer99@10s-12s";
  EXPECT_THROW((void)fabric::RunExperiment(config), std::invalid_argument);
}

TEST(FaultInjector, WindowedLeaderCrashRevivesTheCrashedNode) {
  InjectorFixture f;
  f.Arm("crash:leader@1s-3s");
  f.RunUntil(2.0);
  int crashed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    crashed += f.net->Env().Net().IsCrashed(f.Osn(i)) ? 1 : 0;
  }
  EXPECT_EQ(crashed, 1);
  f.RunUntil(4.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(f.net->Env().Net().IsCrashed(f.Osn(i)));
  }
}

}  // namespace
}  // namespace fabricsim
