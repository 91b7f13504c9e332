// Oracle self-tests: prove CheckInvariants actually fires on deliberately
// broken ledgers. The chaos fuzzer's "all green" verdict is only meaningful
// if every violation class is known to be detectable.
#include <gtest/gtest.h>

#include <string>

#include "fabric/experiment.h"
#include "fabric/network_builder.h"
#include "faults/invariants.h"
#include "proto/block.h"

namespace fabricsim {
namespace {

bool HasViolation(const faults::InvariantReport& report,
                  const std::string& invariant) {
  for (const auto& v : report.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

fabric::NetworkOptions SmallOptions() {
  fabric::NetworkOptions options;
  options.topology.ordering = fabric::OrderingType::kRaft;
  options.topology.endorsing_peers = 2;
  options.topology.osns = 3;
  return options;
}

proto::TransactionEnvelope MakeTx(const std::string& tx_id,
                                  const std::string& channel) {
  proto::TransactionEnvelope tx;
  tx.channel_id = channel;
  tx.tx_id = tx_id;
  return tx;
}

/// Appends a hand-crafted block (correct linkage, so chain-audit stays
/// green) carrying `tx_id` to one peer's chain.
void AppendBlock(fabric::FabricNetwork& net, std::size_t peer,
                 const std::string& tx_id,
                 std::vector<proto::ValidationCode> codes = {}) {
  auto& chain = net.Peer(peer).GetCommitter().MutableChainForTest();
  const crypto::Digest prev =
      chain.Store().GetBlock(chain.Height() - 1)->header.Hash();
  auto block = std::make_shared<proto::Block>(proto::Block::Make(
      chain.Height(), &prev, {MakeTx(tx_id, net.ChannelId(0))}));
  ASSERT_TRUE(chain.Append(std::move(block), std::move(codes)));
}

TEST(InvariantsOracle, GreenRunIsNonVacuous) {
  fabric::ExperimentConfig config;
  config.network = SmallOptions();
  config.workload.rate_tps = 40.0;
  config.workload.duration = sim::FromSeconds(8);
  config.warmup = sim::FromSeconds(5);
  config.drain = sim::FromSeconds(10);
  config.check_invariants = true;

  const auto result = fabric::RunExperiment(config);
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();
  // The all-clear must come from real work, not an empty scan.
  EXPECT_GT(result.invariants->chains_audited, 0u);
  EXPECT_GT(result.invariants->blocks_compared, 0u);
  EXPECT_GT(result.invariants->txs_checked, 0u);
  EXPECT_GT(result.client_committed_valid, 0u);
}

TEST(InvariantsOracle, ForkedChainIsDetected) {
  fabric::FabricNetwork net(SmallOptions());
  // Two peers commit different block 1s: a textbook fork.
  AppendBlock(net, 0, "fork-branch-a");
  AppendBlock(net, 1, "fork-branch-b");

  const auto report = faults::CheckInvariants(net);
  EXPECT_FALSE(report.Ok());
  EXPECT_TRUE(HasViolation(report, "chain-fork")) << report.Summary();
}

TEST(InvariantsOracle, PhantomCommitIsDetected) {
  fabric::FabricNetwork net(SmallOptions());
  // Every peer commits the same block whose tx was never submitted by any
  // client: no fork, but the tx materialized from nowhere.
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    AppendBlock(net, i, "phantom-tx");
  }

  const auto report = faults::CheckInvariants(net);
  EXPECT_FALSE(report.Ok());
  EXPECT_TRUE(HasViolation(report, "phantom-commit")) << report.Summary();
  EXPECT_FALSE(HasViolation(report, "chain-fork")) << report.Summary();
}

TEST(InvariantsOracle, DoubleCommitIsDetected) {
  fabric::FabricNetwork net(SmallOptions());
  net.Tracker().MarkSubmitted("dup-tx", 0);
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    AppendBlock(net, i, "dup-tx", {proto::ValidationCode::kValid});
    AppendBlock(net, i, "dup-tx", {proto::ValidationCode::kValid});
  }

  const auto report = faults::CheckInvariants(net);
  EXPECT_FALSE(report.Ok());
  EXPECT_TRUE(HasViolation(report, "double-commit")) << report.Summary();
  EXPECT_FALSE(HasViolation(report, "phantom-commit")) << report.Summary();
}

TEST(InvariantsOracle, SilentDropIsDetected) {
  fabric::ExperimentConfig config;
  config.network = SmallOptions();
  config.network.failpoints.client_silent_drop_every = 7;
  config.workload.rate_tps = 40.0;
  config.workload.duration = sim::FromSeconds(8);
  config.warmup = sim::FromSeconds(5);
  config.drain = sim::FromSeconds(10);
  config.check_invariants = true;

  const auto result = fabric::RunExperiment(config);
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_FALSE(result.invariants->Ok());
  EXPECT_TRUE(HasViolation(*result.invariants, "silent-drop"))
      << result.invariants->Summary();
}

// Retention prunes the oldest blocks from every ledger and OSN history. The
// checks must skip what is gone instead of dereferencing it (this is the
// `fabricsim_cli --retain-blocks=5 --check-invariants` configuration, which
// used to segfault under every ordering service) and still cover the
// resident blocks.
class RetainedInvariants
    : public ::testing::TestWithParam<fabric::OrderingType> {};

TEST_P(RetainedInvariants, PrunedChainsPassTheChecks) {
  fabric::ExperimentConfig config;
  config.network.topology.ordering = GetParam();
  config.network.retention.ledger_blocks = 5;
  config.network.retention.osn_history_blocks = 5;
  config.workload.rate_tps = 200.0;
  config.workload.duration = sim::FromSeconds(10);
  config.check_invariants = true;

  const auto result = fabric::RunExperiment(config);
  ASSERT_TRUE(result.invariants.has_value());
  EXPECT_TRUE(result.invariants->Ok()) << result.invariants->Summary();
  EXPECT_TRUE(result.chain_audit_ok);
  EXPECT_GT(result.chain_height, 10u);  // far more blocks than are retained
  EXPECT_GT(result.invariants->blocks_compared, 0u);
  EXPECT_GT(result.invariants->txs_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, RetainedInvariants,
                         ::testing::Values(fabric::OrderingType::kSolo,
                                           fabric::OrderingType::kKafka,
                                           fabric::OrderingType::kRaft),
                         [](const auto& info) {
                           switch (info.param) {
                             case fabric::OrderingType::kSolo:
                               return "Solo";
                             case fabric::OrderingType::kKafka:
                               return "Kafka";
                             case fabric::OrderingType::kRaft:
                               return "Raft";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace fabricsim
