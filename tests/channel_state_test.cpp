// Oracle for the shared channel state: after a faulty run, every peer's
// world state as of its own height must equal a fresh StateDb replayed from
// that peer's own committed blocks and validation codes, and its chain must
// answer as a private chain replayed from them — whether the peer followed
// the channel's leaders throughout, or detached when it crashed or was
// handed an equivocated block. The channel itself must keep nothing below
// the committers still attached to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chaincode/smallbank.h"
#include "client/workload.h"
#include "fabric/network_builder.h"
#include "faults/fault_injector.h"
#include "faults/fault_schedule.h"
#include "ledger/mvcc.h"

namespace fabricsim {
namespace {

constexpr std::size_t kSeededAccounts = 8;
constexpr std::int64_t kSeededBalance = 500;

// peer.endorse1 and peer.commit5 (the second committing peer) go down
// while the ordering leader fails over, so clients resubmit; the
// equivocating OSN forks the block stream some peers see, until
// attestation quarantines it (Kafka, Raft) or for good (Solo, whose one
// OSN nobody can attest against).
constexpr const char* kCrash =
    "crash:peer.endorse1|peer.commit5@10s,crash:leader@12s,revive@16s";
constexpr const char* kEquivocate = "equivocate:osn0@10s-15s";

struct Case {
  fabric::OrderingType ordering;
  const char* faults;
  // Each peer's DuplicateTxRejects() at the end of the run.
  std::vector<std::uint64_t> duplicates;
};

/// A block as a peer committed it.
struct Committed {
  proto::BlockPtr block;
  std::vector<proto::ValidationCode> codes;
};

/// The genesis state FabricNetwork::BuildLedgers writes.
ledger::StateDb GenesisState() {
  ledger::StateDb db;
  const proto::Bytes balance = proto::ToBytes(std::to_string(kSeededBalance));
  for (std::size_t a = 0; a < kSeededAccounts; ++a) {
    const std::string acct = "acct" + std::to_string(a);
    db.Put("token", acct, balance, {0, 0});
    db.Put("smallbank", chaincode::SmallBankChaincode::CheckingKey(acct),
           balance, {0, 0});
    db.Put("smallbank", chaincode::SmallBankChaincode::SavingsKey(acct),
           balance, {0, 0});
  }
  db.SetHeight(1);
  return db;
}

void ExpectSameState(ledger::StateView got, ledger::StateView want,
                     const std::string& who) {
  EXPECT_EQ(got.KeyCount(), want.KeyCount()) << who;
  for (const char* ns : {"kvwrite", "token", "smallbank"}) {
    const auto a = got.GetRange(ns, "", "");
    const auto b = want.GetRange(ns, "", "");
    ASSERT_EQ(a.size(), b.size()) << who << " " << ns;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].first, b[i].first) << who << " " << ns;
      EXPECT_EQ(a[i].second.value, b[i].second.value) << who << " " << a[i].first;
      EXPECT_EQ(a[i].second.version, b[i].second.version)
          << who << " " << a[i].first;
    }
  }
}

/// A peer's chain, whether a view of the channel's shared log or forked
/// onto a private one, must answer as a private chain with the configured
/// retention `retain_blocks` replayed from the peer's own blocks and codes:
/// height, tip, window, every block and its codes, and the tx-id index over
/// `probes`.
void ExpectSameChain(const ledger::Blockchain& chain,
                     const std::vector<Committed>& committed,
                     const std::vector<std::string>& probes,
                     std::uint64_t retain_blocks, const std::string& who) {
  const ledger::BlockStore& store = chain.Store();
  ledger::Blockchain replay;
  replay.MutableStore().SetRetention(retain_blocks);
  for (const Committed& c : committed) {
    ASSERT_TRUE(replay.Append(c.block, c.codes))
        << who << " block " << c.block->header.number;
  }
  EXPECT_EQ(chain.Height(), replay.Height()) << who;
  EXPECT_EQ(chain.TipHash(), replay.TipHash()) << who;
  EXPECT_TRUE(chain.Audit().ok) << who;
  const ledger::BlockStore& want = replay.Store();
  EXPECT_EQ(store.FirstBlockNumber(), want.FirstBlockNumber()) << who;
  EXPECT_EQ(store.TxCount(), want.TxCount()) << who;
  EXPECT_EQ(store.StoredBytes(), want.StoredBytes()) << who;
  for (std::uint64_t n = 0; n <= store.Height(); ++n) {
    EXPECT_EQ(store.GetBlock(n), want.GetBlock(n)) << who << " block " << n;
    EXPECT_EQ(store.CodesFor(n), want.CodesFor(n)) << who << " block " << n;
  }
  for (const std::string& id : probes) {
    EXPECT_EQ(store.HasTransaction(id), want.HasTransaction(id)) << who;
    const auto a = store.FindTransaction(id);
    const auto b = want.FindTransaction(id);
    ASSERT_EQ(a.has_value(), b.has_value()) << who << " " << id;
    if (a) {
      EXPECT_EQ(a->block_num, b->block_num) << who << " " << id;
      EXPECT_EQ(a->tx_index, b->tx_index) << who << " " << id;
    }
  }
}

/// Runs `c` with ledger and OSN retention of `retain_blocks` (0 = every
/// block) and checks every peer, and the channel they share, against
/// replays of what each peer committed.
void CheckChannelState(const Case& c, std::uint64_t retain_blocks) {
  const faults::FaultSchedule schedule = faults::FaultSchedule::Parse(c.faults);
  fabric::NetworkOptions options;
  options.topology.ordering = c.ordering;
  options.topology.endorsing_peers = 4;
  options.topology.committing_peers = 2;
  options.topology.osns = 3;
  options.topology.kafka_brokers = 3;
  options.topology.zookeepers = 3;
  options.seeded_accounts = kSeededAccounts;
  options.seeded_balance = kSeededBalance;
  options.recovery.enabled = true;
  options.retention.ledger_blocks = retain_blocks;
  options.retention.osn_history_blocks = retain_blocks;
  options.byzantine_defense = schedule.HasByzantine();
  options.seed = 11;
  fabric::FabricNetwork net(options);
  faults::FaultInjector injector(net, schedule);
  injector.Arm();
  net.Start();

  // Read-modify-write over a small key space: overwrites, MVCC conflicts
  // and reads of keys other peers have already overwritten.
  client::WorkloadConfig wl;
  wl.kind = client::WorkloadKind::kKvReadWrite;
  wl.rate_tps = 120;
  wl.key_space = 40;
  wl.start = sim::FromSeconds(5);
  wl.duration = sim::FromSeconds(20);
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();
  // Each peer's blocks are collected as they commit, before retention can
  // prune them.
  std::vector<std::vector<Committed>> committed(net.PeerCount());
  for (sim::SimTime t = 0; t < sim::FromSeconds(40);) {
    t += sim::FromMillis(250);
    net.Env().Sched().RunUntil(t);
    for (std::size_t p = 0; p < net.PeerCount(); ++p) {
      const ledger::BlockStore& store =
          net.Peer(p).GetCommitter().Chain().Store();
      for (std::uint64_t n = committed[p].size(); n < store.Height(); ++n) {
        ASSERT_NE(store.GetBlock(n), nullptr) << "block " << n << " pruned";
        committed[p].push_back({store.GetBlock(n), store.CodesFor(n)});
      }
    }
  }

  // Ids to probe every peer's tx-id index with: every id any peer
  // committed, resubmitted ones (committed more than once) among them, so a
  // peer is also asked about ids that only peers above its height, or
  // blocks below its window, hold.
  std::map<std::string, int> occurrences;
  for (const auto& blocks : committed) {
    for (const Committed& c : blocks) {
      for (const auto& tx : c.block->transactions) ++occurrences[tx.tx_id];
    }
  }
  std::vector<std::string> probes;
  std::size_t resubmitted = 0;
  for (const auto& [id, count] : occurrences) {
    const bool repeated = count > static_cast<int>(net.PeerCount());
    resubmitted += repeated ? 1 : 0;
    if (repeated || probes.size() % 7 == 0) probes.push_back(id);
  }
  EXPECT_EQ(resubmitted > 0, c.duplicates.front() > 0);

  std::vector<std::uint64_t> duplicates;
  std::optional<crypto::Digest> shared_tip;
  const peer::ChannelState* shared = nullptr;
  std::uint64_t lowest_first = ~std::uint64_t{0};
  std::uint64_t lowest_height = ~std::uint64_t{0};
  for (std::size_t p = 0; p < net.PeerCount(); ++p) {
    const peer::Committer& committer = net.Peer(p).GetCommitter();
    const ledger::BlockStore& store = committer.Chain().Store();
    ASSERT_GT(store.Height(), 5u);
    ASSERT_EQ(committed[p].size(), store.Height());
    ledger::StateDb replay = GenesisState();
    for (std::size_t n = 1; n < committed[p].size(); ++n) {
      ledger::MvccValidator::Commit(*committed[p][n].block,
                                    committed[p][n].codes, replay);
    }
    EXPECT_EQ(committer.State().Height(), store.Height());
    ExpectSameState(committer.State(), replay, "peer " + std::to_string(p));
    ExpectSameChain(committer.Chain(), committed[p], probes, retain_blocks,
                    "peer " + std::to_string(p));
    duplicates.push_back(committer.DuplicateTxRejects());
    // Crashed peers detached; every peer still sharing is on one chain.
    const std::string name = net.Env().Net().NameOf(net.Peer(p).NetId());
    if (c.faults == kCrash) {
      EXPECT_EQ(committer.SharesState(),
                name != "peer.endorse1" && name != "peer.commit5")
          << name;
    }
    if (committer.SharesState()) {
      if (!shared_tip) shared_tip = committer.Chain().TipHash();
      EXPECT_EQ(committer.Chain().TipHash(), *shared_tip) << name;
      if (shared == nullptr) shared = &committer.Channel();
      EXPECT_EQ(&committer.Channel(), shared) << name;
      lowest_first = std::min(lowest_first, store.FirstBlockNumber());
      lowest_height = std::min(lowest_height, store.Height());
    }
  }
  EXPECT_EQ(duplicates, c.duplicates);

  // The channel keeps nothing below the committers still attached to it:
  // its log holds no block below the lowest of their windows, and with
  // every one of them at the head its state keeps no superseded version
  // and it holds no verdict.
  ASSERT_NE(shared, nullptr);
  const ledger::BlockLog& log = *shared->blocks;
  EXPECT_EQ(log.Height() - log.ResidentBlocks(), lowest_first);
  EXPECT_EQ(log.OldestHeight(), lowest_height);
  ASSERT_EQ(lowest_height, log.Height());
  EXPECT_EQ(shared->state.RetainedVersions(), 0u);
  EXPECT_TRUE(shared->verdicts.empty());
}

class ChannelStateOracle : public ::testing::TestWithParam<Case> {};

TEST_P(ChannelStateOracle, EveryPeerMatchesAReplayOfItsOwnChain) {
  CheckChannelState(GetParam(), 0);
}

// The duplicate counts are those of peers that each validate every block
// on a private state; only the Kafka failover makes clients resubmit
// transactions that already committed.
const Case kCases[] = {
    {fabric::OrderingType::kSolo, kCrash, {0, 0, 0, 0, 0, 0}},
    {fabric::OrderingType::kKafka, kCrash, {377, 377, 377, 377, 377, 377}},
    {fabric::OrderingType::kRaft, kCrash, {0, 0, 0, 0, 0, 0}},
    {fabric::OrderingType::kSolo, kEquivocate, {0, 0, 0, 0, 0, 0}},
    {fabric::OrderingType::kKafka, kEquivocate, {0, 0, 0, 0, 0, 0}},
    {fabric::OrderingType::kRaft, kEquivocate, {0, 0, 0, 0, 0, 0}},
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const char* names[] = {"Solo", "Kafka", "Raft"};
  return std::string(names[static_cast<int>(info.param.ordering)]) +
         (info.param.faults == kCrash ? "Crash" : "Equivocate");
}

INSTANTIATE_TEST_SUITE_P(Faults, ChannelStateOracle,
                         ::testing::ValuesIn(kCases), CaseName);

// With a 16-block window, peers prune the blocks below it while the
// channel's log keeps none below the lowest attached committer's window.
TEST(ChannelStateOracleRetention, RaftCrashRetain16) {
  CheckChannelState({fabric::OrderingType::kRaft, kCrash, {0, 0, 0, 0, 0, 0}},
                    16);
}

// Every committer is built on its channel's ledger. In a default network
// the committers of a channel all hold the same one; with a failpoint that
// turns a committer check off, each starts on a private copy, seeded
// accounts included. Every view keeps the channel's retention.
TEST(ChannelLedgers, CommittersAreBuiltOnTheirChannel) {
  struct Variant {
    const char* name;
    fabric::FailpointOptions failpoints;
    bool shared;
  };
  Variant variants[] = {{"default", {}, true},
                        {"no-committer-dedup", {}, false},
                        {"no-byzantine-defense", {}, false}};
  variants[1].failpoints.disable_committer_dedup = true;
  variants[2].failpoints.disable_byzantine_defense = true;
  constexpr std::uint64_t kRetain = 7;
  for (const Variant& v : variants) {
    fabric::NetworkOptions options;
    options.topology.endorsing_peers = 2;
    options.topology.committing_peers = 2;
    options.channels = 2;
    options.seeded_accounts = kSeededAccounts;
    options.seeded_balance = kSeededBalance;
    options.retention.ledger_blocks = kRetain;
    options.failpoints = v.failpoints;
    fabric::FabricNetwork net(options);
    for (int ch = 0; ch < net.ChannelCount(); ++ch) {
      const std::string channel = net.ChannelId(ch);
      std::set<const peer::ChannelState*> ledgers;
      for (std::size_t p = 0; p < net.PeerCount(); ++p) {
        const std::string who =
            std::string(v.name) + " " + channel + " peer " + std::to_string(p);
        const peer::Committer& c = net.Peer(p).GetCommitter(channel);
        ledgers.insert(&c.Channel());
        EXPECT_EQ(c.SharesState(), v.shared) << who;
        EXPECT_EQ(c.Chain().Height(), 1u) << who;
        EXPECT_EQ(c.Chain().Store().Retention(), kRetain) << who;
        const auto balance = c.State().Get("token", "acct0");
        ASSERT_TRUE(balance.has_value()) << who;
        EXPECT_EQ(balance->value,
                  proto::ToBytes(std::to_string(kSeededBalance)))
            << who;
      }
      EXPECT_EQ(ledgers.size(), v.shared ? 1u : net.PeerCount()) << v.name;
    }
  }
}

}  // namespace
}  // namespace fabricsim
