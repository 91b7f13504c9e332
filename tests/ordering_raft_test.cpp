#include "ordering/raft.h"

#include <gtest/gtest.h>

#include "proto/block.h"
#include <map>

#include "sim/machine.h"

namespace fabricsim::ordering {
namespace {

proto::BlockPtr MakeBlock(std::uint64_t number) {
  auto b = std::make_shared<proto::Block>();
  b->header.number = number;
  return b;
}

/// Test harness: N Raft nodes over a simulated network.
class RaftCluster {
 public:
  explicit RaftCluster(int n, std::uint64_t seed = 1,
                       sim::NetworkConfig cfg = {})
      : env_(seed, cfg) {
    applied_.resize(static_cast<std::size_t>(n));
    std::vector<sim::NodeId> ids;
    for (int i = 0; i < n; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i);
      ids.push_back(env_.Net().Register(
          "raft" + std::to_string(i),
          [this, slot](sim::NodeId from, sim::MessagePtr msg) {
            if (slot < nodes_.size() && nodes_[slot]) {
              nodes_[slot]->OnMessage(from, msg);
            }
          }));
    }
    for (int i = 0; i < n; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i);
      nodes_.push_back(std::make_unique<RaftNode>(
          env_.Sched(), env_.Net(), env_.ForkRng(), ids[slot], ids,
          [this, slot](std::uint64_t index, const RaftEntry& e) {
            applied_[slot].emplace_back(index, e.block);
          }));
    }
    ids_ = std::move(ids);
  }

  void StartAll() {
    for (auto& n : nodes_) n->Start();
  }

  void Run(double seconds) {
    env_.Sched().RunUntil(env_.Now() + sim::FromSeconds(seconds));
  }

  [[nodiscard]] int LeaderCount() const {
    int count = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->IsLeader() && !env_.Net().IsCrashed(ids_[i])) ++count;
    }
    return count;
  }

  [[nodiscard]] RaftNode* Leader() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->IsLeader() && !env_.Net().IsCrashed(ids_[i])) {
        return nodes_[i].get();
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t SlotOf(const RaftNode* node) const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].get() == node) return i;
    }
    return SIZE_MAX;
  }

  sim::Environment env_;
  std::vector<sim::NodeId> ids_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  // (raft index, block) in apply order; re-applications after a restart
  // appear again and are reconciled by the safety checks.
  std::vector<std::vector<std::pair<std::uint64_t, proto::BlockPtr>>> applied_;
};

TEST(Raft, ElectsExactlyOneLeader) {
  RaftCluster c(3);
  c.StartAll();
  c.Run(2.0);
  EXPECT_EQ(c.LeaderCount(), 1);
  // All nodes agree on who the leader is.
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  for (auto& n : c.nodes_) {
    ASSERT_TRUE(n->KnownLeader().has_value());
    EXPECT_EQ(*n->KnownLeader(), leader->Id());
  }
}

TEST(Raft, SingleNodeClusterElectsAndCommitsAlone) {
  RaftCluster c(1);
  c.StartAll();
  c.Run(1.0);
  ASSERT_EQ(c.LeaderCount(), 1);
  EXPECT_TRUE(c.nodes_[0]->Propose(MakeBlock(0), 100));
  c.Run(0.5);
  EXPECT_EQ(c.nodes_[0]->CommitIndex(), 1u);
  ASSERT_EQ(c.applied_[0].size(), 1u);
}

TEST(Raft, ProposeReplicatesToAllNodes) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(leader->Propose(MakeBlock(static_cast<std::uint64_t>(i)), 100));
  }
  c.Run(2.0);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(c.applied_[i].size(), 10u) << "node " << i;
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(c.applied_[i][j].first, j + 1);
      EXPECT_EQ(c.applied_[i][j].second, c.applied_[0][j].second);
    }
  }
}

TEST(Raft, FollowerRefusesPropose) {
  RaftCluster c(3);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  for (auto& n : c.nodes_) {
    if (n.get() != leader) {
      EXPECT_FALSE(n->Propose(MakeBlock(0), 100));
    }
  }
}

TEST(Raft, NoCommitWithoutMajority) {
  RaftCluster c(3);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  // Cut the leader off from both followers, then propose.
  for (auto id : c.ids_) {
    if (id != leader->Id()) c.env_.Net().Partition(leader->Id(), id);
  }
  leader->Propose(MakeBlock(0), 100);
  c.Run(1.0);
  EXPECT_EQ(leader->CommitIndex(), 0u);
  for (const auto& applied : c.applied_) EXPECT_TRUE(applied.empty());
}

TEST(Raft, LeaderCrashTriggersFailover) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* old_leader = c.Leader();
  ASSERT_NE(old_leader, nullptr);
  const std::uint64_t old_term = old_leader->Term();

  c.env_.Net().Crash(old_leader->Id());
  c.Run(3.0);

  RaftNode* new_leader = c.Leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);
  EXPECT_GT(new_leader->Term(), old_term);

  // The new leader can commit.
  new_leader->Propose(MakeBlock(0), 100);
  c.Run(2.0);
  const std::size_t slot = c.SlotOf(new_leader);
  EXPECT_EQ(c.applied_[slot].size(), 1u);
}

TEST(Raft, CommittedEntriesSurviveLeaderCrash) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  auto block = MakeBlock(0);
  leader->Propose(block, 100);
  c.Run(1.0);
  ASSERT_GE(leader->CommitIndex(), 1u);

  c.env_.Net().Crash(leader->Id());
  c.Run(3.0);
  RaftNode* new_leader = c.Leader();
  ASSERT_NE(new_leader, nullptr);
  // Leader Completeness: the committed block is in the new leader's log.
  ASSERT_GE(new_leader->LogSize(), 1u);
  EXPECT_EQ(new_leader->EntryAt(1)->block, block);
}

TEST(Raft, IsolatedMinorityCannotElectLeader) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  // Isolate nodes 3 and 4 from everyone (and each other stays connected,
  // but two nodes cannot reach a majority of five).
  for (std::size_t i = 0; i < 3; ++i) {
    c.env_.Net().Partition(c.ids_[3], c.ids_[i]);
    c.env_.Net().Partition(c.ids_[4], c.ids_[i]);
  }
  c.Run(5.0);
  EXPECT_FALSE(c.nodes_[3]->IsLeader());
  EXPECT_FALSE(c.nodes_[4]->IsLeader());
  // The majority side still has a leader.
  EXPECT_EQ(c.LeaderCount(), 1);
}

TEST(Raft, HealedPartitionConverges) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);

  // Partition one follower away, commit entries, then heal.
  std::size_t isolated = (c.SlotOf(leader) + 1) % 5;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i != isolated) c.env_.Net().Partition(c.ids_[isolated], c.ids_[i]);
  }
  for (int i = 0; i < 5; ++i) {
    leader->Propose(MakeBlock(static_cast<std::uint64_t>(i)), 100);
  }
  c.Run(2.0);
  EXPECT_TRUE(c.applied_[isolated].empty());

  c.env_.Net().HealAll();
  c.Run(3.0);
  // The isolated node catches up with the exact same entries.
  ASSERT_EQ(c.applied_[isolated].size(), 5u);
  const std::size_t leader_slot = c.SlotOf(c.Leader());
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(c.applied_[isolated][j].second,
              c.applied_[leader_slot][j].second);
  }
}

TEST(Raft, ToleratesMessageLoss) {
  sim::NetworkConfig lossy;
  lossy.loss_probability = 0.05;
  RaftCluster c(3, /*seed=*/7, lossy);
  c.StartAll();
  c.Run(3.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  int proposed = 0;
  for (int i = 0; i < 20; ++i) {
    leader = c.Leader();
    if (leader != nullptr &&
        leader->Propose(MakeBlock(static_cast<std::uint64_t>(i)), 100)) {
      ++proposed;
    }
    c.Run(0.5);
  }
  c.Run(5.0);
  ASSERT_GT(proposed, 0);
  // Most proposals land despite loss (heartbeat-driven retransmission);
  // proposals made into a leader that lost leadership mid-flight may drop.
  EXPECT_GE(c.applied_[0].size(), static_cast<std::size_t>(proposed) / 2);
}

TEST(Raft, ConflictingSuffixIsOverwritten) {
  // A deposed leader's unreplicated tail must be truncated and replaced by
  // the new leader's entries (the Log Matching repair path).
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* old_leader = c.Leader();
  ASSERT_NE(old_leader, nullptr);

  // Cut the old leader off, then let it append entries that can never
  // commit (they stay in its local log).
  for (auto id : c.ids_) {
    if (id != old_leader->Id()) c.env_.Net().Partition(old_leader->Id(), id);
  }
  auto orphan_a = MakeBlock(100);
  auto orphan_b = MakeBlock(101);
  ASSERT_TRUE(old_leader->Propose(orphan_a, 100));
  ASSERT_TRUE(old_leader->Propose(orphan_b, 100));
  c.Run(1.0);
  EXPECT_EQ(old_leader->LogSize(), 2u);
  EXPECT_EQ(old_leader->CommitIndex(), 0u);

  // The majority elects a new leader and commits different entries.
  c.Run(3.0);
  RaftNode* new_leader = c.Leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, old_leader);
  auto committed_block = MakeBlock(0);
  ASSERT_TRUE(new_leader->Propose(committed_block, 100));
  c.Run(2.0);

  // Heal: the old leader must discard its orphaned tail and adopt the
  // committed entry at index 1.
  c.env_.Net().HealAll();
  c.Run(3.0);
  ASSERT_GE(old_leader->LogSize(), 1u);
  EXPECT_EQ(old_leader->EntryAt(1)->block, committed_block);
  EXPECT_FALSE(old_leader->IsLeader());
  // Its applied sequence contains the committed block, never the orphans.
  const std::size_t slot = c.SlotOf(old_leader);
  for (const auto& [index, block] : c.applied_[slot]) {
    (void)index;
    EXPECT_NE(block, orphan_a);
    EXPECT_NE(block, orphan_b);
  }
}

TEST(Raft, RestartAfterCrashRejoinsWithoutLosingCommittedEntries) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* leader = c.Leader();
  ASSERT_NE(leader, nullptr);
  const std::uint64_t term_before = leader->Term();

  // Commit a prefix, then kill the leader process.
  std::vector<proto::BlockPtr> committed;
  for (int i = 0; i < 3; ++i) {
    committed.push_back(MakeBlock(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(leader->Propose(committed.back(), 100));
  }
  c.Run(1.0);
  ASSERT_GE(leader->CommitIndex(), 3u);
  const std::size_t crashed_slot = c.SlotOf(leader);
  c.env_.Net().Crash(leader->Id());
  c.Run(3.0);

  RaftNode* new_leader = c.Leader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, leader);
  // Term monotonicity: failing over always moves the term forward.
  EXPECT_GT(new_leader->Term(), term_before);
  committed.push_back(MakeBlock(100));
  ASSERT_TRUE(new_leader->Propose(committed.back(), 100));
  c.Run(1.0);

  // The crashed process comes back with persistent state only (term, vote,
  // log survive; volatile role and commit index reset).
  c.env_.Net().Revive(c.ids_[crashed_slot]);
  c.nodes_[crashed_slot]->RestartAfterCrash();
  EXPECT_FALSE(c.nodes_[crashed_slot]->IsLeader());
  EXPECT_GE(c.nodes_[crashed_slot]->Term(), term_before);
  c.Run(3.0);

  // It catches up: every committed entry, in order, nothing lost.
  ASSERT_GE(c.nodes_[crashed_slot]->CommitIndex(), 4u);
  ASSERT_GE(c.nodes_[crashed_slot]->LogSize(), 4u);
  for (std::size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(c.nodes_[crashed_slot]->EntryAt(i + 1)->block, committed[i]);
  }
  // Still exactly one leader, at a term no lower than anything seen.
  EXPECT_EQ(c.LeaderCount(), 1);
  EXPECT_GE(c.Leader()->Term(), new_leader->Term());
}

TEST(Raft, PartitionOfNewLeaderKeepsTermsMonotonicAndEntriesSafe) {
  RaftCluster c(5);
  c.StartAll();
  c.Run(2.0);
  RaftNode* first = c.Leader();
  ASSERT_NE(first, nullptr);
  const std::uint64_t term1 = first->Term();

  // Commit under the first leader, then crash it -> second leader.
  auto block1 = MakeBlock(1);
  ASSERT_TRUE(first->Propose(block1, 100));
  c.Run(1.0);
  ASSERT_GE(first->CommitIndex(), 1u);
  c.env_.Net().Crash(first->Id());
  c.Run(3.0);
  RaftNode* second = c.Leader();
  ASSERT_NE(second, nullptr);
  const std::uint64_t term2 = second->Term();
  EXPECT_GT(term2, term1);

  // Commit under the second leader, then partition IT away -> third leader
  // among the remaining three (still a majority of five).
  auto block2 = MakeBlock(2);
  ASSERT_TRUE(second->Propose(block2, 100));
  c.Run(1.0);
  ASSERT_GE(second->CommitIndex(), 2u);
  for (auto id : c.ids_) {
    if (id != second->Id()) c.env_.Net().Partition(second->Id(), id);
  }
  c.Run(4.0);
  // The partitioned second leader cannot learn it was deposed, so it still
  // claims leadership of term2: the real leader is the one at a higher term.
  RaftNode* third = nullptr;
  for (auto& n : c.nodes_) {
    if (n->IsLeader() && n->Term() > term2 &&
        !c.env_.Net().IsCrashed(n->Id())) {
      third = n.get();
    }
  }
  ASSERT_NE(third, nullptr);
  ASSERT_NE(third, second);
  EXPECT_GT(third->Term(), term2);

  // Leader Completeness through both failovers: entries committed under
  // deposed leaders are in the current leader's log.
  ASSERT_GE(third->LogSize(), 2u);
  EXPECT_EQ(third->EntryAt(1)->block, block1);
  EXPECT_EQ(third->EntryAt(2)->block, block2);

  // And the third leader can still commit new entries.
  auto block3 = MakeBlock(3);
  ASSERT_TRUE(third->Propose(block3, 100));
  c.Run(2.0);
  EXPECT_GE(third->CommitIndex(), 3u);

  // Heal everything: the deposed second leader steps down and converges.
  c.env_.Net().HealAll();
  c.env_.Net().Revive(first->Id());
  c.nodes_[c.SlotOf(first)]->RestartAfterCrash();
  c.Run(3.0);
  EXPECT_EQ(c.LeaderCount(), 1);
  EXPECT_FALSE(second->IsLeader());
  ASSERT_GE(second->LogSize(), 3u);
  EXPECT_EQ(second->EntryAt(3)->block, block3);
}

// Property sweep: random crash/heal schedules; applied logs must always be
// prefix-consistent across nodes (Log Matching + State Machine Safety).
class RaftChaos : public ::testing::TestWithParam<int> {};

TEST_P(RaftChaos, AppliedLogsArePrefixConsistent) {
  sim::NetworkConfig cfg;
  cfg.loss_probability = 0.02;
  RaftCluster c(5, static_cast<std::uint64_t>(GetParam()) * 97 + 13, cfg);
  c.StartAll();
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::uint64_t next_block = 0;

  for (int round = 0; round < 30; ++round) {
    c.Run(0.4);
    // Random fault action.
    const auto action = rng.NextBelow(6);
    const auto victim = c.ids_[rng.NextBelow(5)];
    if (action == 0) {
      c.env_.Net().Crash(victim);
    } else if (action == 1) {
      c.env_.Net().Revive(victim);
      // A revived process restarts with persistent state only.
      for (std::size_t i = 0; i < c.ids_.size(); ++i) {
        if (c.ids_[i] == victim) c.nodes_[i]->RestartAfterCrash();
      }
    } else if (action == 2) {
      c.env_.Net().Partition(victim, c.ids_[rng.NextBelow(5)]);
    } else if (action == 3) {
      c.env_.Net().HealAll();
    }
    // Try to make progress through whoever currently leads.
    if (RaftNode* leader = c.Leader()) {
      leader->Propose(MakeBlock(next_block++), 100);
    }
  }
  c.env_.Net().HealAll();
  for (auto id : c.ids_) c.env_.Net().Revive(id);
  for (std::size_t i = 0; i < c.ids_.size(); ++i) {
    c.nodes_[i]->RestartAfterCrash();
  }
  c.Run(10.0);

  // Safety: for every node, an index is only ever applied with one block
  // (State Machine Safety), and nodes agree on every common index.
  std::vector<std::map<std::uint64_t, proto::BlockPtr>> by_index(5);
  for (std::size_t node = 0; node < 5; ++node) {
    for (const auto& [index, block] : c.applied_[node]) {
      auto [it, inserted] = by_index[node].emplace(index, block);
      ASSERT_EQ(it->second, block)
          << "node " << node << " re-applied index " << index
          << " with a different block (seed " << GetParam() << ")";
      (void)inserted;
    }
  }
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      for (const auto& [index, block] : by_index[a]) {
        auto it = by_index[b].find(index);
        if (it != by_index[b].end()) {
          ASSERT_EQ(it->second, block)
              << "divergence at raft index " << index << " between nodes "
              << a << " and " << b << " (seed " << GetParam() << ")";
        }
      }
    }
  }
  // Liveness after healing: someone leads again.
  EXPECT_EQ(c.LeaderCount(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftChaos, ::testing::Range(0, 12));

}  // namespace
}  // namespace fabricsim::ordering
