// Raft consensus (Ongaro & Ousterhout) — complete single-group
// implementation: randomized leader election, log replication with the
// AppendEntries consistency check, majority commit restricted to
// current-term entries, and follower catch-up via nextIndex backoff.
//
// The Raft ordering service replicates *blocks*: the elected leader runs the
// block cutter, and each cut block becomes one log entry (how Fabric's
// etcd/raft consenter works).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ordering/messages.h"
#include "sim/machine.h"

namespace fabricsim::ordering {

/// One Raft participant. The owner registers a network endpoint, routes
/// incoming raft messages to OnMessage, and receives committed entries via
/// the apply callback (in log order, exactly once per run).
class RaftNode {
 public:
  /// apply(index, entry) is invoked for each newly committed entry.
  using ApplyFn = std::function<void(std::uint64_t index, const RaftEntry&)>;
  /// Called when this node's leadership status changes.
  using LeadershipFn = std::function<void(bool is_leader)>;

  RaftNode(sim::Scheduler& sched, sim::Network& net, sim::Rng rng,
           sim::NodeId self, std::vector<sim::NodeId> group, ApplyFn apply);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Arms the first election timeout. Call once after all nodes exist.
  void Start();

  /// Routes a raft message (RequestVote/Reply, AppendEntries/Reply).
  /// Returns true if the message was a raft type and was consumed.
  bool OnMessage(sim::NodeId from, const sim::MessagePtr& msg);

  /// Leader-only: appends a block to the replicated log and starts
  /// replication. Returns false if this node is not the leader.
  bool Propose(proto::BlockPtr block, std::size_t block_bytes);

  [[nodiscard]] bool IsLeader() const { return role_ == Role::kLeader; }
  [[nodiscard]] std::optional<sim::NodeId> KnownLeader() const;
  [[nodiscard]] std::uint64_t Term() const { return current_term_; }
  [[nodiscard]] std::uint64_t CommitIndex() const { return commit_index_; }
  [[nodiscard]] std::uint64_t LogSize() const { return log_.size(); }

  /// Entry at 1-based `index`, or nullptr if out of range.
  [[nodiscard]] const RaftEntry* EntryAt(std::uint64_t index) const {
    if (index == 0 || index > log_.size()) return nullptr;
    return &log_[index - 1];
  }
  [[nodiscard]] sim::NodeId Id() const { return self_; }

  void SetLeadershipCallback(LeadershipFn fn) { on_leadership_ = std::move(fn); }

  /// Crash-recovery support for tests: forgets volatile state and restarts
  /// timers, keeping persistent state (term, vote, log) as Raft requires.
  void RestartAfterCrash();

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  void BecomeFollower(std::uint64_t term);
  void StartElection();
  void BecomeLeader();
  void ResetElectionTimer();
  void CancelElectionTimer();
  void SendHeartbeats();
  void ReplicateTo(sim::NodeId peer);
  void MaybeAdvanceCommit();
  void ApplyCommitted();

  void HandleRequestVote(sim::NodeId from, const RequestVoteMsg& m);
  void HandleRequestVoteReply(sim::NodeId from, const RequestVoteReplyMsg& m);
  void HandleAppendEntries(sim::NodeId from, const AppendEntriesMsg& m);
  void HandleAppendEntriesReply(sim::NodeId from,
                                const AppendEntriesReplyMsg& m);

  [[nodiscard]] std::uint64_t LastLogIndex() const { return log_.size(); }
  [[nodiscard]] std::uint64_t LastLogTerm() const {
    return log_.empty() ? 0 : log_.back().term;
  }
  [[nodiscard]] std::size_t Majority() const { return group_.size() / 2 + 1; }

  sim::Scheduler& sched_;
  sim::Network& net_;
  sim::Rng rng_;
  sim::NodeId self_;
  std::vector<sim::NodeId> group_;  // includes self
  ApplyFn apply_;
  LeadershipFn on_leadership_;

  // Persistent state.
  std::uint64_t current_term_ = 0;
  std::optional<sim::NodeId> voted_for_;
  std::vector<RaftEntry> log_;  // 1-based indexing: log_[i-1] is index i

  // Volatile state.
  Role role_ = Role::kFollower;
  std::optional<sim::NodeId> known_leader_;
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;
  std::size_t votes_received_ = 0;

  // Leader state (index into group_ order).
  std::vector<std::uint64_t> next_index_;
  std::vector<std::uint64_t> match_index_;

  sim::EventId election_timer_ = 0;
  sim::EventId heartbeat_timer_ = 0;
  bool started_ = false;
};

}  // namespace fabricsim::ordering
