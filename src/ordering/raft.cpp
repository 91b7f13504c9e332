#include "ordering/raft.h"

#include <algorithm>
#include <cassert>

namespace fabricsim::ordering {
namespace {

// An election timeout drawn uniformly from [150, 300) ms (the range the
// Raft paper suggests), a 50 ms leader heartbeat, and at most 16 log
// entries per AppendEntries.
constexpr sim::SimDuration kElectionTimeoutMin = sim::FromMillis(150);
constexpr sim::SimDuration kElectionTimeoutMax = sim::FromMillis(300);
constexpr sim::SimDuration kHeartbeatInterval = sim::FromMillis(50);
constexpr std::size_t kMaxEntriesPerAppend = 16;

}  // namespace

RaftNode::RaftNode(sim::Scheduler& sched, sim::Network& net, sim::Rng rng,
                   sim::NodeId self, std::vector<sim::NodeId> group,
                   ApplyFn apply)
    : sched_(sched),
      net_(net),
      rng_(rng),
      self_(self),
      group_(std::move(group)),
      apply_(std::move(apply)) {
  next_index_.assign(group_.size(), 1);
  match_index_.assign(group_.size(), 0);
}

void RaftNode::Start() {
  started_ = true;
  ResetElectionTimer();
}

void RaftNode::RestartAfterCrash() {
  // Volatile state resets; persistent (term, vote, log) survives. The commit
  // index is volatile in Raft and is re-learned from the leader.
  role_ = Role::kFollower;
  known_leader_.reset();
  commit_index_ = 0;
  last_applied_ = 0;
  votes_received_ = 0;
  CancelElectionTimer();
  sched_.Cancel(heartbeat_timer_);
  heartbeat_timer_ = 0;
  ResetElectionTimer();
}

std::optional<sim::NodeId> RaftNode::KnownLeader() const {
  if (role_ == Role::kLeader) return self_;
  return known_leader_;
}

void RaftNode::ResetElectionTimer() {
  CancelElectionTimer();
  const auto span = kElectionTimeoutMax - kElectionTimeoutMin;
  const auto delay =
      kElectionTimeoutMin +
      static_cast<sim::SimDuration>(rng_.NextDouble() *
                                    static_cast<double>(span));
  election_timer_ = sched_.ScheduleAfter(delay, [this] { StartElection(); },
                                         "raft/election_timer");
}

void RaftNode::CancelElectionTimer() {
  if (election_timer_ != 0) {
    sched_.Cancel(election_timer_);
    election_timer_ = 0;
  }
}

void RaftNode::BecomeFollower(std::uint64_t term) {
  const bool was_leader = (role_ == Role::kLeader);
  if (term > current_term_) {
    current_term_ = term;
    voted_for_.reset();
  }
  role_ = Role::kFollower;
  votes_received_ = 0;
  if (heartbeat_timer_ != 0) {
    sched_.Cancel(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  ResetElectionTimer();
  if (was_leader && on_leadership_) on_leadership_(false);
}

void RaftNode::StartElection() {
  if (role_ == Role::kLeader) return;
  role_ = Role::kCandidate;
  ++current_term_;
  voted_for_ = self_;
  votes_received_ = 1;  // own vote
  known_leader_.reset();
  ResetElectionTimer();

  // Single-node group: win immediately.
  if (votes_received_ >= Majority()) {
    BecomeLeader();
    return;
  }

  for (sim::NodeId peer : group_) {
    if (peer == self_) continue;
    auto msg = std::make_shared<RequestVoteMsg>();
    msg->term = current_term_;
    msg->candidate = self_;
    msg->last_log_index = LastLogIndex();
    msg->last_log_term = LastLogTerm();
    net_.Send(self_, peer, msg);
  }
}

void RaftNode::BecomeLeader() {
  role_ = Role::kLeader;
  known_leader_ = self_;
  CancelElectionTimer();
  for (std::size_t i = 0; i < group_.size(); ++i) {
    next_index_[i] = LastLogIndex() + 1;
    match_index_[i] = (group_[i] == self_) ? LastLogIndex() : 0;
  }
  if (on_leadership_) on_leadership_(true);
  SendHeartbeats();
}

void RaftNode::SendHeartbeats() {
  if (role_ != Role::kLeader) return;
  for (sim::NodeId peer : group_) {
    if (peer == self_) continue;
    ReplicateTo(peer);
  }
  heartbeat_timer_ = sched_.ScheduleAfter(kHeartbeatInterval,
                                          [this] { SendHeartbeats(); },
                                          "raft/heartbeat");
}

void RaftNode::ReplicateTo(sim::NodeId peer) {
  const auto slot = static_cast<std::size_t>(
      std::find(group_.begin(), group_.end(), peer) - group_.begin());
  assert(slot < group_.size());
  const std::uint64_t next = next_index_[slot];

  auto msg = std::make_shared<AppendEntriesMsg>();
  msg->term = current_term_;
  msg->leader = self_;
  msg->prev_log_index = next - 1;
  msg->prev_log_term =
      (next >= 2 && next - 2 < log_.size()) ? log_[next - 2].term : 0;
  msg->leader_commit = commit_index_;
  for (std::uint64_t i = next;
       i <= LastLogIndex() &&
       msg->entries.size() < kMaxEntriesPerAppend;
       ++i) {
    msg->entries.push_back(log_[i - 1]);
  }
  net_.Send(self_, peer, msg);
}

bool RaftNode::Propose(proto::BlockPtr block, std::size_t block_bytes) {
  if (role_ != Role::kLeader) return false;
  log_.push_back(RaftEntry{current_term_, std::move(block), block_bytes});
  const auto self_slot = static_cast<std::size_t>(
      std::find(group_.begin(), group_.end(), self_) - group_.begin());
  match_index_[self_slot] = LastLogIndex();
  next_index_[self_slot] = LastLogIndex() + 1;
  // Replicate eagerly instead of waiting for the heartbeat tick.
  for (sim::NodeId peer : group_) {
    if (peer != self_) ReplicateTo(peer);
  }
  MaybeAdvanceCommit();  // single-node groups commit immediately
  return true;
}

void RaftNode::MaybeAdvanceCommit() {
  if (role_ != Role::kLeader) return;
  for (std::uint64_t n = LastLogIndex(); n > commit_index_; --n) {
    // Raft safety: only entries of the current term commit by counting.
    if (log_[n - 1].term != current_term_) break;
    std::size_t count = 0;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      if (match_index_[i] >= n) ++count;
    }
    if (count >= Majority()) {
      commit_index_ = n;
      break;
    }
  }
  ApplyCommitted();
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (apply_) apply_(last_applied_, log_[last_applied_ - 1]);
  }
}

bool RaftNode::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (!started_) return false;
  if (auto rv = std::dynamic_pointer_cast<const RequestVoteMsg>(msg)) {
    HandleRequestVote(from, *rv);
    return true;
  }
  if (auto rvr = std::dynamic_pointer_cast<const RequestVoteReplyMsg>(msg)) {
    HandleRequestVoteReply(from, *rvr);
    return true;
  }
  if (auto ae = std::dynamic_pointer_cast<const AppendEntriesMsg>(msg)) {
    HandleAppendEntries(from, *ae);
    return true;
  }
  if (auto aer = std::dynamic_pointer_cast<const AppendEntriesReplyMsg>(msg)) {
    HandleAppendEntriesReply(from, *aer);
    return true;
  }
  return false;
}

void RaftNode::HandleRequestVote(sim::NodeId from, const RequestVoteMsg& m) {
  if (m.term > current_term_) BecomeFollower(m.term);

  auto reply = std::make_shared<RequestVoteReplyMsg>();
  reply->term = current_term_;
  reply->granted = false;

  if (m.term == current_term_ &&
      (!voted_for_ || *voted_for_ == m.candidate)) {
    // Election restriction: candidate's log must be at least as up-to-date.
    const bool up_to_date =
        m.last_log_term > LastLogTerm() ||
        (m.last_log_term == LastLogTerm() &&
         m.last_log_index >= LastLogIndex());
    if (up_to_date) {
      voted_for_ = m.candidate;
      reply->granted = true;
      ResetElectionTimer();
    }
  }
  net_.Send(self_, from, reply);
}

void RaftNode::HandleRequestVoteReply(sim::NodeId /*from*/,
                                      const RequestVoteReplyMsg& m) {
  if (m.term > current_term_) {
    BecomeFollower(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != current_term_ || !m.granted) {
    return;
  }
  ++votes_received_;
  if (votes_received_ >= Majority()) BecomeLeader();
}

void RaftNode::HandleAppendEntries(sim::NodeId from,
                                   const AppendEntriesMsg& m) {
  auto reply = std::make_shared<AppendEntriesReplyMsg>();

  if (m.term > current_term_) BecomeFollower(m.term);
  reply->term = current_term_;

  if (m.term < current_term_) {
    reply->success = false;
    reply->hint_index = LastLogIndex();
    net_.Send(self_, from, reply);
    return;
  }

  // Valid leader for this term.
  if (role_ != Role::kFollower) BecomeFollower(m.term);
  known_leader_ = m.leader;
  ResetElectionTimer();

  // Consistency check.
  if (m.prev_log_index > 0) {
    if (m.prev_log_index > LastLogIndex() ||
        log_[m.prev_log_index - 1].term != m.prev_log_term) {
      reply->success = false;
      reply->hint_index = std::min<std::uint64_t>(
          LastLogIndex(), m.prev_log_index > 0 ? m.prev_log_index - 1 : 0);
      net_.Send(self_, from, reply);
      return;
    }
  }

  // Append / overwrite conflicting suffix.
  std::uint64_t index = m.prev_log_index;
  for (const auto& entry : m.entries) {
    ++index;
    if (index <= LastLogIndex()) {
      if (log_[index - 1].term != entry.term) {
        log_.resize(index - 1);  // drop conflicting suffix
        log_.push_back(entry);
      }
    } else {
      log_.push_back(entry);
    }
  }

  if (m.leader_commit > commit_index_) {
    commit_index_ = std::min<std::uint64_t>(m.leader_commit, LastLogIndex());
    ApplyCommitted();
  }

  reply->success = true;
  reply->match_index = index;
  net_.Send(self_, from, reply);
}

void RaftNode::HandleAppendEntriesReply(sim::NodeId from,
                                        const AppendEntriesReplyMsg& m) {
  if (m.term > current_term_) {
    BecomeFollower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != current_term_) return;

  const auto slot = static_cast<std::size_t>(
      std::find(group_.begin(), group_.end(), from) - group_.begin());
  if (slot >= group_.size()) return;

  if (m.success) {
    if (m.match_index > match_index_[slot]) {
      match_index_[slot] = m.match_index;
    }
    next_index_[slot] = match_index_[slot] + 1;
    MaybeAdvanceCommit();
    // Keep streaming if the follower is still behind.
    if (next_index_[slot] <= LastLogIndex()) ReplicateTo(from);
  } else {
    // Back off using the follower's hint and retry immediately.
    next_index_[slot] =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                       next_index_[slot] - 1, m.hint_index + 1));
    ReplicateTo(from);
  }
}

}  // namespace fabricsim::ordering
