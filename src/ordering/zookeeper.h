// ZooKeeper ensemble model.
//
// Provides what the Kafka ordering service needs from ZooKeeper, with real
// message traffic over the simulated network:
//   - client sessions kept alive by heartbeats, expired on silence,
//   - ephemeral znodes deleted on session expiry,
//   - creation races (first CreateEphemeral wins; losers are auto-watched
//     and get a watch event when the node is deleted) — the standard
//     controller-election recipe,
//   - ZAB-lite write replication: the ensemble leader proposes each write,
//     commits on quorum ack, and followers apply commits in zxid order.
//
// Simplification vs real ZAB: the ensemble leader is the first server
// (no leader re-election; the Kafka experiments never kill ZooKeeper
// servers, and broker failover is what the paper's §III discusses). Reads
// are served by the leader (linearizable reads).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/calibration.h"
#include "ordering/messages.h"
#include "sim/machine.h"

namespace fabricsim::ordering {

class ZooKeeperServer {
 public:
  ZooKeeperServer(sim::Environment& env, sim::Machine& machine,
                  const fabric::Calibration& cal, int index);

  void SetEnsemble(std::vector<sim::NodeId> ensemble);
  void Start();

  [[nodiscard]] sim::NodeId NetId() const { return net_id_; }
  [[nodiscard]] sim::Machine& Host() { return machine_; }
  [[nodiscard]] bool IsLeader() const;

  /// Test hook: inspect a znode's data on this replica.
  [[nodiscard]] std::optional<std::string> Peek(const std::string& path) const;

 private:
  struct Znode {
    std::string data;
    std::uint64_t owner_session = 0;  // 0 = persistent
  };
  struct PendingWrite {
    std::string path;
    std::string data;
    bool is_delete = false;
    std::uint64_t owner_session = 0;
    std::size_t acks = 0;
    // Reply routing (0 request_id = internal write, e.g. expiry cleanup).
    sim::NodeId requester = sim::kInvalidNode;
    std::uint64_t request_id = 0;
  };

  void OnMessage(sim::NodeId from, const sim::MessagePtr& msg);
  void HandleClientRequest(sim::NodeId from, const ZkRequestMsg& m);
  void ProposeWrite(PendingWrite w);
  void ApplyWrite(const std::string& path, const std::string& data,
                  bool is_delete, std::uint64_t owner_session);
  void FireWatches(const std::string& path);
  void SweepSessions();

  sim::Environment& env_;
  sim::Machine& machine_;
  const fabric::Calibration& cal_;
  sim::NodeId net_id_ = sim::kInvalidNode;
  std::vector<sim::NodeId> ensemble_;

  // Replicated state (applied writes).
  std::map<std::string, Znode> znodes_;
  std::uint64_t next_zxid_ = 1;
  std::uint64_t last_applied_zxid_ = 0;
  std::map<std::uint64_t, PendingWrite> in_flight_;      // leader only
  std::map<std::uint64_t, PendingWrite> pending_commit_;  // follower side

  // Leader-only session and watch tracking.
  std::unordered_map<std::uint64_t, sim::SimTime> sessions_;
  std::unordered_map<std::string, std::vector<sim::NodeId>> watches_;
};

/// Convenience owner of a whole ensemble.
class ZooKeeperEnsemble {
 public:
  ZooKeeperEnsemble(sim::Environment& env, const fabric::Calibration& cal,
                    std::vector<sim::Machine*> machines);

  void Start();
  [[nodiscard]] std::size_t Size() const { return servers_.size(); }
  [[nodiscard]] ZooKeeperServer& Server(std::size_t i) { return *servers_[i]; }
  [[nodiscard]] std::vector<sim::NodeId> NetIds() const;

 private:
  std::vector<std::unique_ptr<ZooKeeperServer>> servers_;
};

}  // namespace fabricsim::ordering
