// FaultInjector: executes a FaultSchedule against a built FabricNetwork.
//
// Arm() checks that every target names a node of the built network (throwing
// std::invalid_argument if not) and then schedules every event through the
// simulation scheduler; target names resolve again when the event fires, so
// `crash:leader@30s` crashes whichever node leads at t=30s. Aliases
// (`leader`, `osn<i>`, `broker<i>`) fan out across channels: `osn0` crashes
// every channel's instance hosted on orderer 0, matching a whole orderer
// process dying. Every action is recorded in a timestamped log for reports
// and the invariant checker.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fabric/network_builder.h"
#include "faults/fault_schedule.h"

namespace fabricsim::faults {

class FaultInjector {
 public:
  struct LogEntry {
    sim::SimTime at = 0;
    std::string what;
  };

  FaultInjector(fabric::FabricNetwork& net, FaultSchedule schedule)
      : net_(net), schedule_(std::move(schedule)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event. Call once, before (or during) the run; events
  /// whose time already passed fire on the next scheduler step. Throws
  /// std::invalid_argument, scheduling nothing, when a target matches no
  /// node (e.g. `peer99`, or `broker0` without Kafka).
  void Arm();

  [[nodiscard]] const FaultSchedule& Schedule() const { return schedule_; }
  [[nodiscard]] const std::vector<LogEntry>& Log() const { return log_; }
  /// The injector's actions rendered one per line ("5.00s crash orderer0...").
  [[nodiscard]] std::string LogText() const;

 private:
  void Fire(const FaultEvent& ev);
  /// Resolves every target of `ev` the way Fire would, discarding the
  /// result. Throws std::invalid_argument for a target that matches nothing.
  void CheckTargets(const FaultEvent& ev);
  /// Crashes `id` if it is up; returns false (and only logs) when the node
  /// is already down, so overlapping crash windows never double-crash and a
  /// window's undo only revives nodes that window itself took down.
  bool CrashNode(sim::NodeId id);
  void ReviveNode(sim::NodeId id);
  /// Applies a loss/slow fault with stacked-window semantics (see .cpp).
  void ApplyLoss(double value, std::optional<sim::SimTime> until);
  void ScaleSpeed(sim::Cpu* res, const std::string& what, double factor,
                  std::optional<sim::SimTime> until);
  void RecomputeSpeed(sim::Cpu* res);
  /// Resolves one target name to endpoint ids (aliases may fan out across
  /// channels). Throws std::invalid_argument for unknown names.
  [[nodiscard]] std::vector<sim::NodeId> ResolveNodes(const std::string& name);
  /// Resolves a name to the OSN instances behind it (one per channel for
  /// aliases). Throws when the name is not an ordering node (e.g. `leader`
  /// under Kafka resolves to a broker, which cannot equivocate on deliver).
  [[nodiscard]] std::vector<ordering::OsnBase*> ResolveOsns(
      const std::string& name);
  /// The CPU of the machine named `name`, for `slow` faults. Throws when no
  /// machine has that name.
  [[nodiscard]] sim::Cpu* ResolveMachineCpu(const std::string& name);
  /// The ledger disk of the peer named `name`, for `slowdisk` faults.
  /// Throws when no peer has that name.
  [[nodiscard]] sim::Cpu* ResolvePeerDisk(const std::string& name);
  /// Resolves a name to peer nodes (for endorser-side attacks).
  [[nodiscard]] std::vector<peer::PeerNode*> ResolvePeers(
      const std::string& name);
  /// Arms/disarms one OSN's wire attack for a windowed Byzantine kind.
  static void SetOsnAttack(ordering::OsnBase* osn, FaultKind kind, bool on);
  void FireReplayTx(const FaultEvent& ev);
  /// The channel-0 ordering leader right now (Raft leader OSN, Kafka
  /// partition-leader broker, or the Solo node).
  [[nodiscard]] sim::NodeId ResolveLeader();
  void Note(const std::string& what);

  fabric::FabricNetwork& net_;
  FaultSchedule schedule_;
  std::vector<LogEntry> log_;
  std::set<sim::NodeId> crashed_;

  /// Open loss windows as (token, value); the live probability is the most
  /// recently opened window's value, or `baseline` once all windows close.
  struct LossState {
    bool init = false;
    double baseline = 0.0;
    std::vector<std::pair<int, double>> active;
  };
  LossState loss_;
  /// Per-resource speed state: open windows multiply onto the baseline, so
  /// overlapping slow/slowdisk windows compound and unwind exactly.
  struct SpeedState {
    double baseline = 1.0;
    std::vector<std::pair<int, double>> active;
  };
  std::map<sim::Cpu*, SpeedState> speeds_;
  int next_window_token_ = 0;
};

}  // namespace fabricsim::faults
