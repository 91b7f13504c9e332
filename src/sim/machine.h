// Simulated machines and the simulation environment.
//
// A `Machine` is a physical host: a named CPU station with a core count and
// a relative speed factor. The paper's cluster mixes two machine types
// (i7-2600 @3.4 GHz and i7-920 @2.67 GHz); both profiles are provided.
// `Environment` bundles the scheduler, RNG, network, and machines that one
// simulation run owns.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace fabricsim::obs {
class Tracer;
}  // namespace fabricsim::obs

namespace fabricsim::sim {

/// Static description of a host type.
struct MachineProfile {
  std::string model;
  int cores = 4;
  double speed_factor = 1.0;  // relative to the i7-2600 baseline
};

/// Intel Core i7-2600 @ 3.40 GHz (the paper's faster machines; orderers and
/// endorsing peers were preferentially placed on these).
MachineProfile I7_2600();

/// Intel Core i7-920 @ 2.67 GHz (the paper's slower machines).
MachineProfile I7_920();

/// One simulated host: a CPU plus identity. Roles (peer, orderer, client,
/// broker) are processes that submit work to the machine's CPU. Each machine
/// is one scheduler lane (the tie-break key of its events; see
/// sim/scheduler.h); components belonging to the machine are constructed
/// and started under a `Scheduler::LaneScope` for its lane so their events
/// execute there.
class Machine {
 public:
  Machine(Scheduler& sched, std::string name, MachineProfile profile,
          int lane = Scheduler::kGlobalLane)
      : name_(std::move(name)),
        profile_(std::move(profile)),
        lane_(lane),
        cpu_(sched, profile_.cores, profile_.speed_factor) {}

  [[nodiscard]] const std::string& Name() const { return name_; }
  [[nodiscard]] const MachineProfile& Profile() const { return profile_; }
  [[nodiscard]] int Lane() const { return lane_; }
  [[nodiscard]] Cpu& GetCpu() { return cpu_; }
  [[nodiscard]] const Cpu& GetCpu() const { return cpu_; }

 private:
  std::string name_;
  MachineProfile profile_;
  int lane_;
  Cpu cpu_;
};

/// Everything one simulation run owns. Components hold references into the
/// environment; the environment must outlive them.
class Environment {
 public:
  explicit Environment(std::uint64_t seed, NetworkConfig net_config = {});

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  [[nodiscard]] Scheduler& Sched() { return sched_; }
  [[nodiscard]] const Scheduler& Sched() const { return sched_; }
  [[nodiscard]] Network& Net() { return *net_; }
  [[nodiscard]] const Network& Net() const { return *net_; }
  [[nodiscard]] Rng& GlobalRng() { return rng_; }

  /// Creates a machine owned by the environment on a fresh scheduler lane.
  /// Pass an existing machine's lane as `share_lane_with` to co-locate (the
  /// ZooKeeper ensemble object spans its three hosts, so those machines form
  /// one logical process).
  Machine& AddMachine(std::string name, MachineProfile profile,
                      int share_lane_with = -1);

  [[nodiscard]] std::size_t MachineCount() const { return machines_.size(); }
  [[nodiscard]] Machine& MachineAt(std::size_t i) { return *machines_.at(i); }

  /// Derives an independent RNG stream (for per-component determinism).
  Rng ForkRng() { return rng_.Fork(); }

  [[nodiscard]] SimTime Now() const { return sched_.Now(); }

  /// Attaches a span tracer (nullptr detaches). The environment does not own
  /// it. When no tracer is attached, Trace() returns nullptr and every
  /// instrumentation site is a single branch — the simulation is unaffected.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* Trace() const { return tracer_; }

 private:
  Scheduler sched_;
  Rng rng_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<Machine>> machines_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace fabricsim::sim
