// Failover drill: crash-fault tolerance of the three ordering services,
// driven by the declarative fault-schedule API.
//
// The ordering leader crashes at 15 s. With recovery enabled the clients
// fail over to surviving orderer endpoints and the peers re-subscribe their
// deliver streams, so the replicated services keep committing while their
// leader is down:
//   - Raft (leader re-election) is revived at 25 s and must recover within
//     that 10 s outage;
//   - Kafka (controller re-election + ISR shrink) takes 13-14 s to fail
//     over, longer than a 10 s outage, so it gets a bare crash and a longer
//     run, with at least 10 s of measured window after its failover.
// Solo, the paper's single point of failure, is revived at 25 s but has
// nothing to fail over to: nothing commits between the crash and the
// revive, and the channel recovers only once the revived OSN backfills the
// peers. After each run the ledger-consistency invariants are checked.
//
// Build & run:  cmake --build build && ./build/examples/failover_drill
#include <iostream>

#include "fabric/experiment.h"

using namespace fabricsim;

namespace {

bool Drill(fabric::OrderingType ordering, const char* name) {
  std::cout << "=== " << name << ": crash the ordering leader ===\n";

  fabric::ExperimentConfig config;
  config.network.topology.ordering = ordering;
  config.network.topology.endorsing_peers = 4;
  config.network.topology.osns = 3;
  config.workload.rate_tps = 100.0;
  config.warmup = sim::FromSeconds(5);
  const bool kafka = ordering == fabric::OrderingType::kKafka;
  config.workload.duration = sim::FromSeconds(kafka ? 40 : 30);
  config.faults = kafka ? "crash:leader@15s" : "crash:leader@15s,revive@25s";

  const auto result = fabric::RunExperiment(config);

  for (const auto& entry : result.fault_log) {
    std::cout << "  t=" << sim::ToSeconds(entry.at) << "s  " << entry.what
              << "\n";
  }
  const auto& rec = *result.recovery;
  std::cout << "  pre-fault " << rec.pre_fault_tps << " tps, dip "
            << rec.dip_tps << " tps";
  if (rec.stalled) {
    std::cout << ", permanent stall detected\n";
  } else {
    std::cout << ", recovered to " << rec.recovered_tps << " tps in "
              << rec.time_to_recover_s << " s\n";
  }
  std::cout << "  " << result.invariants->Summary();

  // How long the leader stayed down: until its revive, or (bare crash)
  // until the end of the run.
  const sim::SimTime up_again = result.fault_log.size() > 1
                                    ? result.fault_log.back().at
                                    : config.warmup + config.workload.duration;
  const double down_s = sim::ToSeconds(up_again - result.fault_log.front().at);

  // Solo has nowhere to fail over to: commits stop for the whole outage and
  // resume only after the revive. The replicated services must recover with
  // a clean ledger while their leader is still down.
  bool ok;
  if (ordering == fabric::OrderingType::kSolo) {
    ok = !rec.stalled && rec.outage_s >= down_s &&
         rec.time_to_recover_s >= down_s && result.invariants->Ok();
    std::cout << "  no commits for " << rec.outage_s << " s of a " << down_s
              << " s outage\n";
    std::cout << (ok ? "  OK: solo is a single point of failure (as §III "
                       "warns)\n\n"
                     : "  UNEXPECTED solo behaviour\n\n");
  } else {
    ok = !rec.stalled && rec.time_to_recover_s >= 0 &&
         rec.time_to_recover_s < down_s && result.invariants->Ok();
    std::cout << (ok ? "  OK: ordering survived the leader crash\n\n"
                     : "  FAILED: did not recover cleanly\n\n");
  }
  return ok;
}

}  // namespace

int main() {
  bool all_ok = true;
  all_ok = Drill(fabric::OrderingType::kRaft, "Raft") && all_ok;
  all_ok = Drill(fabric::OrderingType::kKafka, "Kafka") && all_ok;
  all_ok = Drill(fabric::OrderingType::kSolo, "Solo") && all_ok;
  return all_ok ? 0 : 1;
}
