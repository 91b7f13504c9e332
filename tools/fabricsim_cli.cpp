// fabricsim-cli: run a single configurable experiment from the command
// line and print the paper's metrics — a Caliper-style driver for the
// simulated network.
//
// Usage examples:
//   fabricsim_cli --ordering=raft --rate=250 --duration=30
//   fabricsim_cli --ordering=kafka --policy="AND('Org1MSP.peer','Org2MSP.peer')"
//   fabricsim_cli --workload=smallbank --peers=6 --channels=2 --csv
//   fabricsim_cli --ordering=raft --sweep=50,150,250,350 --jobs=4
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/json.h"
#include "fabric/experiment.h"
#include "fabric/run_flags.h"
#include "faults/invariants.h"
#include "metrics/registry.h"
#include "metrics/reporter.h"
#include "obs/trace.h"
#include "runner/sweep_runner.h"

using namespace fabricsim;

namespace {

void PrintHelp() {
  fabric::RunFlags defaults;
  std::cout << "fabricsim-cli: drive one experiment on the simulated Fabric "
               "network\n\n"
            << fabric::HelpText(fabric::RunFlagTable(defaults));
}

}  // namespace

int main(int argc, char** argv) {
  fabric::RunFlags cli;
  const std::string error = fabric::ParseRunFlags(
      std::vector<std::string>(argv + 1, argv + argc), cli);
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n\n";
    PrintHelp();
    return 2;
  }
  if (cli.help) {
    PrintHelp();
    return 0;
  }
  fabric::ExperimentConfig config = cli.ToConfig();

  // Sweep mode: the base configuration once per arrival rate, fanned out
  // over --jobs host threads, one summary row per rate.
  if (!cli.sweep.empty()) {
    if (!cli.trace_out.empty() || !cli.faults.empty() ||
        !cli.metrics_out.empty() || !cli.profile_trace.empty()) {
      std::cerr << "error: --sweep cannot be combined with --trace-out, "
                   "--faults, --metrics-out, or --profile-trace\n";
      return 2;
    }
    std::vector<runner::SweepPoint> points;
    for (double rate : cli.sweep) {
      fabric::ExperimentConfig point = config;
      point.workload.rate_tps = rate;
      points.push_back({std::move(point), metrics::Fmt(rate, 1) + " tps"});
    }
    runner::SweepOptions options;
    options.jobs = cli.jobs;
    const auto outcomes = runner::RunSweep(std::move(points), options);

    metrics::Table table({"rate_tps", "committed_tps", "goodput_tps",
                          "e2e_latency_s", "e2e_p95_s", "block_time_s",
                          "chain_audit"});
    bool all_ok = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& res = outcomes[i].result;
      const auto& rep = res.report;
      all_ok = all_ok && res.chain_audit_ok;
      table.AddRow({metrics::Fmt(cli.sweep[i], 1),
                    metrics::Fmt(rep.end_to_end.throughput_tps, 1),
                    metrics::Fmt(rep.goodput_tps, 1),
                    metrics::Fmt(rep.end_to_end.mean_latency_s, 3),
                    metrics::Fmt(rep.end_to_end.p95_latency_s, 3),
                    metrics::Fmt(rep.mean_block_time_s, 2),
                    res.chain_audit_ok ? "OK" : "FAILED"});
    }
    if (cli.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    return all_ok ? 0 : 1;
  }

  // Open output files up front so a bad path fails before the run, not after.
  std::optional<obs::Tracer> tracer;
  std::ofstream trace_os;
  if (!cli.trace_out.empty()) {
    trace_os.open(cli.trace_out);
    if (!trace_os) {
      std::cerr << "error: cannot write " << cli.trace_out << "\n";
      return 2;
    }
    tracer.emplace();
    config.network.tracer = &*tracer;
  }
  metrics::Registry registry;
  std::ofstream metrics_os;
  if (!cli.metrics_out.empty()) {
    metrics_os.open(cli.metrics_out);
    if (!metrics_os) {
      std::cerr << "error: cannot write " << cli.metrics_out << "\n";
      return 2;
    }
    config.registry = &registry;
  }
  sim::DesProfiler profiler;
  std::ofstream profile_os;
  if (!cli.profile_trace.empty()) {
    profile_os.open(cli.profile_trace);
    if (!profile_os) {
      std::cerr << "error: cannot write " << cli.profile_trace << "\n";
      return 2;
    }
    config.profiler = &profiler;
  }

  // Configuration the network rejects while it is built (a fault target
  // that names no node, e.g. peer99, or an unparsable --policy) is a usage
  // error, reported before the run starts.
  fabric::ExperimentResult result;
  try {
    result = fabric::RunExperiment(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto& r = result.report;

  if (tracer) tracer->ExportChromeTrace(trace_os);
  if (!cli.metrics_out.empty()) {
    if (cli.metrics_format == "prom") {
      registry.WritePrometheus(metrics_os);
    } else if (cli.metrics_format == "csv") {
      registry.WriteCsv(metrics_os);
    } else {
      registry.WriteJson(metrics_os);
    }
  }
  if (!cli.profile_trace.empty()) profiler.WriteChromeTrace(profile_os);

  metrics::Table table({"metric", "value"});
  table.AddRow({"ordering", fabric::OrderingTypeName(cli.ordering)});
  table.AddRow({"offered_tps", metrics::Fmt(cli.rate, 1)});
  table.AddRow({"committed_tps", metrics::Fmt(r.end_to_end.throughput_tps, 1)});
  table.AddRow({"e2e_latency_s", metrics::Fmt(r.end_to_end.mean_latency_s, 3)});
  table.AddRow({"e2e_p95_s", metrics::Fmt(r.end_to_end.p95_latency_s, 3)});
  table.AddRow({"execute_latency_s", metrics::Fmt(r.execute.mean_latency_s, 3)});
  table.AddRow({"order_latency_s", metrics::Fmt(r.order.mean_latency_s, 3)});
  table.AddRow(
      {"validate_latency_s", metrics::Fmt(r.validate.mean_latency_s, 3)});
  table.AddRow({"execute_tps", metrics::Fmt(r.execute.throughput_tps, 1)});
  table.AddRow({"order_tps", metrics::Fmt(r.order.throughput_tps, 1)});
  table.AddRow({"validate_tps", metrics::Fmt(r.validate.throughput_tps, 1)});
  table.AddRow({"block_time_s", metrics::Fmt(r.mean_block_time_s, 2)});
  table.AddRow({"txs_per_block", metrics::Fmt(r.mean_block_size, 1)});
  table.AddRow({"invalid_txs", std::to_string(r.invalid)});
  table.AddRow({"rejected_txs", std::to_string(result.client_rejected)});
  table.AddRow({"goodput_tps", metrics::Fmt(r.goodput_tps, 1)});
  table.AddRow({"rejection_rate", metrics::Fmt(r.rejection_rate, 3)});
  table.AddRow({"shed_txs", std::to_string(r.shed)});
  if (!cli.overload.empty()) {
    table.AddRow({"overload_policy", cli.overload});
    table.AddRow({"osn_shed", std::to_string(result.osn_shed)});
    table.AddRow({"endorser_shed", std::to_string(result.endorser_shed)});
    table.AddRow(
        {"committer_deferred", std::to_string(result.committer_deferred)});
  }
  if (result.rejected_blocks + result.duplicate_tx_rejects +
          result.byz_quarantines + result.bad_endorsements >
      0) {
    // Byzantine-defense accounting; all-zero (and hidden) on honest runs.
    table.AddRow({"rejected_blocks", std::to_string(result.rejected_blocks)});
    table.AddRow({"duplicate_tx_rejects",
                  std::to_string(result.duplicate_tx_rejects)});
    table.AddRow(
        {"byz_quarantines", std::to_string(result.byz_quarantines)});
    table.AddRow(
        {"bad_endorsements", std::to_string(result.bad_endorsements)});
  }
  table.AddRow({"chain_height", std::to_string(result.chain_height)});
  table.AddRow({"chain_audit", result.chain_audit_ok ? "OK" : "FAILED"});
  table.AddRow({"generated_rate_tps", metrics::Fmt(result.generated_rate_tps, 1)});
  table.AddRow({"rate_check_fraction",
                metrics::Fmt(result.generated_rate_check, 2)});
  table.AddRow({"messages_sent", std::to_string(result.messages_sent)});
  table.AddRow(
      {"MB_on_wire",
       metrics::Fmt(static_cast<double>(result.bytes_sent) / 1e6, 1)});

  if (cli.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  if (result.attribution) {
    if (!cli.csv) std::cout << "\nBottleneck attribution:\n";
    obs::PrintAttribution(*result.attribution, std::cout, cli.csv);
  }
  if (cli.profile && result.profile) {
    const sim::ProfileReport& prof = *result.profile;
    if (!cli.csv) {
      std::cout << "\nHost profile (" << prof.total_events << " events, "
                << metrics::Fmt(prof.events_per_sec / 1e6, 2) << "M events/s):\n";
    }
    metrics::Table ptable({"handler", "count", "host_ms", "frac"});
    const std::size_t topn = std::min<std::size_t>(prof.entries.size(), 10);
    for (std::size_t i = 0; i < topn; ++i) {
      const sim::ProfileEntry& e = prof.entries[i];
      ptable.AddRow(
          {e.name, std::to_string(e.count),
           metrics::Fmt(static_cast<double>(e.total_ns) / 1e6, 2),
           metrics::Fmt(prof.total_ns > 0
                            ? static_cast<double>(e.total_ns) /
                                  static_cast<double>(prof.total_ns)
                            : 0.0,
                        3)});
    }
    if (cli.csv) {
      ptable.PrintCsv(std::cout);
    } else {
      ptable.Print(std::cout);
    }
  }

  bool invariants_ok = true;
  if (result.invariants) {
    invariants_ok = result.invariants->Ok();
    if (cli.faults.empty()) {
      std::cout << "\nInvariants: " << result.invariants->Summary();
    }
  }
  if (!cli.invariants_out.empty()) {
    bench::Json root = bench::Json::MakeObject();
    root["ok"] = result.chain_audit_ok && invariants_ok;
    root["chain_audit_ok"] = result.chain_audit_ok;
    bench::Json violations = bench::Json::MakeArray();
    if (result.invariants) {
      const faults::InvariantReport& report = *result.invariants;
      root["chains_audited"] = std::uint64_t{report.chains_audited};
      root["blocks_compared"] = std::uint64_t{report.blocks_compared};
      root["txs_checked"] = std::uint64_t{report.txs_checked};
      for (const faults::InvariantViolation& v : report.violations) {
        bench::Json entry = bench::Json::MakeObject();
        entry["invariant"] = v.invariant;
        entry["detail"] = v.detail;
        violations.AsArray().push_back(std::move(entry));
      }
    }
    root["violations"] = std::move(violations);
    if (result.recovery) root["stalled"] = result.recovery->stalled;
    std::ofstream os(cli.invariants_out);
    if (!os) {
      std::cerr << "error: cannot write " << cli.invariants_out << "\n";
      return 2;
    }
    os << root.Dump();
  }
  if (!cli.faults.empty()) {
    std::cout << "\nFault timeline:\n";
    for (const auto& entry : result.fault_log) {
      std::cout << "  " << metrics::Fmt(sim::ToSeconds(entry.at), 2) << "s  "
                << entry.what << "\n";
    }
    if (result.invariants) {
      std::cout << "\nInvariants: " << result.invariants->Summary();
    }
    if (result.recovery) {
      const auto& rec = *result.recovery;
      std::cout << "\nRecovery:\n"
                << "  pre_fault_tps    " << metrics::Fmt(rec.pre_fault_tps, 1)
                << "\n  dip_tps          " << metrics::Fmt(rec.dip_tps, 1)
                << "\n  recovered_tps    " << metrics::Fmt(rec.recovered_tps, 1)
                << "\n  time_to_recover  ";
      if (rec.stalled) {
        std::cout << "never (permanent stall detected)";
      } else if (rec.time_to_recover_s < 0) {
        std::cout << "not reached in window";
      } else {
        std::cout << metrics::Fmt(rec.time_to_recover_s, 1) << "s";
      }
      std::cout << "\n";
    }
  }
  return (result.chain_audit_ok && invariants_ok) ? 0 : 1;
}
