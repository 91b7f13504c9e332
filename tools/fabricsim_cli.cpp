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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/json.h"
#include "fabric/experiment.h"
#include "fabric/optimizations.h"
#include "faults/fault_schedule.h"
#include "faults/invariants.h"
#include "metrics/registry.h"
#include "metrics/reporter.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runner/sweep_runner.h"

using namespace fabricsim;

namespace {

struct CliOptions {
  fabric::OrderingType ordering = fabric::OrderingType::kSolo;
  double rate = 200.0;
  double duration_s = 30.0;
  int peers = 10;
  int committing_peers = 1;
  int clients = -1;
  int osns = 3;
  int brokers = 3;
  int zookeepers = 3;
  int channels = 1;
  std::string policy;  // empty = OR over all peers
  client::WorkloadKind workload = client::WorkloadKind::kKvWrite;
  std::size_t value_size = 1;
  std::size_t key_space = 1000;
  std::uint64_t seed = 42;
  std::uint32_t batch_size = 100;
  double batch_timeout_s = 1.0;
  bool csv = false;
  bool help = false;
  std::string trace_out;      // Chrome trace-event JSON path ("" = off)
  std::string telemetry_csv;  // resource time-series CSV path ("" = off)
  std::string faults;         // declarative fault schedule ("" = none)
  std::string overload;       // off|reject|drop-oldest|block ("" = off)
  std::size_t osn_queue = 512;       // OSN ingress max inflight
  std::size_t endorser_queue = 32;   // endorser ingress max inflight
  std::size_t committer_blocks = 8;  // committer pipeline bound (0 = none)
  double retry_after_ms = 200.0;     // SERVICE_UNAVAILABLE retry-after hint
  double flow_window = 16.0;         // client AIMD initial window (0 = off)
  double pace_tps = 0.0;             // client token-bucket rate (0 = off)
  bool check_invariants = false;
  std::string invariants_out;  // invariant-report JSON path ("" = off)
  fabric::FailpointOptions failpoints;  // deliberate bugs for chaos demos
  bool streaming_stats = false;  // bounded-memory tracker accounting
  std::string metrics_out;       // metrics-timeline path ("" = off)
  std::string metrics_format = "json";  // json|prom
  double metrics_period_ms = 250.0;
  bool profile = false;        // host-side DES profiler + top-N table
  std::string profile_trace;   // Chrome trace of sampled handler spans
  std::uint64_t retain_blocks = 0;   // ledger/OSN blocks kept (0 = all)
  std::vector<double> sweep;  // arrival rates; non-empty = sweep mode
  int jobs = 1;               // host threads for --sweep (0 = hw concurrency)
  fabric::OptimizationOptions optimizations;  // Thakkar-style validate fixes
};

void PrintHelp() {
  std::cout <<
      "fabricsim-cli: drive one experiment on the simulated Fabric network\n"
      "\n"
      "  --ordering=solo|kafka|raft   consenter type (default solo)\n"
      "  --rate=<tps>                 aggregate arrival rate (default 200)\n"
      "  --duration=<s>               measurement window (default 30)\n"
      "  --peers=<n>                  endorsing peers (default 10)\n"
      "  --committing-peers=<n>       dedicated validators (default 1)\n"
      "  --clients=<n>                client machines (default: = peers)\n"
      "  --osns=<n>                   ordering service nodes (default 3)\n"
      "  --brokers=<n>                kafka brokers (default 3)\n"
      "  --zookeepers=<n>             zookeeper servers (default 3)\n"
      "  --channels=<n>               channels (default 1)\n"
      "  --policy=<expr>              endorsement policy, e.g.\n"
      "                               \"AND('Org1MSP.peer','Org2MSP.peer')\"\n"
      "  --workload=kvwrite|readwrite|token|smallbank (default kvwrite)\n"
      "  --value-size=<bytes>         kvwrite value size (default 1)\n"
      "  --key-space=<n>              shared-key pool size (default 1000)\n"
      "  --batch-size=<n>             BatchSize (default 100)\n"
      "  --batch-timeout=<s>          BatchTimeout (default 1.0)\n"
      "  --seed=<n>                   RNG seed (default 42)\n"
      "  --csv                        CSV output\n"
      "  --trace-out=<file>           write a Chrome trace-event JSON of the\n"
      "                               run (open in chrome://tracing or\n"
      "                               https://ui.perfetto.dev); also prints\n"
      "                               the bottleneck-attribution table\n"
      "  --telemetry-csv=<file>       write per-resource time series\n"
      "                               (time_s,resource,metric,value)\n"
      "  --faults=<spec>              chaos schedule, e.g.\n"
      "                               \"crash:leader@15s,revive:leader@25s\"\n"
      "                               or \"tamper-block:osn0@20s-25s\"\n"
      "                               (see src/faults/fault_schedule.h);\n"
      "                               enables client/peer failover, checks\n"
      "                               ledger invariants, reports recovery;\n"
      "                               Byzantine kinds (equivocate,\n"
      "                               tamper-block, bogus-backfill,\n"
      "                               forge-endorsement, replay-tx) also\n"
      "                               arm the peer-side defenses\n"
      "  --overload=reject|drop-oldest|block\n"
      "                               overload protection: bounded ingress\n"
      "                               queues with the given overflow policy\n"
      "                               plus client flow control (default off)\n"
      "  --osn-queue=<n>              OSN ingress max inflight; slots are\n"
      "                               held until the block finishes, so size\n"
      "                               above capacity x block time (default\n"
      "                               512; parked slots are 1x this)\n"
      "  --endorser-queue=<n>         endorser ingress max inflight\n"
      "                               (default 32; parked slots 4x)\n"
      "  --committer-blocks=<n>       committer pipeline bound in blocks\n"
      "                               (default 8; 0 = unbounded)\n"
      "  --retry-after-ms=<ms>        retry-after hint on overload nacks\n"
      "                               (default 200)\n"
      "  --flow-window=<n>            client AIMD initial window (default\n"
      "                               16; 0 disables client flow control)\n"
      "  --pace-tps=<tps>             client token-bucket pacing (0 = off)\n"
      "  --check-invariants           check ledger invariants (and the\n"
      "                               no-silent-drop rule) even without\n"
      "                               faults; non-zero exit on violation\n"
      "  --invariants-out=<file>      write the invariant report as JSON\n"
      "                               (ok, check counts, violations, chain\n"
      "                               audit, stall flag); implies\n"
      "                               --check-invariants\n"
      "  --failpoint=<bug>            inject a deliberate bug so chaos-fuzz\n"
      "                               repros replay exactly:\n"
      "                               no-committer-dedup (committers skip\n"
      "                               tx-id screening), silent-drop:<n>\n"
      "                               (clients drop every nth submission\n"
      "                               without a terminal status), or\n"
      "                               no-byzantine-defense (attestation and\n"
      "                               the commit-time data-hash re-check\n"
      "                               stay off, so planted attacks reach\n"
      "                               the ledger and the invariants fire)\n"
      "  --streaming-stats            bounded-memory tracker accounting:\n"
      "                               per-tx records retire on terminal\n"
      "                               state; identical metrics, flat RSS\n"
      "                               (ignored when faults/trace/invariants\n"
      "                               need post-hoc records)\n"
      "  --retain-blocks=<n>          blocks kept per peer ledger and OSN\n"
      "                               backfill history (0 = all); bounds\n"
      "                               memory for long runs, shrinks the\n"
      "                               dedup horizon to the retained window\n"
      "  --metrics-out=<file>         write the metrics-registry timeline\n"
      "                               (queue depths, sheds, scheduler\n"
      "                               backlog, tracker occupancy) sampled\n"
      "                               every --metrics-period-ms of simulated\n"
      "                               time; simulated results are unchanged\n"
      "  --metrics-format=json|prom   timeline format (default json;\n"
      "                               prom = Prometheus text exposition)\n"
      "  --metrics-period-ms=<ms>     sampling cadence (default 250)\n"
      "  --profile                    host-side DES profiler: prints the\n"
      "                               top-10 handler table (dispatch count,\n"
      "                               host time) after the run\n"
      "  --profile-trace=<file>       write sampled handler spans as Chrome\n"
      "                               trace-event JSON (implies --profile)\n"
      "  --sweep=<r1,r2,...>          run the base configuration once per\n"
      "                               arrival rate and print one summary row\n"
      "                               per rate; non-zero exit if any run's\n"
      "                               chain audit fails (not combinable with\n"
      "                               --trace-out/--telemetry-csv/--faults)\n"
      "  --jobs=<n>                   host worker threads for --sweep\n"
      "                               (default 1; 0 = hardware concurrency);\n"
      "                               results are identical at any setting\n"
      "  --opt-msp-cache              MSP identity-verification cache on the\n"
      "                               committers: repeat cert chains skip the\n"
      "                               full validation cost (Thakkar et al.,\n"
      "                               arXiv:1805.11390); changes simulated\n"
      "                               VSCC service times\n"
      "  --opt-vscc-workers=<n>       dedicated VSCC validation workers per\n"
      "                               committer; txs within a block validate\n"
      "                               concurrently, commit order unchanged\n"
      "                               (0 = off, share the peer cores)\n"
      "  --opt-bulk-commit            batch all of a block's state-db writes\n"
      "                               into one ledger write\n"
      "  --opt-policy-shortcircuit    stop verifying endorsements once the\n"
      "                               endorsement policy is satisfied\n"
      "  --help                       this text\n";
}

std::optional<std::string> ArgValue(const std::string& arg,
                                    const std::string& key) {
  const std::string prefix = key + "=";
  if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  return std::nullopt;
}

bool Parse(int argc, char** argv, CliOptions& out, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      return true;
    }
    if (arg == "--csv") {
      out.csv = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--ordering")) {
      if (*v == "solo") {
        out.ordering = fabric::OrderingType::kSolo;
      } else if (*v == "kafka") {
        out.ordering = fabric::OrderingType::kKafka;
      } else if (*v == "raft") {
        out.ordering = fabric::OrderingType::kRaft;
      } else {
        error = "unknown ordering: " + *v;
        return false;
      }
      continue;
    }
    if (auto v = ArgValue(arg, "--workload")) {
      if (*v == "kvwrite") {
        out.workload = client::WorkloadKind::kKvWrite;
      } else if (*v == "readwrite") {
        out.workload = client::WorkloadKind::kKvReadWrite;
      } else if (*v == "token") {
        out.workload = client::WorkloadKind::kTokenTransfer;
      } else if (*v == "smallbank") {
        out.workload = client::WorkloadKind::kSmallBank;
      } else {
        error = "unknown workload: " + *v;
        return false;
      }
      continue;
    }
    if (auto v = ArgValue(arg, "--policy")) {
      out.policy = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--trace-out")) {
      out.trace_out = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--telemetry-csv")) {
      out.telemetry_csv = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--faults")) {
      out.faults = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--overload")) {
      if (*v != "off" && *v != "reject" && *v != "drop-oldest" &&
          *v != "block") {
        error = "unknown overload policy: " + *v;
        return false;
      }
      out.overload = (*v == "off") ? "" : *v;
      continue;
    }
    if (arg == "--check-invariants") {
      out.check_invariants = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--invariants-out")) {
      out.invariants_out = *v;
      out.check_invariants = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--failpoint")) {
      if (*v == "no-committer-dedup") {
        out.failpoints.disable_committer_dedup = true;
      } else if (v->rfind("silent-drop:", 0) == 0) {
        try {
          out.failpoints.client_silent_drop_every =
              std::stoi(v->substr(12));
        } catch (const std::exception&) {
          out.failpoints.client_silent_drop_every = 0;
        }
        if (out.failpoints.client_silent_drop_every <= 0) {
          error = "bad --failpoint silent-drop count: " + *v;
          return false;
        }
      } else if (*v == "no-byzantine-defense") {
        out.failpoints.disable_byzantine_defense = true;
      } else {
        error = "unknown failpoint: " + *v;
        return false;
      }
      continue;
    }
    if (arg == "--streaming-stats") {
      out.streaming_stats = true;
      continue;
    }
    if (arg == "--opt-msp-cache") {
      out.optimizations.msp_cache = true;
      continue;
    }
    if (arg == "--opt-bulk-commit") {
      out.optimizations.bulk_commit = true;
      continue;
    }
    if (arg == "--opt-policy-shortcircuit") {
      out.optimizations.policy_shortcircuit = true;
      continue;
    }
    if (arg == "--profile") {
      out.profile = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--profile-trace")) {
      out.profile_trace = *v;
      out.profile = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--metrics-out")) {
      out.metrics_out = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--metrics-format")) {
      if (*v != "json" && *v != "prom") {
        error = "unknown metrics format: " + *v;
        return false;
      }
      out.metrics_format = *v;
      continue;
    }
    if (auto v = ArgValue(arg, "--sweep")) {
      std::stringstream ss(*v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        try {
          out.sweep.push_back(std::stod(item));
        } catch (const std::exception&) {
          error = "bad --sweep rate: " + item;
          return false;
        }
      }
      if (out.sweep.empty()) {
        error = "--sweep needs at least one rate";
        return false;
      }
      continue;
    }
    // Matches `key`, then parses its value into `field`; a value that is
    // not a number, or is negative for a count, sets `error`.
    auto number = [&](const char* key, auto& field) -> bool {
      const auto v = ArgValue(arg, key);
      if (!v) return false;
      using T = std::decay_t<decltype(field)>;
      double d = 0.0;
      std::size_t used = 0;
      try {
        d = std::stod(*v, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used == 0 || used != v->size()) {
        error = std::string(key) + " needs a number, got " + *v;
      } else if (std::is_unsigned_v<T> && d < 0) {
        error = std::string(key) + " must not be negative";
      } else {
        field = static_cast<T>(d);
      }
      return true;
    };
    if (number("--rate", out.rate) || number("--duration", out.duration_s) ||
        number("--peers", out.peers) ||
        number("--committing-peers", out.committing_peers) ||
        number("--clients", out.clients) || number("--osns", out.osns) ||
        number("--brokers", out.brokers) ||
        number("--zookeepers", out.zookeepers) ||
        number("--channels", out.channels) ||
        number("--value-size", out.value_size) ||
        number("--key-space", out.key_space) ||
        number("--batch-size", out.batch_size) ||
        number("--batch-timeout", out.batch_timeout_s) ||
        number("--seed", out.seed) || number("--osn-queue", out.osn_queue) ||
        number("--endorser-queue", out.endorser_queue) ||
        number("--committer-blocks", out.committer_blocks) ||
        number("--retry-after-ms", out.retry_after_ms) ||
        number("--flow-window", out.flow_window) ||
        number("--pace-tps", out.pace_tps) || number("--jobs", out.jobs) ||
        number("--metrics-period-ms", out.metrics_period_ms) ||
        number("--retain-blocks", out.retain_blocks) ||
        number("--opt-vscc-workers", out.optimizations.vscc_workers)) {
      if (!error.empty()) return false;
      continue;
    }
    error = "unknown argument: " + arg;
    return false;
  }
  // Sizes the network cannot be built with, and a sampling period that
  // would never advance: rejected here instead of crashing mid-run.
  auto at_least = [&](const char* key, double value, double min) {
    if (value >= min) return true;
    error = std::string(key) + " must be at least " + metrics::Fmt(min, 0);
    return false;
  };
  return at_least("--peers", out.peers, 1) &&
         at_least("--committing-peers", out.committing_peers, 1) &&
         at_least("--osns", out.osns, 1) &&
         at_least("--brokers", out.brokers, 1) &&
         at_least("--zookeepers", out.zookeepers, 1) &&
         at_least("--metrics-period-ms", out.metrics_period_ms, 1);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!Parse(argc, argv, cli, error)) {
    std::cerr << "error: " << error << "\n\n";
    PrintHelp();
    return 2;
  }
  if (cli.help) {
    PrintHelp();
    return 0;
  }

  fabric::ExperimentConfig config;
  config.network.topology.ordering = cli.ordering;
  config.network.topology.endorsing_peers = cli.peers;
  config.network.topology.committing_peers = cli.committing_peers;
  config.network.topology.clients = cli.clients;
  config.network.topology.osns = cli.osns;
  config.network.topology.kafka_brokers = cli.brokers;
  config.network.topology.zookeepers = cli.zookeepers;
  config.network.channels = cli.channels;
  config.network.channel.policy_expr = cli.policy;
  config.network.channel.batch.max_message_count = cli.batch_size;
  config.network.channel.batch.batch_timeout =
      sim::FromSeconds(cli.batch_timeout_s);
  config.network.seed = cli.seed;
  config.workload.kind = cli.workload;
  config.workload.rate_tps = cli.rate;
  config.workload.duration = sim::FromSeconds(cli.duration_s);
  config.workload.value_size = cli.value_size;
  config.workload.key_space = cli.key_space;
  config.faults = cli.faults;
  config.check_invariants = cli.check_invariants;
  config.network.failpoints = cli.failpoints;
  config.streaming_stats = cli.streaming_stats;
  config.profile = cli.profile;
  config.network.retention.ledger_blocks = cli.retain_blocks;
  config.network.retention.osn_history_blocks =
      static_cast<std::size_t>(cli.retain_blocks);
  config.network.optimizations = cli.optimizations;
  config.metrics_period = sim::FromMillis(cli.metrics_period_ms);

  if (!cli.overload.empty()) {
    fabric::OverloadOptions& ov = config.network.overload;
    ov.enabled = true;
    ov.policy = cli.overload == "drop-oldest" ? sim::OverloadPolicy::kDropOldest
                : cli.overload == "block"     ? sim::OverloadPolicy::kBlock
                                              : sim::OverloadPolicy::kReject;
    ov.osn_max_inflight = cli.osn_queue;
    ov.osn_max_waiting = cli.osn_queue;
    ov.endorser_max_inflight = cli.endorser_queue;
    ov.endorser_max_waiting = cli.endorser_queue * 4;
    ov.committer_max_blocks = cli.committer_blocks;
    ov.retry_after = sim::FromMillis(cli.retry_after_ms);
    if (cli.flow_window > 0) {
      ov.flow.enabled = true;
      ov.flow.initial_window = cli.flow_window;
      ov.flow.pace_tps = cli.pace_tps;
    }
  }

  // Validate the fault spec before the run so a typo fails fast.
  if (!cli.faults.empty()) {
    try {
      (void)faults::FaultSchedule::Parse(cli.faults);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: bad --faults spec: " << e.what() << "\n";
      return 2;
    }
  }

  // Sweep mode: the base configuration once per arrival rate, fanned out
  // over --jobs host threads, one summary row per rate.
  if (!cli.sweep.empty()) {
    if (!cli.trace_out.empty() || !cli.telemetry_csv.empty() ||
        !cli.faults.empty() || !cli.metrics_out.empty() ||
        !cli.profile_trace.empty()) {
      std::cerr << "error: --sweep cannot be combined with --trace-out, "
                   "--telemetry-csv, --faults, --metrics-out, or "
                   "--profile-trace\n";
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
  std::optional<obs::TelemetrySampler> telemetry;
  std::ofstream telemetry_os;
  if (!cli.telemetry_csv.empty()) {
    telemetry_os.open(cli.telemetry_csv);
    if (!telemetry_os) {
      std::cerr << "error: cannot write " << cli.telemetry_csv << "\n";
      return 2;
    }
    telemetry.emplace();
    config.telemetry = &*telemetry;
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
  if (telemetry) telemetry->WriteCsv(telemetry_os);
  if (!cli.metrics_out.empty()) {
    if (cli.metrics_format == "prom") {
      registry.WritePrometheus(metrics_os);
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
