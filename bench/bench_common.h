// Shared helpers for the paper-reproduction bench binaries.
//
// Each binary runs one measurement grid once and prints every table drawn
// from it (paper_sweep: the paper's Figs. 2-7; endorser_scaling: its Tables
// II-III; ablations: Fig. 8 and the block-cutter, validation, ordering,
// channel, tx-size and gossip ablations). Binaries accept optional flags:
//   --quick            smaller sweeps / shorter windows (CI-friendly)
//   --smoke            smallest tier: the regression-gate sweep (subset of
//                      points, short windows); implies --quick durations
//   --csv              emit CSV instead of aligned tables
//   --attribution      trace every run and print the per-phase bottleneck
//                      attribution after each measurement point
//   --json <path>      write the machine-readable result file (schema in
//                      EXPERIMENTS.md) consumed by tools/bench_diff
//   --reps <n>         repeat each measurement point n times (plus one
//                      discarded warm-up rep) and report mean±stddev host
//                      wall clock; simulated results must be identical
//                      across reps or the run is flagged nondeterministic
//   --jobs <n>         run independent sweep points on n host threads
//                      (default: hardware concurrency; 1 = serial). The
//                      simulated results, stdout tables, and JSON point
//                      order are byte-identical at any job count — only
//                      host wall clock changes
//   --profile          attach the host-side DES profiler to every point and
//                      emit the top-10 handler table under each point's
//                      "host.profile" (host-only; never gated)
//   --metrics-out <p>  attach a metrics registry to every point and write
//                      all per-point timelines (JSON object keyed by point
//                      label) to <p>; sampling rides observer events, so
//                      simulated results are unchanged
//   --metrics-period-ms <n>  registry sampling cadence (simulated ms,
//                      default 250)
//
// An unknown flag, a value flag without its value, or a count that is not a
// positive integer exits 2 with a one-line error before any point runs.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "bench/recorder.h"
#include "fabric/experiment.h"
#include "metrics/registry.h"
#include "metrics/reporter.h"
#include "obs/attribution.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"

namespace benchutil {

struct Args {
  bool quick = false;
  bool smoke = false;
  bool csv = false;
  bool attribution = false;
  bool profile = false;
  int reps = 1;
  int jobs = 0;  // resolved: 0 -> hardware concurrency
  int metrics_period_ms = 250;
  std::string json_path;
  std::string metrics_out;

  [[nodiscard]] const char* Mode() const {
    return smoke ? "smoke" : (quick ? "quick" : "full");
  }
};

/// Per-point metrics registries, keyed by point label; created by
/// Sweep::Add under --metrics-out, flushed by Finish. Each point owns its
/// registry, so parallel sweep workers never share one.
inline std::vector<std::pair<std::string,
                             std::unique_ptr<fabricsim::metrics::Registry>>>&
MetricsSlot() {
  static std::vector<
      std::pair<std::string, std::unique_ptr<fabricsim::metrics::Registry>>>
      slot;
  return slot;
}

/// The process-wide recorder; created by ParseArgs, flushed by Finish.
inline std::unique_ptr<fabricsim::bench::Recorder>& RecorderSlot() {
  static std::unique_ptr<fabricsim::bench::Recorder> slot;
  return slot;
}

/// Prints "<bench>: <message>" and exits 2: the usage-error exit code.
[[noreturn]] inline void UsageError(const std::string& bench_name,
                                    const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", bench_name.c_str(), message.c_str());
  std::exit(2);
}

inline Args ParseArgs(int argc, char** argv, const std::string& bench_name) {
  Args out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    // The argument after a value flag; a missing one (end of the line, or
    // another flag) is a usage error.
    auto value = [&]() -> std::string {
      if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--")) {
        UsageError(bench_name, a + " needs a value");
      }
      return argv[++i];
    };
    auto count = [&]() -> int {
      const std::string v = value();
      int n = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
      if (ec != std::errc() || end != v.data() + v.size() || n < 1) {
        UsageError(bench_name, a + " needs a positive integer, got " + v);
      }
      return n;
    };
    if (a == "--quick") {
      out.quick = true;
    } else if (a == "--smoke") {
      out.smoke = out.quick = true;
    } else if (a == "--csv") {
      out.csv = true;
    } else if (a == "--attribution") {
      out.attribution = true;
    } else if (a == "--profile") {
      out.profile = true;
    } else if (a == "--json") {
      out.json_path = value();
    } else if (a == "--metrics-out") {
      out.metrics_out = value();
    } else if (a == "--metrics-period-ms") {
      out.metrics_period_ms = count();
    } else if (a == "--reps") {
      out.reps = count();
    } else if (a == "--jobs") {
      out.jobs = count();
    } else {
      UsageError(bench_name, "unknown flag " + a);
    }
  }
  if (out.jobs <= 0) {
    out.jobs = static_cast<int>(fabricsim::runner::ThreadPool::DefaultJobs());
  }
  RecorderSlot() = std::make_unique<fabricsim::bench::Recorder>(
      bench_name, out.Mode(), out.reps, out.jobs);
  return out;
}

/// A batch of independent measurement points, run host-parallel.
///
/// Usage is plan-then-execute: queue every point of a sweep with Add(), then
/// Run() executes them on `--jobs` worker threads (each point a full
/// fabric::Experiment with its own scheduler/network/RNG) and returns the
/// results in submission order. Recording into the bench JSON, the
/// cross-rep determinism check, and attribution printing all happen on the
/// calling thread in submission order, so every observable output is
/// byte-identical to a serial (`--jobs 1`) run.
class Sweep {
 public:
  explicit Sweep(const Args& args) : args_(args) {}

  /// Queues one measurement point (label must be unique within the bench;
  /// it is the join key for baseline comparison). The global --profile /
  /// --metrics-out flags are OR-ed in, so a bench can also set them per
  /// point.
  void Add(fabricsim::fabric::ExperimentConfig config, std::string label) {
    config.profile = config.profile || args_.profile;
    if (!args_.metrics_out.empty() && config.registry == nullptr) {
      auto reg = std::make_unique<fabricsim::metrics::Registry>();
      config.registry = reg.get();
      config.metrics_period =
          fabricsim::sim::FromMillis(args_.metrics_period_ms);
      MetricsSlot().emplace_back(label, std::move(reg));
    }
    points_.push_back({std::move(config), std::move(label)});
  }

  [[nodiscard]] std::size_t Size() const { return points_.size(); }

  /// Runs all queued points and returns their results in submission order.
  /// The queue is left empty, so one Sweep can run several dependent
  /// batches (plan, Run, plan the next batch from the results, Run, ...).
  std::vector<fabricsim::fabric::ExperimentResult> Run() {
    fabricsim::runner::SweepOptions options;
    options.jobs = args_.jobs;
    options.reps = args_.reps;
    options.attribution = args_.attribution;
    std::vector<fabricsim::runner::PointOutcome> outcomes =
        fabricsim::runner::RunSweep(std::move(points_), options);
    points_.clear();

    std::vector<fabricsim::fabric::ExperimentResult> results;
    results.reserve(outcomes.size());
    for (fabricsim::runner::PointOutcome& outcome : outcomes) {
      if (!outcome.deterministic) {
        std::fprintf(stderr, "bench: NONDETERMINISM at %s %s\n",
                     outcome.label.c_str(), outcome.mismatch.c_str());
        RecorderSlot()->MarkNondeterministic();
      }
      fabricsim::bench::HostSample host;
      host.wall_s = std::move(outcome.wall_s);
      host.sched_events = outcome.result.sched_events;
      RecorderSlot()->AddPoint(outcome.label, outcome.result, host);
      if (outcome.result.attribution) {
        std::cout << "attribution @ " << outcome.label << ":\n";
        fabricsim::obs::PrintAttribution(*outcome.result.attribution,
                                         std::cout, args_.csv);
      }
      results.push_back(std::move(outcome.result));
    }
    return results;
  }

 private:
  const Args& args_;
  std::vector<fabricsim::runner::SweepPoint> points_;
};

/// Runs one measurement point and records it — the serial path for points
/// whose config depends on an earlier result (saturation probes). See
/// Sweep for batching independent points across cores.
inline fabricsim::fabric::ExperimentResult RunPoint(
    fabricsim::fabric::ExperimentConfig config, const Args& args,
    const std::string& label) {
  Sweep sweep(args);
  sweep.Add(std::move(config), label);
  return std::move(sweep.Run().front());
}

/// Writes the JSON result file if --json was given. Returns the process
/// exit code: nonzero when the bench failed, the write failed, or any
/// measurement point was nondeterministic.
inline int Finish(const Args& args, bool ok = true) {
  if (!RecorderSlot()->Deterministic()) {
    std::cerr << "bench: determinism violation across repetitions\n";
    ok = false;
  }
  if (!args.json_path.empty() &&
      !RecorderSlot()->WriteFile(args.json_path)) {
    ok = false;
  }
  if (!args.metrics_out.empty()) {
    std::ofstream os(args.metrics_out);
    if (!os) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   args.metrics_out.c_str());
      ok = false;
    } else {
      os << "{";
      bool first = true;
      for (const auto& [label, reg] : MetricsSlot()) {
        os << (first ? "\n" : ",\n") << '"' << label << "\": ";
        reg->WriteJson(os);
        first = false;
      }
      os << "}\n";
      if (!os) {
        std::fprintf(stderr, "bench: write to %s failed\n",
                     args.metrics_out.c_str());
        ok = false;
      }
    }
    MetricsSlot().clear();
  }
  return ok ? 0 : 1;
}

inline void PrintTable(const fabricsim::metrics::Table& table,
                       const Args& args) {
  if (args.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
}

/// Applies the default measurement durations (shorter with --quick/--smoke).
inline void Tune(fabricsim::fabric::ExperimentConfig& config,
                 const Args& args) {
  using fabricsim::sim::FromSeconds;
  config.workload.duration =
      FromSeconds(args.smoke ? 12 : (args.quick ? 20 : 30));
  config.warmup = FromSeconds(5);
  config.drain = FromSeconds(args.smoke ? 10 : 12);
}

inline const char* kOrderings[] = {"Solo", "Kafka", "Raft"};

inline fabricsim::fabric::OrderingType OrderingAt(int i) {
  using fabricsim::fabric::OrderingType;
  switch (i) {
    case 0:
      return OrderingType::kSolo;
    case 1:
      return OrderingType::kKafka;
    default:
      return OrderingType::kRaft;
  }
}

}  // namespace benchutil
