// Reproduces Figs. 2-7 from one measurement grid: each ordering service
// (Solo, Kafka, Raft) under the OR and AND(5) endorsement policies, swept
// over the arrival rate. The six figures are views of the same points, so
// every point runs once and all six tables print from its results:
//   Fig. 2  overall throughput            Fig. 3  overall latency
//   Fig. 4  per-phase throughput, OR      Fig. 5  per-phase throughput, AND5
//   Fig. 6  per-phase latency, OR         Fig. 7  per-phase latency, AND5
//
// Paper's findings to confirm:
//   - all three ordering services peak around 300 tps under OR; AND peaks
//     significantly lower, around 200 tps (Fig. 2);
//   - latency is flat before the saturation knee and grows sharply past it,
//     earlier under AND because its peak throughput is lower (Fig. 3);
//   - each phase grows linearly with the arrival rate until its own peak;
//     the validate phase peaks first (the bottleneck), near 300 tps under
//     OR and 200-210 tps under AND5, where VSCC verifies five endorsement
//     signatures per transaction (Figs. 4-5);
//   - per-phase latencies are stable before the peak; order & validate
//     rises once the arrival rate passes the validate phase's capacity
//     (Figs. 6-7).
#include "bench_common.h"

using namespace fabricsim;

namespace {

/// The arrival-rate sweep (the paper sweeps to ~450 tps). Smoke keeps one
/// pre-knee and one at-knee point.
std::vector<double> RateSweep(const benchutil::Args& args) {
  if (args.smoke) return {150, 250};
  if (args.quick) return {50, 150, 250, 350};
  return {25, 50, 100, 150, 200, 250, 300, 350, 400, 450};
}

constexpr int kAndX[] = {0, 5};  // column policy: OR, AND5

using Field = double metrics::PhaseSummary::*;
using Phase = metrics::PhaseSummary metrics::Report::*;

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::ParseArgs(argc, argv, "paper_sweep");

  const std::vector<double> rates = RateSweep(args);
  benchutil::Sweep sweep(args);
  for (double rate : rates) {
    for (int o = 0; o < 3; ++o) {
      for (int and_x : kAndX) {
        fabric::ExperimentConfig config =
            fabric::StandardConfig(benchutil::OrderingAt(o), and_x, rate);
        benchutil::Tune(config, args);
        sweep.Add(config, std::string(benchutil::kOrderings[o]) +
                              (and_x > 0 ? "/AND5@" : "/OR@") +
                              metrics::Fmt(rate, 0));
      }
    }
  }
  const auto results = sweep.Run();

  // Results are rate-major in submission order: Solo/OR, Solo/AND5,
  // Kafka/OR, ... for each rate.
  const auto report = [&](std::size_t rate_index, int o,
                          int policy) -> const metrics::Report& {
    return results[(rate_index * 3 + o) * 2 + policy].report;
  };

  // Figs. 2-3: one row per rate, one column per ordering × policy.
  const auto overall = [&](const char* title, Field field, int precision,
                           const char* expected) {
    std::cout << title;
    metrics::Table table({"arrival_tps", "Solo/OR", "Solo/AND5", "Kafka/OR",
                          "Kafka/AND5", "Raft/OR", "Raft/AND5"});
    for (std::size_t r = 0; r < rates.size(); ++r) {
      std::vector<std::string> row{metrics::Fmt(rates[r], 0)};
      for (int o = 0; o < 3; ++o) {
        for (int policy = 0; policy < 2; ++policy) {
          row.push_back(
              metrics::Fmt(report(r, o, policy).end_to_end.*field, precision));
        }
      }
      table.AddRow(std::move(row));
    }
    benchutil::PrintTable(table, args);
    std::cout << expected;
  };

  // Figs. 4-7: one table per ordering service, one column per phase.
  const auto per_phase = [&](const char* title, int policy,
                             const std::vector<std::string>& columns,
                             const std::vector<Phase>& phases, Field field,
                             int precision, const char* expected) {
    std::cout << title;
    for (int o = 0; o < 3; ++o) {
      std::cout << "--- Ordering service: " << benchutil::kOrderings[o]
                << " ---\n";
      metrics::Table table(columns);
      for (std::size_t r = 0; r < rates.size(); ++r) {
        const metrics::Report& rep = report(r, o, policy);
        std::vector<std::string> row{metrics::Fmt(rates[r], 0)};
        for (Phase phase : phases) {
          row.push_back(metrics::Fmt((rep.*phase).*field, precision));
        }
        table.AddRow(std::move(row));
      }
      benchutil::PrintTable(table, args);
    }
    std::cout << expected;
  };

  using metrics::PhaseSummary;
  using metrics::Report;
  const Field tps = &PhaseSummary::throughput_tps;
  const Field latency = &PhaseSummary::mean_latency_s;
  const std::vector<std::string> tps_columns{"arrival_tps", "execute",
                                             "order", "validate"};
  const std::vector<Phase> tps_phases{&Report::execute, &Report::order,
                                      &Report::validate};
  const std::vector<std::string> latency_columns{"arrival_tps", "execute_s",
                                                 "order+validate_s"};
  const std::vector<Phase> latency_phases{&Report::execute,
                                          &Report::order_and_validate};

  overall("=== Fig. 2: Overall transaction throughput (tps) ===\n", tps, 1,
          "\nExpected shape: OR saturates ~300 tps for all three "
          "orderings; AND5 ~200 tps; no significant difference between "
          "Solo, Kafka, Raft.\n");
  overall("=== Fig. 3: Overall transaction latency (s) ===\n", latency, 2,
          "\nExpected shape: sub-second latency below the knee "
          "(~300 tps OR / ~200 tps AND5), rising sharply past it; the "
          "AND5 columns blow up at lower arrival rates than OR.\n");
  per_phase("=== Fig. 4: Per-phase throughput under OR (tps) ===\n", 0,
            tps_columns, tps_phases, tps, 1,
            "\nExpected shape: execute and order track the arrival rate "
            "across the sweep; validate plateaus around 300 tps — the "
            "system bottleneck is the validate phase.\n");
  per_phase("=== Fig. 5: Per-phase throughput under AND5 (tps) ===\n", 1,
            tps_columns, tps_phases, tps, 1,
            "\nExpected shape: the validate phase plateaus around "
            "200-210 tps (five signature verifications per transaction); "
            "execute tracks the arrival rate further before the client "
            "ceiling binds.\n");
  per_phase("=== Fig. 6: Per-phase latency under OR (s) ===\n", 0,
            latency_columns, latency_phases, latency, 2,
            "\nExpected shape: execute latency ~0.25-0.35 s throughout; "
            "order & validate ~0.4-0.6 s until ~300 tps, then climbing as "
            "the validate queue builds.\n");
  per_phase("=== Fig. 7: Per-phase latency under AND5 (s) ===\n", 1,
            latency_columns, latency_phases, latency, 2,
            "\nExpected shape: execute latency higher than under OR "
            "(five-peer fan-out, straggler effect); order & validate "
            "explodes past ~200 tps — earlier than OR's knee.\n");
  return benchutil::Finish(args);
}
