// chaos_fuzz: seeded random fault-schedule campaigns against the simulated
// Fabric network, with invariant oracle and failing-schedule minimization.
//
//   chaos_fuzz --seed=20260808 --runs=50 --jobs=4
//   chaos_fuzz --seed=1 --runs=200 --time-budget=300 --corpus-dir=out/
//   chaos_fuzz --seed=7 --runs=30 --inject-bug=no-committer-dedup
//
// Stdout is byte-reproducible for a fixed (--seed, --runs, --jobs-agnostic)
// campaign without --time-budget; timings go to stderr. Exit 1 when any
// case fails, 2 on usage errors.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "fabric/run_flags.h"
#include "faults/fuzzer.h"
#include "faults/shrinker.h"

using namespace fabricsim;

namespace {

struct CliOptions {
  faults::FuzzerOptions fuzzer;
  std::string corpus_dir;
  bool no_shrink = false;
  bool no_determinism = false;
  bool help = false;
};

std::vector<fabric::Flag> FlagTable(CliOptions& o) {
  faults::FuzzerOptions& f = o.fuzzer;
  return {
      {.key = "--seed", .field = &f.campaign_seed,
       .help = "campaign seed; every case derives from it"},
      {.key = "--runs", .field = &f.runs, .bounds = fabric::kAtLeast1,
       .help = "cases to generate"},
      {.key = "--time-budget", .field = &f.time_budget_s,
       .bounds = fabric::kNonNegative,
       .help = "wall seconds after which no case starts (0 = off; a "
               "budgeted campaign is not byte-reproducible)"},
      {.key = "--jobs", .field = &f.jobs, .bounds = fabric::kNonNegative,
       .help = "host threads (0 = hardware concurrency); same stdout"},
      {.key = "--corpus-dir", .field = &o.corpus_dir,
       .help = "directory for one .repro corpus file per failure"},
      {.key = "--max-shrink", .field = &f.max_shrink_runs,
       .bounds = fabric::kNonNegative, .help = "oracle-run budget per shrink"},
      {.key = "--no-shrink", .field = &o.no_shrink,
       .help = "report failing cases unminimized"},
      {.key = "--no-determinism", .field = &o.no_determinism,
       .help = "skip the repeat-run fingerprint check (2x faster)"},
      {.key = "--byzantine", .field = &f.byzantine,
       .help = "every case schedules one Byzantine attack"},
      {.key = "--inject-bug", .field = &f.failpoints,
       .help = "plant a bug in every case, as fabricsim_cli --failpoint"},
  };
}

void PrintHelp() {
  CliOptions defaults;
  std::cout << "chaos_fuzz: randomized fault-schedule campaigns with an "
               "invariant\noracle and failing-schedule minimization\n\n"
            << fabric::HelpText(FlagTable(defaults));
}

std::string CorpusFileName(const faults::CampaignFailure& failure) {
  std::string key;
  for (const std::string& arg : failure.shrunk.CorpusArgs()) key += arg + "\n";
  const std::string hash =
      crypto::DigestHex(crypto::HashStr(key)).substr(0, 12);
  const std::string tag = failure.failure.kind == faults::FailureKind::kInvariant
                              ? failure.failure.invariant
                              : faults::FailureKindName(failure.failure.kind);
  return tag + "-" + hash + ".repro";
}

void WriteCorpusFile(const std::string& dir,
                     const faults::CampaignFailure& failure,
                     std::uint64_t campaign_seed) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + CorpusFileName(failure);
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write corpus file " << path << "\n";
    return;
  }
  os << "# chaos_fuzz corpus entry\n"
     << "# campaign seed " << campaign_seed << ", case " << failure.index
     << ", failure " << faults::FailureKindName(failure.failure.kind);
  if (!failure.failure.invariant.empty()) {
    os << " (" << failure.failure.invariant << ")";
  }
  os << "\n# repro: " << failure.shrunk.ReproLine() << "\n";
  for (const std::string& arg : failure.shrunk.CorpusArgs()) {
    os << "arg: " << arg << "\n";
  }
  os << "expect_recovery: " << (failure.shrunk.expect_recovery ? 1 : 0)
     << "\n";
  std::cerr << "corpus: wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const std::string error = fabric::ParseFlags(
      FlagTable(cli), std::vector<std::string>(argv + 1, argv + argc),
      cli.help);
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n\n";
    PrintHelp();
    return 2;
  }
  if (cli.help) {
    PrintHelp();
    return 0;
  }
  cli.fuzzer.shrink = !cli.no_shrink;
  cli.fuzzer.verify_determinism = !cli.no_determinism;

  const faults::ChaosFuzzer fuzzer(cli.fuzzer);
  std::cout << "chaos_fuzz campaign seed=" << cli.fuzzer.campaign_seed
            << " runs=" << cli.fuzzer.runs
            << (cli.fuzzer.byzantine ? " byzantine" : "") << "\n";

  const auto started = std::chrono::steady_clock::now();
  const faults::CampaignResult result = fuzzer.RunCampaign();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  for (const faults::CampaignFailure& failure : result.failures) {
    std::cout << "\nFAIL case " << failure.index << " ["
              << faults::FailureKindName(failure.failure.kind);
    if (!failure.failure.invariant.empty()) {
      std::cout << ": " << failure.failure.invariant;
    }
    std::cout << "]\n";
    std::cout << "  detail: " << failure.failure.detail;
    if (failure.failure.detail.empty() ||
        failure.failure.detail.back() != '\n') {
      std::cout << "\n";
    }
    const std::size_t original_events =
        faults::FaultSchedule::Parse(failure.original.faults).events.size();
    const std::size_t shrunk_events =
        faults::FaultSchedule::Parse(failure.shrunk.faults).events.size();
    std::cout << "  original: " << original_events << " events, "
              << failure.original.faults << "\n";
    std::cout << "  shrunk:   " << shrunk_events << " events ("
              << failure.shrink_oracle_runs << " oracle runs)\n";
    std::cout << "  repro:    " << failure.shrunk.ReproLine() << "\n";
    if (!cli.corpus_dir.empty()) {
      WriteCorpusFile(cli.corpus_dir, failure, cli.fuzzer.campaign_seed);
    }
  }

  std::cout << "\ncampaign: " << result.cases_run << " cases run, "
            << result.cases_skipped << " skipped, " << result.failures.size()
            << " failures\n";
  std::cerr << "wall time: " << elapsed_s << "s\n";
  return result.AllGreen() ? 0 : 1;
}
