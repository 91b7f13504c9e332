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
#include <optional>
#include <sstream>
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
  bool help = false;
};

void PrintHelp() {
  std::cout <<
      "chaos_fuzz: randomized fault-schedule campaigns with an invariant\n"
      "oracle and failing-schedule minimization\n"
      "\n"
      "  --seed=<n>          campaign seed; every case derives from it, so\n"
      "                      a campaign is byte-reproducible (default 1)\n"
      "  --runs=<n>          cases to generate (default 50)\n"
      "  --time-budget=<s>   stop starting new cases after this many wall\n"
      "                      seconds (0 = off; budgeted campaigns are not\n"
      "                      byte-reproducible)\n"
      "  --jobs=<n>          host threads (default 1, 0 = hardware\n"
      "                      concurrency); output identical at any setting\n"
      "  --corpus-dir=<dir>  write one .repro corpus file per failure\n"
      "  --max-shrink=<n>    oracle-run budget per shrink (default 200)\n"
      "  --no-shrink         report original failing cases unminimized\n"
      "  --no-determinism    skip the repeat-run fingerprint check (2x\n"
      "                      faster, misses nondeterminism bugs)\n"
      "  --byzantine         every case schedules one Byzantine attack\n"
      "                      (equivocate, tamper-block, bogus-backfill,\n"
      "                      forge-endorsement, replay-tx) against the\n"
      "                      armed defenses; any violation is a bug\n"
      "  --inject-bug=<b>    deliberate bug for demo campaigns:\n"
      "                      no-committer-dedup | silent-drop |\n"
      "                      no-byzantine-defense\n"
      "  --help              this text\n";
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
    if (arg == "--no-shrink") {
      out.fuzzer.shrink = false;
      continue;
    }
    if (arg == "--no-determinism") {
      out.fuzzer.verify_determinism = false;
      continue;
    }
    if (auto v = ArgValue(arg, "--corpus-dir")) {
      out.corpus_dir = *v;
      continue;
    }
    if (arg == "--byzantine") {
      out.fuzzer.byzantine = true;
      continue;
    }
    if (auto v = ArgValue(arg, "--inject-bug")) {
      if (*v == "no-committer-dedup") {
        out.fuzzer.failpoints.disable_committer_dedup = true;
      } else if (*v == "silent-drop") {
        out.fuzzer.failpoints.client_silent_drop_every = 97;
      } else if (*v == "no-byzantine-defense") {
        out.fuzzer.failpoints.disable_byzantine_defense = true;
      } else {
        error = "unknown --inject-bug: " + *v;
        return false;
      }
      continue;
    }
    // Matches `key`, then parses its value into `field` with the
    // fabricsim_cli number parser; a bad value sets `error`.
    auto number = [&](const char* key, auto& field) -> bool {
      const auto v = ArgValue(arg, key);
      if (!v) return false;
      error = fabric::ParseNumber(key, *v, field);
      return true;
    };
    if (number("--seed", out.fuzzer.campaign_seed) ||
        number("--runs", out.fuzzer.runs) ||
        number("--time-budget", out.fuzzer.time_budget_s) ||
        number("--jobs", out.fuzzer.jobs) ||
        number("--max-shrink", out.fuzzer.max_shrink_runs)) {
      if (!error.empty()) return false;
      continue;
    }
    error = "unknown argument: " + arg;
    return false;
  }
  if (out.fuzzer.runs <= 0) {
    error = "--runs must be positive";
    return false;
  }
  return true;
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
