// Replays every minimized schedule in tests/chaos_corpus/ through the
// chaos oracle. Corpus entries are written by tools/chaos_fuzz for
// failures found on *buggy* builds (deliberate failpoints or real,
// since-fixed bugs), so on a healthy tree every entry must run green —
// each file pins a regression the fuzzer once caught.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "faults/fuzzer.h"

#ifndef CHAOS_CORPUS_DIR
#error "CHAOS_CORPUS_DIR must point at tests/chaos_corpus"
#endif

namespace fabricsim::faults {
namespace {

struct CorpusEntry {
  std::string file;
  ChaosCase chaos_case;
};

std::vector<CorpusEntry> LoadCorpus() {
  std::vector<CorpusEntry> entries;
  for (const auto& dirent :
       std::filesystem::directory_iterator(CHAOS_CORPUS_DIR)) {
    if (dirent.path().extension() != ".repro") continue;
    std::ifstream is(dirent.path());
    std::vector<std::string> args;
    bool expect_recovery = false;
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (line.rfind("arg: ", 0) == 0) {
        args.push_back(line.substr(5));
      } else if (line.rfind("expect_recovery: ", 0) == 0) {
        expect_recovery = line.substr(17) == "1";
      } else {
        ADD_FAILURE() << dirent.path() << ": unparseable line: " << line;
      }
    }
    CorpusEntry entry;
    entry.file = dirent.path().filename().string();
    entry.chaos_case = ChaosCase::FromArgs(args);
    entry.chaos_case.expect_recovery = expect_recovery;
    entries.push_back(std::move(entry));
  }
  return entries;
}

TEST(ChaosCorpus, DirectoryHasPinnedSchedules) {
  EXPECT_FALSE(LoadCorpus().empty())
      << "tests/chaos_corpus/ holds no .repro entries";
}

TEST(ChaosCorpus, EveryEntryReplaysGreen) {
  for (const CorpusEntry& entry : LoadCorpus()) {
    const CaseFailure failure =
        RunCaseOracle(entry.chaos_case, /*verify_determinism=*/false);
    EXPECT_FALSE(failure.Failed())
        << entry.file << " regressed: " << FailureKindName(failure.kind)
        << (failure.invariant.empty() ? "" : " (" + failure.invariant + ")")
        << "\n"
        << failure.detail << "\nrepro: " << entry.chaos_case.ReproLine();
  }
}

}  // namespace
}  // namespace fabricsim::faults
