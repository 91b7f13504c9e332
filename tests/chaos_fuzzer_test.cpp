#include "faults/fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "faults/fault_schedule.h"
#include "faults/shrinker.h"

namespace fabricsim::faults {
namespace {

FuzzerOptions SmallCampaign(std::uint64_t seed, int runs) {
  FuzzerOptions options;
  options.campaign_seed = seed;
  options.runs = runs;
  options.verify_determinism = false;  // halves the cost; covered elsewhere
  return options;
}

TEST(ChaosFuzzerGenerate, CasesAreValidAndCanonical) {
  const ChaosFuzzer fuzzer(SmallCampaign(99, 0));
  for (int i = 0; i < 200; ++i) {
    const ChaosCase c = fuzzer.GenerateCase(i);
    ASSERT_FALSE(c.faults.empty()) << "case " << i;
    const FaultSchedule schedule = FaultSchedule::Parse(c.faults);
    EXPECT_GE(schedule.events.size(), 1u) << "case " << i;
    EXPECT_LE(schedule.events.size(), 3u) << "case " << i;
    // The generator must emit the canonical rendering so shrinker
    // candidates compare apples to apples.
    EXPECT_EQ(schedule.ToSpec(), c.faults) << "case " << i;
    EXPECT_GE(c.peers, 2) << "case " << i;
    EXPECT_LE(c.peers, 5) << "case " << i;
    EXPECT_GE(c.duration_s, 14.0) << "case " << i;
    EXPECT_LE(c.duration_s, 30.0) << "case " << i;
    // Audited-recoverable schedules are all-windowed by construction.
    if (c.expect_recovery) {
      for (const FaultEvent& ev : schedule.events) {
        EXPECT_TRUE(ev.until.has_value()) << "case " << i;
      }
      // Solo has no failover, so a crash anywhere disqualifies the audit
      // (loss/slowdown-only solo schedules may still pass it).
      if (c.ordering == fabric::OrderingType::kSolo) {
        for (const FaultEvent& ev : schedule.events) {
          EXPECT_NE(ev.kind, FaultKind::kCrash)
              << "case " << i << ": solo schedules with crashes are never "
              << "audited recoverable";
        }
      }
    }
  }
}

TEST(ChaosFuzzerGenerate, ByzantineCasesScheduleExactlyOneAttack) {
  FuzzerOptions options = SmallCampaign(99, 0);
  options.byzantine = true;
  const ChaosFuzzer fuzzer(options);
  int attack_kinds_seen[5] = {};
  for (int i = 0; i < 200; ++i) {
    const ChaosCase c = fuzzer.GenerateCase(i);
    const FaultSchedule schedule = FaultSchedule::Parse(c.faults);
    EXPECT_EQ(schedule.ToSpec(), c.faults) << "case " << i;
    // OSN-level attacks need a second OSN for attestation to ask.
    EXPECT_NE(c.ordering, fabric::OrderingType::kSolo) << "case " << i;
    // Exactly one Byzantine event; the rest of the mix is restricted to
    // non-message-destroying benign kinds so a defeated defense is always a
    // bug, never a lost-attester artifact.
    int byz = 0;
    for (const FaultEvent& ev : schedule.events) {
      if (IsByzantine(ev.kind)) {
        ++byz;
        switch (ev.kind) {
          case FaultKind::kEquivocate: ++attack_kinds_seen[0]; break;
          case FaultKind::kTamperBlock: ++attack_kinds_seen[1]; break;
          case FaultKind::kBogusBackfill: ++attack_kinds_seen[2]; break;
          case FaultKind::kForgeEndorsement: ++attack_kinds_seen[3]; break;
          default: ++attack_kinds_seen[4]; break;
        }
      } else {
        EXPECT_TRUE(ev.kind == FaultKind::kSlowCpu ||
                    ev.kind == FaultKind::kSlowDisk)
            << "case " << i << ": benign kind "
            << FaultKindName(ev.kind);
      }
    }
    EXPECT_EQ(byz, 1) << "case " << i << ": " << c.faults;
    // Placement keeps every byzantine case audited recoverable, so the
    // oracle treats any stall as a failure.
    EXPECT_TRUE(c.expect_recovery) << "case " << i << ": " << c.faults;
    // And the case round-trips through the CLI flags like any other.
    ChaosCase expected = c;
    expected.expect_recovery = false;
    EXPECT_EQ(ChaosCase::FromArgs(c.ToArgs()), expected) << "case " << i;
  }
  // 200 cases must exercise every attack kind.
  for (int k = 0; k < 5; ++k) {
    EXPECT_GT(attack_kinds_seen[k], 0) << "attack kind " << k << " never drawn";
  }
}

TEST(ChaosCampaign, ByzantineJobsSettingDoesNotChangeTheResult) {
  FuzzerOptions options = SmallCampaign(20260808, 4);
  options.byzantine = true;
  options.shrink = false;
  const CampaignResult serial = ChaosFuzzer(options).RunCampaign();
  options.jobs = 4;
  const CampaignResult parallel = ChaosFuzzer(options).RunCampaign();
  EXPECT_EQ(serial.cases_run, parallel.cases_run);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].index, parallel.failures[i].index);
    EXPECT_EQ(serial.failures[i].original, parallel.failures[i].original);
  }
}

TEST(ChaosFuzzerGenerate, SameSeedSameIndexIsDeterministic) {
  const ChaosFuzzer a(SmallCampaign(42, 0));
  const ChaosFuzzer b(SmallCampaign(42, 0));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.GenerateCase(i), b.GenerateCase(i)) << "case " << i;
  }
}

TEST(ChaosFuzzerGenerate, DifferentSeedsDiverge) {
  const ChaosFuzzer a(SmallCampaign(1, 0));
  const ChaosFuzzer b(SmallCampaign(2, 0));
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (!(a.GenerateCase(i) == b.GenerateCase(i))) ++differing;
  }
  EXPECT_GE(differing, 15);
}

TEST(ChaosFuzzerGenerate, CasesWithinACampaignDiverge) {
  const ChaosFuzzer fuzzer(SmallCampaign(7, 0));
  std::set<std::string> specs;
  for (int i = 0; i < 30; ++i) specs.insert(fuzzer.GenerateCase(i).faults);
  EXPECT_GE(specs.size(), 25u);
}

TEST(ChaosCaseArgs, FromArgsInvertsToArgs) {
  const ChaosFuzzer fuzzer(SmallCampaign(123, 0));
  for (int i = 0; i < 100; ++i) {
    const ChaosCase c = fuzzer.GenerateCase(i);
    const ChaosCase back = ChaosCase::FromArgs(c.ToArgs());
    // expect_recovery is oracle metadata, not a CLI flag; everything the
    // CLI can express must round-trip.
    ChaosCase expected = c;
    expected.expect_recovery = false;
    EXPECT_EQ(back, expected) << "case " << i;
  }
}

TEST(ChaosCaseArgs, RetainBlocksRoundTripsIntoTheConfig) {
  ChaosCase c;
  c.retain_blocks = 16;
  const std::vector<std::string> args = c.ToArgs();
  EXPECT_NE(std::find(args.begin(), args.end(), "--retain-blocks=16"),
            args.end());
  EXPECT_NE(c.ReproLine().find(" --retain-blocks=16 "), std::string::npos);
  EXPECT_EQ(ChaosCase::FromArgs(args), c);

  const fabric::ExperimentConfig config = c.ToConfig();
  EXPECT_EQ(config.network.retention.ledger_blocks, 16u);
  EXPECT_EQ(config.network.retention.osn_history_blocks, 16u);
  // Unbounded retention stays off the command line, as in the CLI.
  const std::string unbounded = ChaosCase().ReproLine();
  EXPECT_EQ(unbounded.find("--retain-blocks"), std::string::npos);
}

TEST(ChaosCaseArgs, FromArgsRejectsUnknownFlag) {
  EXPECT_THROW((void)ChaosCase::FromArgs({"--bogus=1"}),
               std::invalid_argument);
}

TEST(ChaosCaseArgs, FromArgsRejectsBadSpec) {
  EXPECT_THROW((void)ChaosCase::FromArgs({"--faults=crash:@"}),
               std::invalid_argument);
}

TEST(ChaosCaseArgs, FailpointsReachTheReproLineButNotTheCorpusArgs) {
  FuzzerOptions options = SmallCampaign(7, 0);
  options.failpoints.client_silent_drop_every = 97;
  const ChaosCase c = ChaosFuzzer(options).GenerateCase(0);
  EXPECT_EQ(c.failpoints, options.failpoints);
  EXPECT_EQ(c.ToConfig().network.failpoints, options.failpoints);
  // The repro line carries the bug, so it fails through fabricsim_cli too...
  EXPECT_NE(c.ReproLine().find(" --failpoint=silent-drop:97 "),
            std::string::npos)
      << c.ReproLine();
  EXPECT_EQ(ChaosCase::FromArgs(c.ToArgs()).failpoints, options.failpoints);
  // ...while the corpus entry is the same case on a healthy tree.
  ChaosCase healthy = c;
  healthy.failpoints = {};
  EXPECT_EQ(c.CorpusArgs(), healthy.ToArgs());
  EXPECT_EQ(ChaosFuzzer(SmallCampaign(7, 0)).GenerateCase(0).ToArgs(),
            c.CorpusArgs());
}

TEST(ChaosCaseArgs, ReproLineQuotesFaultSpec) {
  ChaosCase c;
  c.faults = "crash:osn0@15s-18s";
  const std::string line = c.ReproLine();
  EXPECT_NE(line.find("--faults=\"crash:osn0@15s-18s\""), std::string::npos)
      << line;
  EXPECT_EQ(line.rfind("fabricsim_cli ", 0), 0u) << line;
}

TEST(ChaosCampaign, JobsSettingDoesNotChangeTheResult) {
  FuzzerOptions options = SmallCampaign(20260808, 6);
  options.shrink = false;
  const CampaignResult serial = ChaosFuzzer(options).RunCampaign();
  options.jobs = 4;
  const CampaignResult parallel = ChaosFuzzer(options).RunCampaign();
  EXPECT_EQ(serial.cases_run, parallel.cases_run);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].index, parallel.failures[i].index);
    EXPECT_EQ(serial.failures[i].original, parallel.failures[i].original);
  }
}

/// The acceptance demo: disabling committer dedup must be caught as a
/// double-commit, shrink to a tiny schedule, and the minimized repro must
/// fail with the bug present and pass with it absent.
TEST(ChaosCampaign, InjectedDedupBugIsFoundShrunkAndPinned) {
  // A crash window on the solo OSN forces client resubmission, which is
  // exactly what committer dedup exists to screen out: a tx ordered just
  // before the crash is cut into the void, the commit timeout fires
  // mid-crash so the client resubmits, and after revive the deliver
  // watchdog backfills the original block — two copies ordered, caught
  // only by dedup. This is campaign seed 7 case 5, the schedule the real
  // --inject-bug=no-committer-dedup demo campaign finds.
  ChaosCase c;
  c.ordering = fabric::OrderingType::kSolo;
  c.rate = 70.0;
  c.duration_s = 12.0;
  c.peers = 4;
  c.osns = 3;
  c.batch_size = 100;
  c.seed = 888829;
  c.faults = "crash:leader@18s-26s";
  c.failpoints.disable_committer_dedup = true;

  const CaseFailure failure = RunCaseOracle(c, /*verify_determinism=*/false);
  ASSERT_EQ(failure.kind, FailureKind::kInvariant) << failure.detail;
  EXPECT_EQ(failure.invariant, "double-commit") << failure.detail;

  ShrinkOptions shrink_options;
  shrink_options.max_oracle_runs = 60;
  const ShrinkOutcome outcome = ShrinkCase(
      c, failure,
      [](const ChaosCase& candidate) {
        return RunCaseOracle(candidate, false);
      },
      shrink_options);
  const FaultSchedule shrunk = FaultSchedule::Parse(outcome.best.faults);
  EXPECT_LE(shrunk.events.size(), 3u);
  EXPECT_EQ(outcome.failure.invariant, "double-commit");

  // The minimized repro still fails under the bug...
  const CaseFailure replay = RunCaseOracle(outcome.best, false);
  EXPECT_TRUE(replay.SameAs(failure)) << replay.detail;
  // ...and is green once the bug is fixed.
  ChaosCase fixed_case = outcome.best;
  fixed_case.failpoints = {};
  const CaseFailure fixed = RunCaseOracle(fixed_case, false);
  EXPECT_FALSE(fixed.Failed()) << fixed.detail;
}

/// Shrinker behaviour pinned with a synthetic oracle: no experiments run.
TEST(Shrinker, RemovesIrrelevantEventsAndRespectsBudget) {
  ChaosCase c;
  c.duration_s = 30.0;
  c.faults =
      "crash:osn0@16s-18s,loss:0.2@17s-19s,slow:peer-machine0:0.5@20s-22s";

  CaseFailure original;
  original.kind = FailureKind::kInvariant;
  original.invariant = "double-commit";

  // Only the crash matters; everything else can go.
  int calls = 0;
  auto oracle = [&](const ChaosCase& candidate) {
    ++calls;
    CaseFailure failure;
    if (candidate.faults.find("crash:osn0") != std::string::npos) {
      failure.kind = FailureKind::kInvariant;
      failure.invariant = "double-commit";
    }
    return failure;
  };

  const ShrinkOutcome outcome = ShrinkCase(c, original, oracle, {});
  const FaultSchedule shrunk = FaultSchedule::Parse(outcome.best.faults);
  ASSERT_EQ(shrunk.events.size(), 1u);
  EXPECT_EQ(shrunk.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(outcome.oracle_runs, calls);
  EXPECT_LE(outcome.oracle_runs, 200);
  // The horizon pass must have pulled duration down as well.
  EXPECT_LT(outcome.best.duration_s, 30.0);

  // A one-run budget still returns a valid (if unminimized) case.
  ShrinkOptions tight;
  tight.max_oracle_runs = 1;
  const ShrinkOutcome bounded = ShrinkCase(c, original, oracle, tight);
  EXPECT_LE(bounded.oracle_runs, 1);
  EXPECT_NO_THROW((void)FaultSchedule::Parse(bounded.best.faults));
}

TEST(Shrinker, NeverAdoptsADifferentFailure) {
  ChaosCase c;
  c.duration_s = 30.0;
  c.faults = "crash:osn0@16s-18s,loss:0.2@17s-19s";

  CaseFailure original;
  original.kind = FailureKind::kInvariant;
  original.invariant = "double-commit";

  // Dropping the loss event flips the failure to a *different* invariant:
  // the shrinker must keep the loss event rather than chase the new bug.
  auto oracle = [&](const ChaosCase& candidate) {
    CaseFailure failure;
    failure.kind = FailureKind::kInvariant;
    failure.invariant = candidate.faults.find("loss:") != std::string::npos
                            ? "double-commit"
                            : "phantom-commit";
    return failure;
  };

  const ShrinkOutcome outcome = ShrinkCase(c, original, oracle, {});
  EXPECT_NE(outcome.best.faults.find("loss:"), std::string::npos)
      << outcome.best.faults;
  EXPECT_EQ(outcome.failure.invariant, "double-commit");
}

}  // namespace
}  // namespace fabricsim::faults
