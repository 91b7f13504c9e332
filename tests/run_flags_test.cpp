// The fabricsim_cli flag grammar (fabric/run_flags.h), shared by the CLI,
// the chaos fuzzer and its corpus: the usage errors the CLI prints, the
// canonical renderer's round trip, the generated help text, and the flag ->
// config builder.
#include "fabric/run_flags.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace fabricsim::fabric {
namespace {

TEST(RunFlags, ParseRejectsWhatTheCliRejects) {
  const struct {
    std::vector<std::string> args;
    std::string error;
  } cases[] = {
      {{"--peers=2.5"}, "--peers needs an integer, got 2.5"},
      {{"--clients=0"}, "--clients must be at least 1"},
      {{"--channels=0"}, "--channels must be at least 1"},
      {{"--ordering=raft", "--osns=0"}, "--osns must be at least 1"},
      {{"--seed=-1"}, "--seed must not be negative"},
      {{"--osns=99999999999"}, "--osns is out of range: 99999999999"},
      {{"--peers=-1"}, "--peers must be at least 1"},
      {{"--committing-peers=0"}, "--committing-peers must be at least 1"},
      {{"--ordering=kafka", "--zookeepers=0"},
       "--zookeepers must be at least 1"},
      {{"--value-size=-1"}, "--value-size must not be negative"},
      {{"--metrics-period-ms=0"}, "--metrics-period-ms must be at least 1"},
      {{"--rate=fast"}, "--rate needs a number, got fast"},
      {{"--ordering=pbft"}, "unknown ordering: pbft"},
      {{"--workload=ycsb"}, "unknown workload: ycsb"},
      {{"--overload=shed"}, "unknown overload policy: shed"},
      {{"--failpoint=silent-drop:0"},
       "bad --failpoint silent-drop count: silent-drop:0"},
      {{"--metrics-format=xml"}, "unknown metrics format: xml"},
      {{"--failpoint=silent-drop:97x"},
       "bad --failpoint silent-drop count: silent-drop:97x"},
      {{"--sweep=50,fast"}, "bad --sweep rate: fast"},
      {{"--sweep=50x,1e9zz"}, "bad --sweep rate: 50x"},
      {{"--bogus=1"}, "unknown argument: --bogus=1"},
      // Each number is checked against its entry's bounds as it is parsed.
      // Reals must be finite: an infinite period used to convert to a
      // negative simulated time.
      {{"--rate=nan"}, "--rate needs a finite number, got nan"},
      {{"--metrics-period-ms=inf"},
       "--metrics-period-ms needs a finite number, got inf"},
      {{"--sweep=50,inf"}, "bad --sweep rate: inf"},
      {{"--rate=0"}, "--rate must be positive"},
      {{"--sweep=50,0"}, "bad --sweep rate: 0"},
      {{"--duration=-1"}, "--duration must be positive"},
      {{"--batch-timeout=-1"}, "--batch-timeout must be positive"},
      {{"--batch-size=0"}, "--batch-size must be at least 1"},
      {{"--osn-queue=0"}, "--osn-queue must be at least 1"},
      {{"--endorser-queue=0"}, "--endorser-queue must be at least 1"},
      {{"--key-space=0"}, "--key-space must be at least 1"},
      // Token transfers need two accounts, in either flag order; other
      // workloads run on one key.
      {{"--workload=token", "--key-space=1"},
       "--key-space must be at least 2 for --workload=token"},
      {{"--key-space=1", "--workload=token"},
       "--key-space must be at least 2 for --workload=token"},
      {{"--workload=token", "--key-space=2"}, ""},
      {{"--workload=readwrite", "--key-space=1"}, ""},
      {{"--flow-window=-1"}, "--flow-window must not be negative"},
      {{"--pace-tps=-0.5"}, "--pace-tps must not be negative"},
      {{"--retry-after-ms=-1"}, "--retry-after-ms must not be negative"},
      {{"--opt-vscc-workers=-1"}, "--opt-vscc-workers must not be negative"},
      {{"--jobs=-1"}, "--jobs must not be negative"},
      // Time-valued flags are capped far below int64 nanoseconds.
      {{"--duration=1e7"}, "--duration must be at most 1e+06"},
      {{"--batch-timeout=1e300"}, "--batch-timeout must be at most 1e+06"},
      {{"--retry-after-ms=1e10"}, "--retry-after-ms must be at most 1e+09"},
      {{"--metrics-period-ms=1e10"},
       "--metrics-period-ms must be at most 1e+09"},
      // A short smoke run stays accepted, though its report window is empty.
      {{"--duration=0.5"}, ""},
      // The first bad flag is the one reported; --help stops parsing.
      {{"--peers=x", "--rate=y"}, "--peers needs an integer, got x"},
      {{"--bogus", "--help"}, "unknown argument: --bogus"},
      {{"--help", "--bogus"}, ""},
  };
  for (const auto& c : cases) {
    RunFlags flags;
    EXPECT_EQ(ParseRunFlags(c.args, flags), c.error) << c.args.front();
  }
  RunFlags flags;
  EXPECT_TRUE(ParseRunFlags({"--faults=crash:@"}, flags)
                  .starts_with("bad --faults spec: "));
}

TEST(RunFlags, SeedKeepsEveryBitOf64Bits) {
  // 2^53 + 1: the first integer a double cannot hold.
  RunFlags flags;
  ASSERT_EQ(ParseRunFlags({"--seed=9007199254740993"}, flags), "");
  EXPECT_EQ(flags.seed, 9007199254740993ULL);
  EXPECT_EQ(flags.ToConfig().network.seed, 9007199254740993ULL);
  RunFlags back;
  ASSERT_EQ(ParseRunFlags(flags.ToArgs(), back), "");
  EXPECT_EQ(back, flags);
}

TEST(RunFlags, ToArgsRoundTripsEveryFlag) {
  // Defaults render only the flags every repro line spells out.
  EXPECT_EQ(RunFlags().ToArgs(),
            (std::vector<std::string>{"--ordering=solo", "--rate=200",
                                      "--duration=30", "--peers=10",
                                      "--osns=3", "--batch-size=100",
                                      "--seed=42"}));

  RunFlags flags;
  flags.ordering = OrderingType::kKafka;
  flags.rate = 123.5;
  flags.duration_s = 20.5;
  flags.peers = 4;
  flags.committing_peers = 2;
  flags.clients = 3;
  flags.osns = 5;
  flags.brokers = 4;
  flags.zookeepers = 5;
  flags.channels = 2;
  flags.policy = "AND('Org1MSP.peer','Org2MSP.peer')";
  flags.workload = client::WorkloadKind::kSmallBank;
  flags.value_size = 64;
  flags.key_space = 50;
  flags.seed = 18446744073709551615ULL;
  flags.batch_size = 30;
  flags.batch_timeout_s = 0.5;
  flags.csv = true;
  flags.trace_out = "t.json";
  flags.faults = "crash:osn0@15s-18s";
  flags.overload = "drop-oldest";
  flags.osn_queue = 64;
  flags.endorser_queue = 8;
  flags.committer_blocks = 0;
  flags.retry_after_ms = 50.0;
  flags.flow_window = 0.0;
  flags.pace_tps = 90.0;
  flags.check_invariants = true;
  flags.invariants_out = "i.json";
  flags.failpoints.disable_committer_dedup = true;
  flags.failpoints.client_silent_drop_every = 97;
  flags.failpoints.disable_byzantine_defense = true;
  flags.streaming_stats = true;
  flags.metrics_out = "m.csv";
  flags.metrics_format = "csv";
  flags.metrics_period_ms = 100.0;
  flags.profile = true;
  flags.profile_trace = "p.json";
  flags.retain_blocks = 16;
  flags.sweep = {50.0, 150.5};
  flags.jobs = 0;
  flags.optimizations.msp_cache = true;
  flags.optimizations.vscc_workers = 4;
  flags.optimizations.bulk_commit = true;
  flags.optimizations.policy_shortcircuit = true;

  RunFlags back;
  ASSERT_EQ(ParseRunFlags(flags.ToArgs(), back), "");
  EXPECT_EQ(back, flags);

  // The flags above are off their default in every table entry, so an
  // entry added without a value here fails.
  RunFlags defaults;
  const std::vector<Flag> table = RunFlagTable(flags);
  const std::vector<Flag> default_table = RunFlagTable(defaults);
  ASSERT_EQ(table.size(), default_table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    Flag entry = table[i];
    entry.always = false;
    EXPECT_FALSE(RenderFlags({entry}, {default_table[i]}).empty())
        << entry.key;
  }
}

TEST(RunFlags, HelpListsEachEntryOnceWithItsDefault) {
  RunFlags defaults;
  const std::vector<Flag> table = RunFlagTable(defaults);
  // Each entry starts a line with its key; continuation lines are joined.
  std::vector<std::string> keys;
  std::vector<std::string> entries;
  std::istringstream lines(HelpText(table));
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("  --")) {
      keys.push_back(line.substr(2, line.find_first_of("= ", 2) - 2));
      entries.push_back(line);
    } else {
      ASSERT_FALSE(entries.empty()) << line;
      entries.back() += " " + line.substr(line.find_first_not_of(' '));
    }
  }
  std::vector<std::string> expected;
  for (const Flag& flag : table) expected.emplace_back(flag.key);
  expected.emplace_back("--help");
  ASSERT_EQ(keys, expected);

  for (std::size_t i = 0; i < table.size(); ++i) {
    // What the entry renders at its default is the default the help
    // shows, and it parses back to the defaults.
    Flag entry = table[i];
    entry.always = true;
    const std::vector<std::string> rendered = RenderFlags({entry}, {entry});
    if (rendered.empty()) {
      EXPECT_EQ(entries[i].find("(default"), std::string::npos) << entries[i];
      continue;
    }
    const std::string value = rendered.front().substr(entry.key.size() + 1);
    EXPECT_NE(entries[i].find("(default " + value + ")"), std::string::npos)
        << entries[i];
    RunFlags parsed;
    EXPECT_EQ(ParseRunFlags(rendered, parsed), "");
    EXPECT_EQ(parsed, RunFlags()) << rendered.front();
  }
}

TEST(RunFlags, ToConfigMapsTheOverloadFlags) {
  EXPECT_FALSE(RunFlags().ToConfig().network.overload.enabled);

  RunFlags flags;
  ASSERT_EQ(ParseRunFlags({"--overload=block", "--endorser-queue=8",
                           "--flow-window=0"},
                          flags),
            "");
  const OverloadOptions& ov = flags.ToConfig().network.overload;
  EXPECT_TRUE(ov.enabled);
  EXPECT_EQ(ov.policy, sim::OverloadPolicy::kBlock);
  EXPECT_EQ(ov.osn_max_inflight, 512u);
  EXPECT_EQ(ov.endorser_max_inflight, 8u);
  EXPECT_EQ(ov.committer_max_blocks, 8u);
  EXPECT_EQ(ov.retry_after, sim::FromMillis(200.0));
  EXPECT_FALSE(ov.flow.enabled);

  // --overload=off is the default, and renders as nothing.
  RunFlags off;
  ASSERT_EQ(ParseRunFlags({"--overload=off"}, off), "");
  EXPECT_EQ(off, RunFlags());
}

}  // namespace
}  // namespace fabricsim::fabric
