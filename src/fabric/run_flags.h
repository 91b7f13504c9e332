// The fabricsim_cli flag grammar: one flag struct, the table that declares
// each of its flags once, and the table-driven parser, canonical renderer,
// help text and flag -> ExperimentConfig builder.
//
// fabricsim_cli parses its command line here, and the chaos fuzzer stores
// every case as this struct, so a corpus entry, a fuzzer repro line and a
// CLI invocation are one flag set with one meaning:
//
//   RunFlags flags;
//   std::string error = ParseRunFlags({"--ordering=raft", "--peers=4"}, flags);
//   ExperimentConfig config = flags.ToConfig();
//   std::vector<std::string> args = flags.ToArgs();  // parses back to `flags`
//
// Another tool declares its flags as a table of `Flag` entries bound to its
// own options and reads them with ParseFlags and HelpText.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "fabric/experiment.h"
#include "fabric/optimizations.h"

namespace fabricsim::fabric {

/// Every fabricsim_cli flag. The defaults are the CLI's defaults.
struct RunFlags {
  OrderingType ordering = OrderingType::kSolo;
  double rate = 200.0;
  double duration_s = 30.0;
  int peers = 10;
  int committing_peers = 1;
  std::optional<int> clients;  // unset = one per endorsing peer
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
  std::string faults;         // declarative fault schedule ("" = none)
  std::string overload;       // reject|drop-oldest|block ("" = off)
  std::size_t osn_queue = 512;       // OSN ingress max inflight
  std::size_t endorser_queue = 32;   // endorser ingress max inflight
  std::size_t committer_blocks = 8;  // committer pipeline bound (0 = none)
  double retry_after_ms = 200.0;     // SERVICE_UNAVAILABLE retry-after hint
  double flow_window = 16.0;         // client AIMD initial window (0 = off)
  double pace_tps = 0.0;             // client token-bucket rate (0 = off)
  bool check_invariants = false;
  std::string invariants_out;  // invariant-report JSON path ("" = off)
  FailpointOptions failpoints;  // deliberate bugs for chaos demos
  bool streaming_stats = false;  // bounded-memory tracker accounting
  std::string metrics_out;       // metrics-timeline path ("" = off)
  std::string metrics_format = "json";  // json|prom|csv
  double metrics_period_ms = 250.0;
  bool profile = false;        // host-side DES profiler + top-N table
  std::string profile_trace;   // Chrome trace of sampled handler spans
  std::uint64_t retain_blocks = 0;   // ledger/OSN blocks kept (0 = all)
  std::vector<double> sweep;  // arrival rates; non-empty = sweep mode
  int jobs = 1;               // host threads for --sweep (0 = hw concurrency)
  OptimizationOptions optimizations;  // Thakkar-style validate fixes

  bool operator==(const RunFlags&) const = default;

  /// The experiment these flags describe. The output flags (--csv,
  /// --trace-out, --metrics-*, --profile-trace, --invariants-out, --sweep,
  /// --jobs) are left to the caller, which owns the files and the sweep.
  [[nodiscard]] ExperimentConfig ToConfig() const;

  /// Canonical flag list, one flag per element, no shell quoting: the
  /// RunFlagTable entries marked `always`, and every other entry only when
  /// it differs from its default, in table order. ParseRunFlags of the
  /// result gives these flags back (`help` is never rendered).
  [[nodiscard]] std::vector<std::string> ToArgs() const;
};

/// The field a flag binds; its type is the flag's value grammar. A number
/// (`--key=<n>`; integers parse in the field's own type, so a 64-bit seed
/// keeps every bit and a fraction is an error; reals must be finite), an
/// optional number, a switch (`bool`, set by the bare key), a choice (an
/// enum, or a string with a name list), free text (a string), failpoints
/// (`no-committer-dedup`, `silent-drop:<n>` or `no-byzantine-defense`, one
/// per flag) or a comma-separated rate list. The integer alternatives are
/// the fundamental types, so std::size_t and std::uint64_t are each one of
/// them on every platform.
using Field =
    std::variant<int*, unsigned*, unsigned long*, unsigned long long*,
                 double*, std::optional<int>*, bool*, OrderingType*,
                 client::WorkloadKind*, std::string*, FailpointOptions*,
                 std::vector<double>*>;

/// The values a number, or each rate of a list, may take.
struct Bounds {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool positive = false;  // also above 0
};
inline constexpr Bounds kPositive{.positive = true};
inline constexpr Bounds kNonNegative{.min = 0};
inline constexpr Bounds kAtLeast1{.min = 1};

/// A choice's names, in enum order for an enum field. A string field holds
/// the name, except that `off` is the empty string.
struct Choice {
  std::span<const std::string_view> names;
  std::string_view noun;  // as in "unknown <noun>: <value>"
};

/// One command-line flag.
struct Flag {
  std::string_view key;  // e.g. "--osn-queue"
  Field field;
  bool always = false;  // rendered even at its default
  Bounds bounds = {};
  Choice choice = {};
  bool* implies = nullptr;  // a switch that a value of this flag turns on
  std::string_view help;    // one line; HelpText appends the default
};

/// Every fabricsim_cli flag bound to the fields of `flags`, in ToArgs order.
[[nodiscard]] std::vector<Flag> RunFlagTable(RunFlags& flags);

/// Parses `args` (argv without the program name) into the fields `table`
/// binds, on top of their current values. Returns the one-line usage error
/// of the first bad flag, or "" on success. A --help (or -h) flag stops
/// parsing with `help` set.
[[nodiscard]] std::string ParseFlags(const std::vector<Flag>& table,
                                     const std::vector<std::string>& args,
                                     bool& help);

/// One flag per element, in table order: each entry that is `always` or
/// whose value differs from the same entry of `defaults`.
[[nodiscard]] std::vector<std::string> RenderFlags(
    const std::vector<Flag>& table, const std::vector<Flag>& defaults);

/// Two lines per flag, then --help: the key and its value grammar, then the
/// help line and the field's current value as the default. Pass a table
/// bound to default options.
[[nodiscard]] std::string HelpText(const std::vector<Flag>& table);

/// ParseFlags over RunFlagTable(out); then checks the --faults spec.
[[nodiscard]] std::string ParseRunFlags(const std::vector<std::string>& args,
                                        RunFlags& out);

}  // namespace fabricsim::fabric
