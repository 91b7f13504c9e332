// The fabricsim_cli flag grammar: one flag struct, its parser, the
// flag -> ExperimentConfig builder and a canonical renderer.
//
// fabricsim_cli parses its command line here, and the chaos fuzzer stores
// every case as this struct, so a corpus entry, a fuzzer repro line and a
// CLI invocation are one flag set with one meaning:
//
//   RunFlags flags;
//   std::string error = ParseRunFlags({"--ordering=raft", "--peers=4"}, flags);
//   ExperimentConfig config = flags.ToConfig();
//   std::vector<std::string> args = flags.ToArgs();  // parses back to `flags`
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
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

  /// Canonical flag list, one flag per element, no shell quoting: ordering,
  /// rate, duration, peers, osns, batch size and seed always, every other
  /// flag only when it differs from its default. ParseRunFlags of the
  /// result gives these flags back (`help` is never rendered).
  [[nodiscard]] std::vector<std::string> ToArgs() const;
};

/// Parses `args` (argv without the program name) into `out`, on top of its
/// current values. Returns the one-line usage error, or "" on success. After
/// the last flag it checks the sizes a network cannot be built with and the
/// --faults spec. A --help flag stops parsing with `out.help` set.
[[nodiscard]] std::string ParseRunFlags(const std::vector<std::string>& args,
                                        RunFlags& out);

/// Parses one flag value into `field` and returns the error text, empty on
/// success. Integer fields go through std::from_chars in the field's own
/// type, so a 64-bit seed keeps every bit and a fractional or out-of-range
/// value is an error instead of being rounded or truncated; floating-point
/// fields go through std::stod.
template <typename T>
[[nodiscard]] std::string ParseNumber(const std::string& key,
                                      const std::string& text, T& field) {
  if constexpr (std::is_integral_v<T>) {
    if (std::is_unsigned_v<T> && text.starts_with('-')) {
      return key + " must not be negative";
    }
    T value{};
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec == std::errc::result_out_of_range) {
      return key + " is out of range: " + text;
    }
    if (ec != std::errc() || ptr != last) {
      return key + " needs an integer, got " + text;
    }
    field = value;
  } else {
    std::size_t used = 0;
    try {
      field = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size()) {
      return key + " needs a number, got " + text;
    }
  }
  return "";
}

/// An optional field is set only by a value that parses.
template <typename T>
[[nodiscard]] std::string ParseNumber(const std::string& key,
                                      const std::string& text,
                                      std::optional<T>& field) {
  T value{};
  std::string error = ParseNumber(key, text, value);
  if (error.empty()) field = value;
  return error;
}

}  // namespace fabricsim::fabric
