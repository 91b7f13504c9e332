#include "fabric/run_flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "faults/fault_schedule.h"

namespace fabricsim::fabric {

namespace {

constexpr std::string_view kHelpKey = "--help";
constexpr std::string_view kOff = "off";

constexpr std::string_view kOrderings[] = {"solo", "kafka", "raft"};
constexpr std::string_view kWorkloads[] = {"kvwrite", "readwrite", "token",
                                           "smallbank"};
constexpr std::string_view kOverloads[] = {kOff, "reject", "drop-oldest",
                                           "block"};
constexpr std::string_view kMetricsFormats[] = {"json", "prom", "csv"};

constexpr std::string_view kNoCommitterDedup = "no-committer-dedup";
constexpr std::string_view kSilentDrop = "silent-drop:";
constexpr std::string_view kNoByzantineDefense = "no-byzantine-defense";

// Simulated times are int64 nanoseconds. These caps keep each conversion,
// and the sums a run forms from it, far below 2^63 ns (~292 years).
constexpr Bounds kSeconds{.max = 1e6, .positive = true};
constexpr Bounds kMillis{.min = 0, .max = 1e9};

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

template <typename P>
constexpr bool kIsEnumPointer = std::is_enum_v<std::remove_pointer_t<P>>;

/// Decimal text of `v`; for a double, the shortest that parses back to it.
template <typename T>
std::string Text(T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Parses one number into `field` and returns the error text, empty on
/// success; `field` is left alone on failure.
template <typename T>
std::string ParseNumber(const std::string& key, const std::string& text,
                        const Bounds& bounds, T& field) {
  T value{};
  if constexpr (std::is_integral_v<T>) {
    if (std::is_unsigned_v<T> && text.starts_with('-')) {
      return key + " must not be negative";
    }
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec == std::errc::result_out_of_range) {
      return key + " is out of range: " + text;
    }
    if (ec != std::errc() || ptr != last) {
      return key + " needs an integer, got " + text;
    }
  } else {
    std::size_t used = 0;
    try {
      value = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0 || used != text.size()) {
      return key + " needs a number, got " + text;
    }
    if (!std::isfinite(value)) {
      return key + " needs a finite number, got " + text;
    }
  }
  const auto v = static_cast<double>(value);
  if (bounds.positive && !(v > 0)) return key + " must be positive";
  if (v < bounds.min) {
    return key + (bounds.min == 0 ? " must not be negative"
                                  : " must be at least " + Text(bounds.min));
  }
  if (v > bounds.max) return key + " must be at most " + Text(bounds.max);
  field = value;
  return "";
}

/// Sets `field` to the choice named `text`.
template <typename T>
std::string Choose(const Flag& flag, const std::string& text, T& field) {
  const std::span<const std::string_view> names = flag.choice.names;
  const auto it = std::ranges::find(names, text);
  if (it == names.end()) {
    return "unknown " + std::string(flag.choice.noun) + ": " + text;
  }
  if constexpr (std::is_enum_v<T>) {
    field = static_cast<T>(it - names.begin());
  } else {
    field = text == kOff ? "" : text;
  }
  return "";
}

std::string ParseFailpoint(const std::string& key, const std::string& text,
                           FailpointOptions& failpoints) {
  if (text == kNoCommitterDedup) {
    failpoints.disable_committer_dedup = true;
  } else if (text == kNoByzantineDefense) {
    failpoints.disable_byzantine_defense = true;
  } else if (!text.starts_with(kSilentDrop)) {
    return "unknown failpoint: " + text;
  } else if (!ParseNumber(key, text.substr(kSilentDrop.size()), kAtLeast1,
                          failpoints.client_silent_drop_every)
                  .empty()) {
    return "bad " + key + " silent-drop count: " + text;
  }
  return "";
}

/// Parses `text` into the field `flag` binds; a switch takes no text.
std::string ParseValue(const Flag& flag, const std::string& text) {
  const std::string key(flag.key);
  return std::visit(
      Overloaded{
          [](bool* on) {
            *on = true;
            return std::string();
          },
          [&](std::optional<int>* field) {
            int value = 0;
            std::string error = ParseNumber(key, text, flag.bounds, value);
            if (error.empty()) *field = value;
            return error;
          },
          [&](std::string* field) {
            if (!flag.choice.names.empty()) return Choose(flag, text, *field);
            *field = text;
            return std::string();
          },
          [&](FailpointOptions* field) {
            return ParseFailpoint(key, text, *field);
          },
          [&](std::vector<double>* rates) {
            std::stringstream ss(text);
            std::string item;
            while (std::getline(ss, item, ',')) {
              double rate = 0;
              if (!ParseNumber(key, item, flag.bounds, rate).empty()) {
                return "bad " + key + " rate: " + item;
              }
              rates->push_back(rate);
            }
            if (rates->empty()) return key + " needs at least one rate";
            return std::string();
          },
          [&](auto* field) {
            if constexpr (kIsEnumPointer<decltype(field)>) {
              return Choose(flag, text, *field);
            } else {
              return ParseNumber(key, text, flag.bounds, *field);
            }
          },
      },
      flag.field);
}

/// The texts `flag` renders as after its key and "=": one per failpoint
/// set, one empty text (the bare key) for a switch that is on, and none for
/// a switch that is off, an unset optional or empty free text.
std::vector<std::string> Values(const Flag& flag) {
  using Texts = std::vector<std::string>;
  return std::visit(
      Overloaded{
          [](bool* on) { return *on ? Texts{""} : Texts{}; },
          [](std::optional<int>* field) {
            return *field ? Texts{Text(**field)} : Texts{};
          },
          [&](std::string* field) {
            if (!field->empty()) return Texts{*field};
            if (flag.choice.names.empty()) return Texts{};
            return Texts{std::string(kOff)};
          },
          [](FailpointOptions* fp) {
            Texts out;
            if (fp->disable_committer_dedup) {
              out.emplace_back(kNoCommitterDedup);
            }
            if (fp->client_silent_drop_every > 0) {
              out.push_back(std::string(kSilentDrop) +
                            Text(fp->client_silent_drop_every));
            }
            if (fp->disable_byzantine_defense) {
              out.emplace_back(kNoByzantineDefense);
            }
            return out;
          },
          [](std::vector<double>* rates) {
            std::string list;
            for (double rate : *rates) {
              list += (list.empty() ? "" : ",") + Text(rate);
            }
            return list.empty() ? Texts{} : Texts{list};
          },
          [&](auto* field) {
            if constexpr (kIsEnumPointer<decltype(field)>) {
              return Texts{std::string(
                  flag.choice.names[static_cast<std::size_t>(*field)])};
            } else {
              return Texts{Text(*field)};
            }
          },
      },
      flag.field);
}

/// What HelpText shows after the key: the value grammar.
std::string Grammar(const Flag& flag) {
  if (!flag.choice.names.empty()) {
    std::string names;
    for (std::string_view name : flag.choice.names) {
      names += (names.empty() ? "=" : "|") + std::string(name);
    }
    return names;
  }
  return std::visit(
      Overloaded{
          [](bool*) -> std::string { return ""; },
          [](double*) -> std::string { return "=<x>"; },
          [](std::string*) -> std::string { return "=<text>"; },
          [](FailpointOptions*) {
            return "=" + std::string(kNoCommitterDedup) + "|" +
                   std::string(kSilentDrop) + "<n>|" +
                   std::string(kNoByzantineDefense);
          },
          [](std::vector<double>*) -> std::string { return "=<x1,x2,...>"; },
          [](auto*) -> std::string { return "=<n>"; },
      },
      flag.field);
}

}  // namespace

std::vector<Flag> RunFlagTable(RunFlags& f) {
  OptimizationOptions& opt = f.optimizations;
  return {
      {.key = "--ordering", .field = &f.ordering, .always = true,
       .choice = {kOrderings, "ordering"}, .help = "ordering service"},
      {.key = "--rate", .field = &f.rate, .always = true, .bounds = kPositive,
       .help = "aggregate arrival rate, tps"},
      {.key = "--duration", .field = &f.duration_s, .always = true,
       .bounds = kSeconds, .help = "measurement window, simulated seconds"},
      {.key = "--peers", .field = &f.peers, .always = true,
       .bounds = kAtLeast1, .help = "endorsing peers"},
      {.key = "--committing-peers", .field = &f.committing_peers,
       .bounds = kAtLeast1, .help = "dedicated validators"},
      {.key = "--clients", .field = &f.clients, .bounds = kAtLeast1,
       .help = "client machines (unset = one per endorsing peer)"},
      {.key = "--osns", .field = &f.osns, .always = true, .bounds = kAtLeast1,
       .help = "ordering service nodes"},
      {.key = "--brokers", .field = &f.brokers, .bounds = kAtLeast1,
       .help = "kafka brokers"},
      {.key = "--zookeepers", .field = &f.zookeepers, .bounds = kAtLeast1,
       .help = "zookeeper servers"},
      {.key = "--channels", .field = &f.channels, .bounds = kAtLeast1,
       .help = "channels"},
      {.key = "--batch-size", .field = &f.batch_size, .always = true,
       .bounds = kAtLeast1, .help = "BatchSize, transactions per block"},
      {.key = "--batch-timeout", .field = &f.batch_timeout_s,
       .bounds = kSeconds, .help = "BatchTimeout, simulated seconds"},
      {.key = "--value-size", .field = &f.value_size,
       .help = "kvwrite value size, bytes"},
      {.key = "--key-space", .field = &f.key_space, .bounds = kAtLeast1,
       .help = "shared-key pool size"},
      {.key = "--seed", .field = &f.seed, .always = true, .help = "RNG seed"},
      {.key = "--retain-blocks", .field = &f.retain_blocks,
       .help = "blocks kept per ledger and OSN history (0 = all)"},
      {.key = "--osn-queue", .field = &f.osn_queue, .bounds = kAtLeast1,
       .help = "OSN ingress max inflight under --overload"},
      {.key = "--endorser-queue", .field = &f.endorser_queue,
       .bounds = kAtLeast1,
       .help = "endorser ingress max inflight under --overload"},
      {.key = "--committer-blocks", .field = &f.committer_blocks,
       .help = "committer pipeline bound in blocks (0 = none)"},
      {.key = "--retry-after-ms", .field = &f.retry_after_ms,
       .bounds = kMillis, .help = "retry-after hint on overload nacks, ms"},
      {.key = "--flow-window", .field = &f.flow_window,
       .bounds = kNonNegative,
       .help = "client AIMD initial window (0 = no flow control)"},
      {.key = "--pace-tps", .field = &f.pace_tps, .bounds = kNonNegative,
       .help = "client token-bucket pacing, tps (0 = off)"},
      {.key = "--metrics-period-ms", .field = &f.metrics_period_ms,
       .bounds = {.min = 1, .max = kMillis.max},
       .help = "metrics sampling period, simulated ms"},
      {.key = "--opt-vscc-workers", .field = &opt.vscc_workers,
       .bounds = kNonNegative,
       .help = "dedicated VSCC workers per committer (0 = off)"},
      {.key = "--jobs", .field = &f.jobs, .bounds = kNonNegative,
       .help = "host threads for --sweep (0 = hardware concurrency)"},
      {.key = "--workload", .field = &f.workload,
       .choice = {kWorkloads, "workload"}, .help = "chaincode workload"},
      {.key = "--policy", .field = &f.policy,
       .help = "endorsement policy, e.g. AND('Org1MSP.peer','Org2MSP.peer')"},
      {.key = "--overload", .field = &f.overload,
       .choice = {kOverloads, "overload policy"},
       .help = "bounded ingress queues with this overflow policy"},
      {.key = "--faults", .field = &f.faults,
       .help = "fault schedule, e.g. crash:leader@15s,revive:leader@25s"},
      {.key = "--failpoint", .field = &f.failpoints,
       .help = "plant a deliberate bug, as chaos_fuzz repros do"},
      {.key = "--streaming-stats", .field = &f.streaming_stats,
       .help = "retire per-tx records at their terminal state"},
      {.key = "--opt-msp-cache", .field = &opt.msp_cache,
       .help = "cache MSP identity validation on the committers"},
      {.key = "--opt-bulk-commit", .field = &opt.bulk_commit,
       .help = "write a block's state updates as one ledger write"},
      {.key = "--opt-policy-shortcircuit", .field = &opt.policy_shortcircuit,
       .help = "stop verifying endorsements once the policy holds"},
      {.key = "--profile", .field = &f.profile,
       .help = "print the host-side DES profiler's top-10 handlers"},
      {.key = "--check-invariants", .field = &f.check_invariants,
       .help = "check the ledger invariants; exit 1 on a violation"},
      {.key = "--csv", .field = &f.csv, .help = "CSV output"},
      {.key = "--invariants-out", .field = &f.invariants_out,
       .implies = &f.check_invariants,
       .help = "write the invariant report as JSON"},
      {.key = "--trace-out", .field = &f.trace_out,
       .help = "write a Chrome trace; print the bottleneck attribution"},
      {.key = "--metrics-out", .field = &f.metrics_out,
       .help = "write the sampled metrics timeline"},
      {.key = "--metrics-format", .field = &f.metrics_format,
       .choice = {kMetricsFormats, "metrics format"},
       .help = "metrics timeline format"},
      {.key = "--profile-trace", .field = &f.profile_trace,
       .implies = &f.profile,
       .help = "write sampled handler spans as a Chrome trace"},
      {.key = "--sweep", .field = &f.sweep, .bounds = kPositive,
       .help = "run once per arrival rate, one summary row each"},
  };
}

std::string ParseFlags(const std::vector<Flag>& table,
                       const std::vector<std::string>& args, bool& help) {
  for (const std::string& arg : args) {
    if (arg == kHelpKey || arg == "-h") {
      help = true;
      return "";
    }
    const std::size_t eq = arg.find('=');
    const auto flag = std::ranges::find(
        table, std::string_view(arg).substr(0, eq), &Flag::key);
    const bool is_switch =
        flag != table.end() && std::holds_alternative<bool*>(flag->field);
    if (flag == table.end() || is_switch != (eq == std::string::npos)) {
      return "unknown argument: " + arg;
    }
    std::string error =
        ParseValue(*flag, is_switch ? "" : arg.substr(eq + 1));
    if (!error.empty()) return error;
    if (flag->implies != nullptr) *flag->implies = true;
  }
  return "";
}

std::vector<std::string> RenderFlags(const std::vector<Flag>& table,
                                     const std::vector<Flag>& defaults) {
  std::vector<std::string> args;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::vector<std::string> values = Values(table[i]);
    if (!table[i].always && values == Values(defaults[i])) continue;
    for (const std::string& value : values) {
      args.push_back(std::string(table[i].key) +
                     (value.empty() ? "" : "=" + value));
    }
  }
  return args;
}

std::string HelpText(const std::vector<Flag>& table) {
  std::string out;
  for (const Flag& flag : table) {
    out += "  " + std::string(flag.key) + Grammar(flag) + "\n      " +
           std::string(flag.help);
    for (const Flag& implied : table) {
      if (flag.implies && implied.field == Field(flag.implies)) {
        out += "; implies " + std::string(implied.key);
      }
    }
    const std::vector<std::string> values = Values(flag);
    if (!values.empty() && !values.front().empty()) {
      out += " (default " + values.front() + ")";
    }
    out += "\n";
  }
  return out + "  " + std::string(kHelpKey) + "\n      this text\n";
}

std::string ParseRunFlags(const std::vector<std::string>& args,
                          RunFlags& out) {
  const std::string error = ParseFlags(RunFlagTable(out), args, out.help);
  if (!error.empty() || out.help) return error;
  // Validate the fault spec before any run so a typo fails fast.
  try {
    (void)faults::FaultSchedule::Parse(out.faults);
  } catch (const std::invalid_argument& e) {
    return std::string("bad --faults spec: ") + e.what();
  }
  return "";
}

ExperimentConfig RunFlags::ToConfig() const {
  ExperimentConfig config;
  config.network.topology.ordering = ordering;
  config.network.topology.endorsing_peers = peers;
  config.network.topology.committing_peers = committing_peers;
  config.network.topology.clients = clients.value_or(-1);
  config.network.topology.osns = osns;
  config.network.topology.kafka_brokers = brokers;
  config.network.topology.zookeepers = zookeepers;
  config.network.channels = channels;
  config.network.channel.policy_expr = policy;
  config.network.channel.batch.max_message_count = batch_size;
  config.network.channel.batch.batch_timeout =
      sim::FromSeconds(batch_timeout_s);
  config.network.seed = seed;
  config.workload.kind = workload;
  config.workload.rate_tps = rate;
  config.workload.duration = sim::FromSeconds(duration_s);
  config.workload.value_size = value_size;
  config.workload.key_space = key_space;
  config.faults = faults;
  config.check_invariants = check_invariants;
  config.network.failpoints = failpoints;
  config.streaming_stats = streaming_stats;
  config.profile = profile;
  config.network.retention.ledger_blocks = retain_blocks;
  config.network.retention.osn_history_blocks =
      static_cast<std::size_t>(retain_blocks);
  config.network.optimizations = optimizations;
  config.metrics_period = sim::FromMillis(metrics_period_ms);

  if (!overload.empty()) {
    OverloadOptions& ov = config.network.overload;
    ov.enabled = true;
    ov.policy = overload == "drop-oldest" ? sim::OverloadPolicy::kDropOldest
                : overload == "block"     ? sim::OverloadPolicy::kBlock
                                          : sim::OverloadPolicy::kReject;
    ov.osn_max_inflight = osn_queue;
    ov.endorser_max_inflight = endorser_queue;
    ov.committer_max_blocks = committer_blocks;
    ov.retry_after = sim::FromMillis(retry_after_ms);
    if (flow_window > 0) {
      ov.flow.enabled = true;
      ov.flow.initial_window = flow_window;
      ov.flow.pace_tps = pace_tps;
    }
  }
  return config;
}

std::vector<std::string> RunFlags::ToArgs() const {
  RunFlags self = *this;
  RunFlags defaults;
  return RenderFlags(RunFlagTable(self), RunFlagTable(defaults));
}

}  // namespace fabricsim::fabric
