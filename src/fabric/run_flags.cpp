#include "fabric/run_flags.h"

#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "faults/fault_schedule.h"

namespace fabricsim::fabric {

namespace {

constexpr std::pair<std::string_view, OrderingType> kOrderings[] = {
    {"solo", OrderingType::kSolo},
    {"kafka", OrderingType::kKafka},
    {"raft", OrderingType::kRaft},
};

constexpr std::pair<std::string_view, client::WorkloadKind> kWorkloads[] = {
    {"kvwrite", client::WorkloadKind::kKvWrite},
    {"readwrite", client::WorkloadKind::kKvReadWrite},
    {"token", client::WorkloadKind::kTokenTransfer},
    {"smallbank", client::WorkloadKind::kSmallBank},
};

template <typename E, std::size_t N>
bool Lookup(const std::pair<std::string_view, E> (&table)[N],
            std::string_view name, E& out) {
  for (const auto& [n, value] : table) {
    if (n == name) {
      out = value;
      return true;
    }
  }
  return false;
}

template <typename E, std::size_t N>
std::string NameOf(const std::pair<std::string_view, E> (&table)[N], E value) {
  for (const auto& [name, v] : table) {
    if (v == value) return std::string(name);
  }
  return "";
}

/// Calls fn(key, always_rendered, field...) for every numeric flag, in
/// rendering order, with that flag's field of each `f`.
template <typename Fn, typename... Flags>
void ForEachNumber(Fn&& fn, Flags&... f) {
  fn("--rate", true, f.rate...);
  fn("--duration", true, f.duration_s...);
  fn("--peers", true, f.peers...);
  fn("--committing-peers", false, f.committing_peers...);
  fn("--clients", false, f.clients...);
  fn("--osns", true, f.osns...);
  fn("--brokers", false, f.brokers...);
  fn("--zookeepers", false, f.zookeepers...);
  fn("--channels", false, f.channels...);
  fn("--batch-size", true, f.batch_size...);
  fn("--batch-timeout", false, f.batch_timeout_s...);
  fn("--value-size", false, f.value_size...);
  fn("--key-space", false, f.key_space...);
  fn("--seed", true, f.seed...);
  fn("--retain-blocks", false, f.retain_blocks...);
  fn("--osn-queue", false, f.osn_queue...);
  fn("--endorser-queue", false, f.endorser_queue...);
  fn("--committer-blocks", false, f.committer_blocks...);
  fn("--retry-after-ms", false, f.retry_after_ms...);
  fn("--flow-window", false, f.flow_window...);
  fn("--pace-tps", false, f.pace_tps...);
  fn("--metrics-period-ms", false, f.metrics_period_ms...);
  fn("--opt-vscc-workers", false, f.optimizations.vscc_workers...);
  fn("--jobs", false, f.jobs...);
}

/// Calls fn(flag, field) for every on/off flag, in rendering order.
template <typename Fn, typename Flags>
void ForEachSwitch(Fn&& fn, Flags& f) {
  fn("--streaming-stats", f.streaming_stats);
  fn("--opt-msp-cache", f.optimizations.msp_cache);
  fn("--opt-bulk-commit", f.optimizations.bulk_commit);
  fn("--opt-policy-shortcircuit", f.optimizations.policy_shortcircuit);
  fn("--profile", f.profile);
  fn("--check-invariants", f.check_invariants);
  fn("--csv", f.csv);
}

/// Shortest decimal that parses back to the same double.
std::string Text(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

template <typename T>
  requires std::is_integral_v<T>
std::string Text(T v) {
  return std::to_string(v);
}

std::string Text(const std::optional<int>& v) { return Text(*v); }

std::optional<std::string> ArgValue(const std::string& arg,
                                    std::string_view key) {
  const std::string prefix = std::string(key) + "=";
  if (arg.starts_with(prefix)) return arg.substr(prefix.size());
  return std::nullopt;
}

}  // namespace

std::string ParseRunFlags(const std::vector<std::string>& args,
                          RunFlags& out) {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      return "";
    }
    bool matched = false;
    ForEachSwitch(
        [&](std::string_view key, bool& on) {
          if (arg == key) on = matched = true;
        },
        out);
    std::string error;
    ForEachNumber(
        [&](const char* key, bool, auto& field) {
          if (const auto v = ArgValue(arg, key)) {
            error = ParseNumber(key, *v, field);
            matched = true;
          }
        },
        out);
    if (!error.empty()) return error;
    if (matched) continue;

    if (auto v = ArgValue(arg, "--ordering")) {
      if (!Lookup(kOrderings, *v, out.ordering)) {
        return "unknown ordering: " + *v;
      }
    } else if (auto v = ArgValue(arg, "--workload")) {
      if (!Lookup(kWorkloads, *v, out.workload)) {
        return "unknown workload: " + *v;
      }
    } else if (auto v = ArgValue(arg, "--policy")) {
      out.policy = *v;
    } else if (auto v = ArgValue(arg, "--trace-out")) {
      out.trace_out = *v;
    } else if (auto v = ArgValue(arg, "--faults")) {
      out.faults = *v;
    } else if (auto v = ArgValue(arg, "--overload")) {
      if (*v != "off" && *v != "reject" && *v != "drop-oldest" &&
          *v != "block") {
        return "unknown overload policy: " + *v;
      }
      out.overload = (*v == "off") ? "" : *v;
    } else if (auto v = ArgValue(arg, "--invariants-out")) {
      out.invariants_out = *v;
      out.check_invariants = true;
    } else if (auto v = ArgValue(arg, "--failpoint")) {
      if (*v == "no-committer-dedup") {
        out.failpoints.disable_committer_dedup = true;
      } else if (v->starts_with("silent-drop:")) {
        int& every = out.failpoints.client_silent_drop_every;
        if (!ParseNumber("--failpoint", v->substr(12), every).empty() ||
            every <= 0) {
          every = 0;
          return "bad --failpoint silent-drop count: " + *v;
        }
      } else if (*v == "no-byzantine-defense") {
        out.failpoints.disable_byzantine_defense = true;
      } else {
        return "unknown failpoint: " + *v;
      }
    } else if (auto v = ArgValue(arg, "--profile-trace")) {
      out.profile_trace = *v;
      out.profile = true;
    } else if (auto v = ArgValue(arg, "--metrics-out")) {
      out.metrics_out = *v;
    } else if (auto v = ArgValue(arg, "--metrics-format")) {
      if (*v != "json" && *v != "prom" && *v != "csv") {
        return "unknown metrics format: " + *v;
      }
      out.metrics_format = *v;
    } else if (auto v = ArgValue(arg, "--sweep")) {
      std::stringstream ss(*v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        double rate = 0;
        if (!ParseNumber("--sweep", item, rate).empty()) {
          return "bad --sweep rate: " + item;
        }
        out.sweep.push_back(rate);
      }
      if (out.sweep.empty()) return "--sweep needs at least one rate";
    } else {
      return "unknown argument: " + arg;
    }
  }
  // Sizes the network cannot be built with, and a sampling period that
  // would never advance: rejected here instead of crashing mid-run.
  const std::pair<const char*, double> minimums[] = {
      {"--peers", out.peers},
      {"--committing-peers", out.committing_peers},
      {"--clients", out.clients.value_or(1)},
      {"--channels", out.channels},
      {"--osns", out.osns},
      {"--brokers", out.brokers},
      {"--zookeepers", out.zookeepers},
      {"--metrics-period-ms", out.metrics_period_ms},
  };
  for (const auto& [key, value] : minimums) {
    if (!(value >= 1)) return std::string(key) + " must be at least 1";
  }
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
  static const RunFlags kDefaults;
  std::vector<std::string> args;
  args.push_back("--ordering=" + NameOf(kOrderings, ordering));
  ForEachNumber(
      [&](const char* key, bool always, const auto& value,
          const auto& default_value) {
        if (always || value != default_value) {
          args.push_back(std::string(key) + "=" + Text(value));
        }
      },
      *this, kDefaults);
  if (workload != kDefaults.workload) {
    args.push_back("--workload=" + NameOf(kWorkloads, workload));
  }
  if (!policy.empty()) args.push_back("--policy=" + policy);
  if (!overload.empty()) args.push_back("--overload=" + overload);
  if (!faults.empty()) args.push_back("--faults=" + faults);
  if (failpoints.disable_committer_dedup) {
    args.push_back("--failpoint=no-committer-dedup");
  }
  if (failpoints.client_silent_drop_every > 0) {
    args.push_back("--failpoint=silent-drop:" +
                   Text(failpoints.client_silent_drop_every));
  }
  if (failpoints.disable_byzantine_defense) {
    args.push_back("--failpoint=no-byzantine-defense");
  }
  ForEachSwitch(
      [&](std::string_view key, bool on) {
        if (on) args.emplace_back(key);
      },
      *this);
  if (!invariants_out.empty()) {
    args.push_back("--invariants-out=" + invariants_out);
  }
  if (!trace_out.empty()) args.push_back("--trace-out=" + trace_out);
  if (!metrics_out.empty()) args.push_back("--metrics-out=" + metrics_out);
  if (metrics_format != kDefaults.metrics_format) {
    args.push_back("--metrics-format=" + metrics_format);
  }
  if (!profile_trace.empty()) {
    args.push_back("--profile-trace=" + profile_trace);
  }
  if (!sweep.empty()) {
    std::string rates;
    for (double rate : sweep) rates += (rates.empty() ? "" : ",") + Text(rate);
    args.push_back("--sweep=" + rates);
  }
  return args;
}

}  // namespace fabricsim::fabric
