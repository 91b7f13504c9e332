#include "faults/fuzzer.h"

#include <chrono>
#include <cmath>
#include <future>
#include <stdexcept>
#include <utility>

#include "faults/shrinker.h"
#include "runner/thread_pool.h"
#include "sim/rng.h"

namespace fabricsim::faults {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kInvariant:
      return "invariant";
    case FailureKind::kStall:
      return "stall";
    case FailureKind::kDeterminism:
      return "determinism";
    case FailureKind::kError:
      return "error";
  }
  return "unknown";
}

fabric::ExperimentConfig ChaosCase::ToConfig() const {
  fabric::ExperimentConfig config = RunFlags::ToConfig();
  config.check_invariants = true;
  // Stalls are classified by the oracle against the recoverability audit
  // (FailureKind::kStall); acked-lost must not double-report them on wild
  // schedules where a stall is a legitimate outcome.
  config.stall_pending_is_lost = false;
  return config;
}

std::vector<std::string> ChaosCase::CorpusArgs() const {
  ChaosCase healthy = *this;
  healthy.failpoints = {};
  return healthy.ToArgs();
}

std::string ChaosCase::ReproLine() const {
  std::string line = "fabricsim_cli";
  for (const std::string& arg : ToArgs()) {
    line += " ";
    // Quote the fault spec for shell readability (it contains no spaces or
    // quotes, so plain double quotes are always safe).
    if (arg.starts_with("--faults=")) {
      line += "--faults=\"" + arg.substr(9) + "\"";
    } else {
      line += arg;
    }
  }
  return line;
}

ChaosCase ChaosCase::FromArgs(const std::vector<std::string>& args) {
  ChaosCase c;
  const std::string error = fabric::ParseRunFlags(args, c);
  if (!error.empty()) throw std::invalid_argument(error);
  return c;
}

CaseFailure RunCaseOracle(const ChaosCase& chaos_case,
                          bool verify_determinism) {
  CaseFailure failure;
  try {
    const fabric::ExperimentConfig config = chaos_case.ToConfig();
    const fabric::ExperimentResult first = fabric::RunExperiment(config);

    if (first.invariants && !first.invariants->Ok()) {
      failure.kind = FailureKind::kInvariant;
      failure.invariant = first.invariants->violations.front().invariant;
      failure.detail = first.invariants->Summary();
      return failure;
    }
    if (!first.chain_audit_ok) {
      failure.kind = FailureKind::kInvariant;
      failure.invariant = "chain-audit";
      failure.detail = "chain audit failed";
      return failure;
    }
    if (chaos_case.expect_recovery && first.recovery &&
        first.recovery->stalled) {
      failure.kind = FailureKind::kStall;
      failure.detail =
          "commits permanently stalled on a schedule audited recoverable";
      return failure;
    }
    if (verify_determinism) {
      const fabric::ExperimentResult second = fabric::RunExperiment(config);
      auto fingerprint = [](const fabric::ExperimentResult& r) {
        return r.chain_head_hex + "/" + std::to_string(r.chain_height) + "/" +
               std::to_string(r.client_committed_valid) + "/" +
               std::to_string(r.client_rejected) + "/" +
               std::to_string(r.generated);
      };
      const std::string a = fingerprint(first);
      const std::string b = fingerprint(second);
      if (a != b) {
        failure.kind = FailureKind::kDeterminism;
        failure.detail = "fingerprint mismatch across repeat run: " + a +
                         " vs " + b;
        return failure;
      }
    }
  } catch (const std::exception& e) {
    failure.kind = FailureKind::kError;
    failure.detail = e.what();
  }
  return failure;
}

bool ScheduleLooksRecoverable(const ChaosCase& chaos_case,
                              const FaultSchedule& schedule) {
  if (schedule.events.empty()) return false;
  const double warmup_s = sim::ToSeconds(chaos_case.ToConfig().warmup);
  const double window_end = warmup_s + chaos_case.duration_s;
  const bool solo = chaos_case.ordering == fabric::OrderingType::kSolo;
  const bool kafka = chaos_case.ordering == fabric::OrderingType::kKafka;
  int crash_events = 0;

  auto is_endorser = [](const std::string& t) {
    return t.rfind("peer.endorse", 0) == 0;
  };
  auto is_osn = [](const std::string& t) {
    return t.rfind("osn", 0) == 0;
  };

  for (const FaultEvent& ev : schedule.events) {
    // Only self-undoing windows: bare crashes/loss/etc. persist to the end
    // of the run, and explicit revive/heal pairs are not audited here.
    if (ev.kind == FaultKind::kRevive || ev.kind == FaultKind::kHeal) {
      return false;
    }
    // replay-tx is the one point-shaped fault that needs no undo window:
    // the committer's tx-id dedup absorbs the replays instantly.
    if (!ev.until && ev.kind != FaultKind::kReplayTx) return false;
    // The fault must start after the system is warm and end early enough
    // that recovery (Raft ~2 s re-election, commit-timeout resubmits up to
    // ~8 s) completes inside the measurement window.
    if (sim::ToSeconds(ev.at) < warmup_s + 5.0) return false;
    if (ev.until && sim::ToSeconds(*ev.until) > window_end - 10.0) {
      return false;
    }

    switch (ev.kind) {
      case FaultKind::kCrash: {
        ++crash_events;
        // Solo has no failover: any crash can legitimately kill the run.
        if (solo) return false;
        if (ev.groups.at(0).size() != 1) return false;
        const std::string& target = ev.groups.at(0).front();
        if (is_endorser(target)) break;  // endorsement failover covers it
        if (kafka) {
          // Broker/ZK/leader (the partition-leader broker) outages recover
          // on the ~10 s metadata refresh — too slow to audit as safe here.
          if (!is_osn(target)) return false;
        } else {
          // Raft: one leader/OSN crash re-elects in ~2 s; concurrent
          // crashes can cost quorum.
          if (target != "leader" && !is_osn(target)) return false;
        }
        break;
      }
      case FaultKind::kPartition:
        if (solo) return false;
        if (ev.groups.size() != 2) return false;
        break;
      case FaultKind::kLoss:
        if (ev.value > 0.4) return false;
        break;
      case FaultKind::kSlowCpu:
        if (ev.value < 0.15) return false;
        break;
      case FaultKind::kSlowDisk:
        if (ev.value < 0.15) return false;
        // The validator's disk is the commit path; a deep slowdown can
        // leave a backlog the drain never clears. (Committing peers are
        // indexed after the endorsing ones, so the validator is
        // peer.commit<peers>.)
        if (ev.groups.at(0).front() ==
                "peer.commit" + std::to_string(chaos_case.peers) &&
            ev.value < 0.4) {
          return false;
        }
        break;
      case FaultKind::kEquivocate:
        // The forged variant is internally consistent (valid signature,
        // matching data hash); only the cross-OSN attestation catches it,
        // and that needs a second OSN to ask.
        if (solo) return false;
        break;
      case FaultKind::kTamperBlock:
      case FaultKind::kBogusBackfill:
        // Caught by the committer's always-on data-hash re-check; the gap
        // repair then refetches the honest copy once the window closes.
        break;
      case FaultKind::kForgeEndorsement:
        // Clients verify endorsement signatures and retry the survivors;
        // post-window the targeted endorser signs honestly again.
        break;
      case FaultKind::kReplayTx:
        break;
      case FaultKind::kRevive:
      case FaultKind::kHeal:
        return false;
    }
  }
  // Concurrent crash windows can remove a Raft quorum or both replicas of
  // a Kafka partition; audit only single-crash schedules as recoverable.
  return crash_events <= 1;
}

ChaosCase ChaosFuzzer::GenerateCase(int index) const {
  // Independent per-case stream: reproducible from (campaign_seed, index)
  // alone, regardless of --jobs or completion order.
  sim::Rng rng(options_.campaign_seed ^
               (0x9E3779B97F4A7C15ULL *
                (static_cast<std::uint64_t>(index) + 1)));

  using fabric::OrderingType;
  ChaosCase c;
  c.failpoints = options_.failpoints;
  const double pick = rng.NextDouble();
  // Byzantine cases never use Solo: the OSN-level attacks need a second OSN
  // for the attestation defense to cross-check against.
  c.ordering = options_.byzantine
                   ? (pick < 0.45 ? OrderingType::kKafka : OrderingType::kRaft)
               : pick < 0.20 ? OrderingType::kSolo
               : pick < 0.45 ? OrderingType::kKafka
                             : OrderingType::kRaft;
  c.peers = static_cast<int>(rng.NextInRange(2, 5));
  if (rng.NextBool(0.25)) {
    c.clients = static_cast<int>(rng.NextInRange(1, c.peers));
  }
  if (c.ordering == OrderingType::kRaft && rng.NextBool(0.3)) c.osns = 5;
  c.channels = rng.NextBool(0.15) ? 2 : 1;
  c.rate = static_cast<double>(rng.NextInRange(2, 9)) * 10.0;
  const std::uint32_t batch_sizes[] = {30, 50, 100, 200};
  c.batch_size = batch_sizes[rng.NextBelow(4)];
  if (rng.NextBool(0.2)) c.batch_timeout_s = 0.5;
  if (rng.NextBool(0.15)) c.value_size = 64;
  c.seed = rng.Next() % 1000000;
  if (rng.NextBool(0.3)) {
    const char* policies[] = {"reject", "drop-oldest", "block"};
    c.overload = policies[rng.NextBelow(3)];
  }

  // Wild cases explore harsher faults (bare crashes, validator outages,
  // heavy loss) where a stall is a legitimate outcome; tame cases stay
  // within what ScheduleLooksRecoverable can audit. Byzantine campaigns
  // stay tame throughout: every case must be audited recoverable so a
  // defense that wedges the channel is reported, not excused.
  const bool wild = !options_.byzantine && rng.NextBool(0.4);
  c.duration_s =
      static_cast<double>(rng.NextInRange(wild ? 28 : 40, wild ? 44 : 60)) *
      0.5;  // tame 20-30 s, wild 14-22 s
  const double warmup_s = sim::ToSeconds(c.ToConfig().warmup);
  const double window_end = warmup_s + c.duration_s;

  const int client_count = c.clients.value_or(c.peers);
  // The single committing peer registers after the endorsing ones, so its
  // endpoint name carries the next index.
  const std::string validator = "peer.commit" + std::to_string(c.peers);
  auto endorser = [&] {
    return "peer.endorse" +
           std::to_string(rng.NextBelow(static_cast<std::uint64_t>(c.peers)));
  };
  auto any_client = [&] {
    return "client" + std::to_string(rng.NextBelow(
                          static_cast<std::uint64_t>(client_count)));
  };
  auto osn = [&] {
    const int count = c.ordering == OrderingType::kSolo ? 1 : c.osns;
    return "osn" +
           std::to_string(rng.NextBelow(static_cast<std::uint64_t>(count)));
  };
  auto crash_target = [&]() -> std::string {
    if (wild) {
      switch (rng.NextBelow(6)) {
        case 0:
          return validator;
        case 1:
          return any_client();
        case 2:
          return osn();
        case 3:
          if (c.ordering == OrderingType::kKafka) {
            return "broker" + std::to_string(rng.NextBelow(3));
          }
          return "leader";
        case 4:
          return "leader";
        default:
          return endorser();
      }
    }
    if (c.ordering == OrderingType::kSolo) return endorser();
    switch (rng.NextBelow(3)) {
      case 0:
        return c.ordering == OrderingType::kRaft ? "leader" : osn();
      case 1:
        return osn();
      default:
        return endorser();
    }
  };
  auto slow_machine = [&]() -> std::string {
    switch (rng.NextBelow(3)) {
      case 0:
        return "orderer-machine0";
      case 1:
        return "validator-machine0";
      default:
        return "peer-machine" + std::to_string(rng.NextBelow(
                                    static_cast<std::uint64_t>(c.peers)));
    }
  };
  auto disk_target = [&]() -> std::string {
    if (rng.NextBool(0.5)) return validator;
    return endorser();
  };
  // Times snap to a 0.5 s grid so shrunk repros stay human-readable.
  auto grid_time = [&](double lo, double hi) {
    const auto lo_i = static_cast<std::int64_t>(std::ceil(lo * 2.0));
    const auto hi_i = static_cast<std::int64_t>(std::floor(hi * 2.0));
    return 0.5 * static_cast<double>(rng.NextInRange(lo_i,
                                                     std::max(lo_i, hi_i)));
  };

  FaultSchedule schedule;
  // Byzantine mode: the attack itself is the main event (appended below);
  // at most one benign resource fault rides along, and the base mix drops
  // the message-destroying kinds (crash, partition, loss) — losing the
  // honest attesters or their replies mid-attack can legitimately defeat a
  // quorum defense, which the oracle cannot tell apart from a defense bug.
  const int n_events = options_.byzantine
                           ? static_cast<int>(rng.NextBelow(2))
                           : 1 + static_cast<int>(rng.NextBelow(3));
  for (int e = 0; e < n_events; ++e) {
    FaultEvent ev;
    // Windows may overlap (no per-event spacing) — overlap is exactly the
    // regime hand-written schedules never covered.
    const double latest_start = wild ? window_end - 4.0 : window_end - 14.0;
    const double start = grid_time(warmup_s + 5.0, latest_start);
    const double max_len =
        wild ? window_end - start : window_end - 10.0 - start;
    const double len = grid_time(1.0, std::max(1.0, std::min(8.0, max_len)));
    ev.at = sim::FromSeconds(start);
    const bool windowed = !wild || rng.NextBool(0.7);
    if (windowed) ev.until = sim::FromSeconds(start + len);

    const std::uint64_t roll =
        options_.byzantine ? 7 + rng.NextBelow(3) : rng.NextBelow(10);
    switch (roll) {
      case 0:
      case 1:
      case 2:  // 30% crash
        ev.kind = FaultKind::kCrash;
        ev.groups.push_back({crash_target()});
        if (wild && rng.NextBool(0.3)) {
          const std::string second = crash_target();
          if (second != ev.groups[0][0]) ev.groups[0].push_back(second);
        }
        break;
      case 3:
      case 4:  // 20% partition
        ev.kind = FaultKind::kPartition;
        if (!ev.until) ev.until = sim::FromSeconds(start + len);
        if (wild && rng.NextBool(0.4)) {
          ev.groups.push_back({any_client()});
          ev.groups.push_back({validator});
        } else if (c.ordering != OrderingType::kSolo && rng.NextBool(0.5)) {
          const std::string a = osn();
          std::string b = osn();
          if (a == b) b = endorser();
          ev.groups.push_back({a});
          ev.groups.push_back({b});
        } else {
          ev.groups.push_back({endorser()});
          ev.groups.push_back({validator});
        }
        break;
      case 5:
      case 6:  // 20% loss
        ev.kind = FaultKind::kLoss;
        if (!ev.until) ev.until = sim::FromSeconds(start + len);
        ev.value = wild ? 0.05 * static_cast<double>(rng.NextInRange(1, 12))
                        : 0.05 * static_cast<double>(rng.NextInRange(1, 8));
        break;
      case 7:
      case 8:  // 20% slow CPU
        ev.kind = FaultKind::kSlowCpu;
        if (!ev.until) ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({slow_machine()});
        ev.value = 0.05 * static_cast<double>(rng.NextInRange(
                              wild ? 1 : 4, 18));
        break;
      default:  // 10% slow disk
        ev.kind = FaultKind::kSlowDisk;
        if (!ev.until) ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({disk_target()});
        ev.value = 0.05 * static_cast<double>(rng.NextInRange(
                              wild ? 1 : 8, 18));
        break;
    }
    schedule.events.push_back(std::move(ev));
  }

  if (options_.byzantine) {
    // Exactly one attack per case, placed so ScheduleLooksRecoverable's
    // bounds hold (starts warm, ends >= 10 s before the window closes):
    // every byzantine case is audited recoverable, so a stall is a bug.
    FaultEvent ev;
    const double latest_end = window_end - 10.0;
    const double start = grid_time(warmup_s + 6.0, latest_end - 2.0);
    const double len = grid_time(2.0, std::max(2.0, latest_end - start));
    ev.at = sim::FromSeconds(start);
    switch (rng.NextBelow(5)) {
      case 0:
        ev.kind = FaultKind::kEquivocate;
        ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({osn()});
        break;
      case 1:
        ev.kind = FaultKind::kTamperBlock;
        ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({osn()});
        break;
      case 2:
        ev.kind = FaultKind::kBogusBackfill;
        ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({osn()});
        break;
      case 3:
        ev.kind = FaultKind::kForgeEndorsement;
        ev.until = sim::FromSeconds(start + len);
        ev.groups.push_back({endorser()});
        break;
      default:
        // Point event: re-broadcast 1-5 committed envelopes. The dedup
        // flags them kDuplicateTxId; no undo window needed.
        ev.kind = FaultKind::kReplayTx;
        ev.value = static_cast<double>(rng.NextInRange(1, 5));
        break;
    }
    schedule.events.push_back(std::move(ev));
  }

  c.faults = schedule.ToSpec();
  c.expect_recovery = ScheduleLooksRecoverable(c, schedule);
  return c;
}

CampaignResult ChaosFuzzer::RunCampaign() const {
  CampaignResult result;
  const unsigned jobs = options_.jobs <= 0
                            ? runner::ThreadPool::DefaultJobs()
                            : static_cast<unsigned>(options_.jobs);
  runner::ThreadPool pool(jobs);
  const auto started = std::chrono::steady_clock::now();

  struct Slot {
    bool skipped = false;
    ChaosCase original;
    CaseFailure failure;
    ChaosCase shrunk;
    CaseFailure shrunk_failure;
    int shrink_runs = 0;
  };

  // Plan-then-execute: futures collected in submission (= case-index)
  // order, so the report is identical at any --jobs setting.
  std::vector<std::future<Slot>> futures;
  futures.reserve(static_cast<std::size_t>(options_.runs));
  for (int i = 0; i < options_.runs; ++i) {
    futures.push_back(pool.Submit([this, i, started] {
      Slot slot;
      if (options_.time_budget_s > 0.0) {
        const double elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();
        if (elapsed_s >= options_.time_budget_s) {
          slot.skipped = true;
          return slot;
        }
      }
      slot.original = GenerateCase(i);
      slot.failure =
          RunCaseOracle(slot.original, options_.verify_determinism);
      slot.shrunk = slot.original;
      slot.shrunk_failure = slot.failure;
      if (slot.failure.Failed() && options_.shrink) {
        // Re-verifying determinism on every shrink candidate doubles the
        // cost for nothing unless determinism is the failure being chased.
        const bool verify =
            slot.failure.kind == FailureKind::kDeterminism;
        ShrinkOptions shrink_options;
        shrink_options.max_oracle_runs = options_.max_shrink_runs;
        const ShrinkOutcome outcome = ShrinkCase(
            slot.original, slot.failure,
            [verify](const ChaosCase& candidate) {
              return RunCaseOracle(candidate, verify);
            },
            shrink_options);
        slot.shrunk = outcome.best;
        slot.shrunk_failure = outcome.failure;
        slot.shrink_runs = outcome.oracle_runs;
      }
      return slot;
    }));
  }

  for (int i = 0; i < options_.runs; ++i) {
    Slot slot = futures[static_cast<std::size_t>(i)].get();
    if (slot.skipped) {
      ++result.cases_skipped;
      continue;
    }
    ++result.cases_run;
    if (!slot.failure.Failed()) continue;
    CampaignFailure failure;
    failure.index = i;
    failure.original = std::move(slot.original);
    failure.failure = std::move(slot.failure);
    failure.shrunk = std::move(slot.shrunk);
    failure.shrunk_failure = std::move(slot.shrunk_failure);
    failure.shrink_oracle_runs = slot.shrink_runs;
    result.failures.push_back(std::move(failure));
  }
  return result;
}

}  // namespace fabricsim::faults
