// fabricsim_perfbench: runs one fabricsim workload in this process and prints
// one JSON object on stdout. perfbench/run.py starts a fresh process per
// run, so peak RSS and the process-global verify cache belong to that run.
//
//   fabricsim_perfbench run   --workload <name> [--seed N] [--sim-seconds S]
//   fabricsim_perfbench setup --workload <name> [--seed N]
//   fabricsim_perfbench trace --workload <name> [--seed N] [--sim-seconds S]
//
// `run` times fabric::RunExperiment, the path fabricsim_cli takes. `setup`
// times network construction + Start() + arming the workload controller.
// `trace` repeats the run with the DES profiler and a metrics registry
// attached through their public setters, then replays the validator's
// committed blocks through each layer's public functions with a timer
// around every call. Everything here is outside the library: the library
// is built unmodified from the repository's src/.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "chaincode/kvwrite.h"
#include "chaincode/shim.h"
#include "chaincode/smallbank.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "crypto/verify_cache.h"
#include "fabric/experiment.h"
#include "fabric/network_builder.h"
#include "ledger/block_store.h"
#include "ledger/history_index.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"
#include "metrics/registry.h"
#include "ordering/block_cutter.h"
#include "policy/evaluator.h"
#include "sim/profiler.h"

namespace fs = fabricsim;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Nanos(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  double sim_seconds = 60.0;
};

/// Set-ups timed per `setup` process; the first pays cold-heap page faults.
constexpr int kSetupReps = 5;

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode (run|setup|trace)");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--sim-seconds") {
      a.sim_seconds = std::stod(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if ((argc - 2) % 2 != 0) throw std::invalid_argument("flag without value");
  if (a.mode != "run" && a.mode != "setup" && a.mode != "trace") {
    throw std::invalid_argument("unknown mode " + a.mode);
  }
  if (a.sim_seconds < 6.0) {
    // The runner skips the first 5 s of the window; shorter runs report
    // nothing to check.
    throw std::invalid_argument("--sim-seconds must be at least 6");
  }
  return a;
}

/// The benchmark's workloads: cells of the paper's grid with 10 endorsing
/// peers and 1 committing peer, Poisson open-loop clients.
fs::fabric::ExperimentConfig MakeConfig(const Args& a) {
  fs::fabric::ExperimentConfig c;
  if (a.workload == "or-raft-fresh") {
    c = fs::fabric::StandardConfig(fs::fabric::OrderingType::kRaft, 0, 300);
  } else if (a.workload == "and5-kafka") {
    c = fs::fabric::StandardConfig(fs::fabric::OrderingType::kKafka, 5, 180);
  } else if (a.workload == "smallbank-solo-bounded") {
    // The soak configuration: streaming tracker plus bounded retention.
    c = fs::fabric::StandardConfig(fs::fabric::OrderingType::kSolo, 0, 250);
    c.workload.kind = fs::client::WorkloadKind::kSmallBank;
    c.streaming_stats = true;
    c.network.retention.ledger_blocks = 64;
    c.network.retention.history_per_key = 4;
    c.network.retention.osn_history_blocks = 64;
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  c.workload.duration = fs::sim::FromSeconds(a.sim_seconds);
  c.network.seed = a.seed;
  return c;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// JSON output (flat objects of numbers, strings and nested objects).

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.Text());
  }
  [[nodiscard]] std::string Text() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  }
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

/// The simulated output a run must reproduce: chain head, height, committed
/// valid/invalid counts (client side) and the chain audit verdict.
JsonObject Fingerprint(const std::string& head, std::uint64_t height,
                       std::uint64_t valid, std::uint64_t invalid,
                       bool audit_ok) {
  JsonObject f;
  f.Str("head", head).Int("height", height).Int("valid", valid);
  f.Int("invalid", invalid).Bool("audit_ok", audit_ok);
  return f;
}

// ---------------------------------------------------------------------------
// run: one untraced RunExperiment.

int CmdRun(const Args& a) {
  const fs::fabric::ExperimentConfig config = MakeConfig(a);
  const auto t0 = Clock::now();
  const fs::fabric::ExperimentResult r = fs::fabric::RunExperiment(config);
  const double wall = Seconds(Clock::now() - t0);
  const double rss = PeakRssMb();
  const std::uint64_t terminal = r.client_committed_valid +
                                 r.client_committed_invalid +
                                 r.client_rejected + r.endorse_failures;
  JsonObject out;
  out.Num("wall_s", wall).Num("peak_rss_mb", rss).Int("terminal_tx", terminal);
  out.Int("generated", r.generated).Int("events", r.sched_events);
  out.Int("messages", r.messages_sent).Int("bytes", r.bytes_sent);
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Str("compiler", PERFBENCH_COMPILER);
  out.Obj("fingerprint",
          Fingerprint(r.chain_head_hex, r.chain_height,
                      r.client_committed_valid, r.client_committed_invalid,
                      r.chain_audit_ok));
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Network assembly shared by `setup` and `trace`, in RunExperiment's order.

struct Assembled {
  std::unique_ptr<fs::fabric::FabricNetwork> net;
  std::unique_ptr<fs::client::WorkloadController> controller;
};

fs::sim::SimTime MeasureStart(const fs::fabric::ExperimentConfig& c) {
  return c.warmup + fs::sim::FromSeconds(5);
}

fs::sim::SimTime WindowEnd(const fs::fabric::ExperimentConfig& c) {
  return c.warmup + c.workload.duration;
}

/// Builds and starts the network, attaching `profiler` (if any) where
/// RunExperiment attaches its own: after construction, before Start().
Assembled Assemble(const fs::fabric::ExperimentConfig& c,
                   fs::sim::DesProfiler* profiler) {
  Assembled as;
  as.net = std::make_unique<fs::fabric::FabricNetwork>(c.network);
  fs::fabric::FabricNetwork& net = *as.net;
  if (c.streaming_stats) {
    net.Tracker().EnableStreaming(MeasureStart(c), WindowEnd(c));
    for (std::size_t i = 0; i < net.Env().MachineCount(); ++i) {
      net.Env().MachineAt(i).GetCpu().SetBoundedMarks(true);
    }
    net.ValidatorPeer().MutableDisk().SetBoundedMarks(true);
  }
  if (profiler != nullptr) net.Env().Sched().SetProfiler(profiler);
  net.Start();
  return as;
}

void ArmController(const fs::fabric::ExperimentConfig& c, Assembled& as) {
  fs::client::WorkloadConfig wl = c.workload;
  wl.start = c.warmup;
  as.controller = std::make_unique<fs::client::WorkloadController>(
      as.net->Env(), as.net->Clients(), wl);
  as.controller->Start();
}

// ---------------------------------------------------------------------------
// setup: repeated construction + Start + controller arming.

int CmdSetup(const Args& a) {
  const fs::fabric::ExperimentConfig config = MakeConfig(a);
  std::string list;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    Assembled as = Assemble(config, nullptr);
    ArmController(config, as);
    const double s = Seconds(Clock::now() - t0);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.17g", list.empty() ? "" : ",", s);
    list += buf;
  }
  std::printf("{\"setup_s\":[%s]}\n", list.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace: profiled run, then the layer replay.

struct WindowBlock {
  fs::proto::BlockPtr block;
  std::vector<fs::proto::ValidationCode> codes;
};

/// Sum of host nanoseconds over the calls of one layer.
struct LayerTimer {
  double ns = 0;
  template <typename F>
  void Time(F&& f) {
    const auto t0 = Clock::now();
    f();
    ns += Nanos(Clock::now() - t0);
  }
};

bool IsOrderingTag(const std::string& tag) {
  static const char* const kPrefixes[] = {
      "raft/",      "raft_orderer/", "kafka_orderer/", "kafka_broker/",
      "zookeeper/", "solo/",         "osn/"};
  return std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                     [&](const char* p) { return tag.starts_with(p); });
}

int CmdTrace(const Args& a) {
  const fs::fabric::ExperimentConfig config = MakeConfig(a);
  const fs::sim::SimTime measure_start = MeasureStart(config);
  const fs::sim::SimTime window_end = WindowEnd(config);
  const fs::sim::SimTime run_end = window_end + config.drain;

  // --- setup (timed) ---------------------------------------------------
  fs::sim::DesProfiler profiler;
  fs::metrics::Registry registry;
  const auto t_setup = Clock::now();
  Assembled as = Assemble(config, &profiler);
  fs::fabric::FabricNetwork& net = *as.net;
  fs::sim::Scheduler& sched = net.Env().Sched();
  registry.AddGauge("scheduler.pending_events", [&sched] {
    return static_cast<double>(sched.PendingEvents());
  });
  registry.StartSampling(sched, config.metrics_period);
  ArmController(config, as);
  const double setup_s = Seconds(Clock::now() - t_setup);

  // Genesis world state (SmallBank's seeded accounts included), copied
  // before any block commits.
  fs::peer::Committer& committer = net.ValidatorPeer().GetCommitter();
  const fs::ledger::StateDb genesis = committer.State();

  // --- run (timed), observing committed blocks between steps ------------
  // The replay needs the state just before the validator's resident window.
  // Blocks are collected as they commit; under retention the ones that
  // leave the window are applied to `base`, so at the end `base` is the
  // state the oldest resident block was validated against.
  const fs::ledger::BlockStore& store = committer.Chain().Store();
  const std::uint64_t keep = config.network.retention.ledger_blocks;
  fs::ledger::StateDb base = genesis;
  std::deque<WindowBlock> window;
  std::uint64_t next_block = store.Height();
  double run_s = 0;
  const fs::sim::SimDuration step = fs::sim::FromMillis(500);
  for (fs::sim::SimTime t = step;; t += step) {
    const auto t0 = Clock::now();
    sched.RunUntil(std::min(t, run_end));
    run_s += Seconds(Clock::now() - t0);
    for (; next_block < store.Height(); ++next_block) {
      fs::proto::BlockPtr b = store.GetBlock(next_block);
      if (b == nullptr) throw std::runtime_error("block pruned unobserved");
      window.push_back({b, store.CodesFor(next_block)});
      if (keep > 0 && window.size() > keep) {
        fs::ledger::MvccValidator::Commit(*window.front().block,
                                          window.front().codes, base);
        window.pop_front();
      }
    }
    if (t >= run_end) break;
  }
  registry.StopSampling();
  registry.SampleNow(sched.Now());

  // --- report (timed) ---------------------------------------------------
  const auto t_report = Clock::now();
  (void)net.Tracker().BuildReport(measure_start, window_end);
  const double report_s = Seconds(Clock::now() - t_report);

  std::uint64_t valid = 0, invalid = 0, rejected = 0, endorse_failures = 0;
  for (fs::client::Client* c : net.Clients()) {
    valid += c->CommittedValid();
    invalid += c->CommittedInvalid();
    rejected += c->Rejected();
    endorse_failures += c->EndorseFailures();
  }
  const std::uint64_t terminal = valid + invalid + rejected + endorse_failures;
  const auto& chain = committer.Chain();
  const JsonObject fingerprint =
      Fingerprint(fs::crypto::DigestHex(chain.TipHash()), chain.Height(),
                  valid, invalid, chain.Audit().ok);

  // The collected window must be exactly the store's resident blocks.
  const std::uint64_t first_resident =
      std::max<std::uint64_t>(1, store.FirstBlockNumber());
  bool window_ok = !window.empty() &&
                   window.front().block->header.number == first_resident &&
                   window.size() == store.Height() - first_resident;
  for (const WindowBlock& wb : window) {
    window_ok =
        window_ok && wb.codes == store.CodesFor(wb.block->header.number);
  }

  // --- layer replay ------------------------------------------------------
  const fs::crypto::MspRegistry& msps = net.Msps();
  const fs::policy::EndorsementPolicy& policy = net.Policy();
  LayerTimer vscc_t, policy_t, mvcc_t, append_t, commit_t, history_t;
  std::uint64_t replay_tx = 0, endorsements = 0, mismatched_blocks = 0;
  unsigned sink = 0;
  auto ledger_state = std::make_unique<fs::ledger::StateDb>(base);
  auto ledger_store = std::make_unique<fs::ledger::BlockStore>();
  auto ledger_history = std::make_unique<fs::ledger::HistoryIndex>();
  ledger_store->SetRetention(keep);
  ledger_history->SetPerKeyCap(config.network.retention.history_per_key);
  for (const WindowBlock& wb : window) {
    const fs::proto::Block& blk = *wb.block;
    const std::size_t n = blk.transactions.size();
    std::vector<fs::proto::ValidationCode> codes(n);
    vscc_t.Time([&] {
      for (std::size_t i = 0; i < n; ++i) {
        codes[i] = committer.Vscc(blk.transactions[i]);
      }
    });
    std::vector<const std::vector<fs::crypto::Principal>*> signers(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = blk.transactions[i].VerifiedSigners(msps);
      signers[i] = s ? &*s : nullptr;
      endorsements += blk.transactions[i].endorsements.size();
    }
    policy_t.Time([&] {
      for (const auto* s : signers) {
        if (s != nullptr) sink += fs::policy::Satisfied(policy, *s) ? 1 : 0;
      }
    });
    // Duplicate tx-id screen, as the committer runs it before MVCC.
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& id = blk.transactions[i].tx_id;
      const bool dup =
          ledger_store->HasTransaction(id) || !seen.insert(id).second;
      if (dup && codes[i] == fs::proto::ValidationCode::kValid) {
        codes[i] = fs::proto::ValidationCode::kDuplicateTxId;
      }
    }
    fs::ledger::MvccResult mvcc;
    mvcc_t.Time([&] {
      mvcc = fs::ledger::MvccValidator::Validate(blk, *ledger_state, &codes);
    });
    if (mvcc.codes != wb.codes) ++mismatched_blocks;
    std::vector<fs::proto::ValidationCode> stored = mvcc.codes;
    append_t.Time([&] { ledger_store->Append(wb.block, std::move(stored)); });
    commit_t.Time([&] {
      fs::ledger::MvccValidator::Commit(blk, mvcc.codes, *ledger_state);
    });
    history_t.Time([&] { ledger_history->IndexBlock(blk, mvcc.codes); });
    replay_tx += n;
  }
  const std::size_t replay_state_keys = ledger_state->KeyCount();
  const auto t_replay_teardown = Clock::now();
  ledger_history.reset();
  ledger_store.reset();
  ledger_state.reset();
  const double replay_teardown_s = Seconds(Clock::now() - t_replay_teardown);

  // Ordering: the block cutter over the replayed envelopes, in chain order.
  std::vector<fs::ordering::EnvelopePtr> envelopes;
  std::vector<std::size_t> sizes;
  for (const WindowBlock& wb : window) {
    for (const auto& tx : wb.block->transactions) {
      envelopes.emplace_back(wb.block, &tx);  // aliases the shared block
      sizes.push_back(tx.WireSize());
    }
  }
  fs::ordering::BlockCutter cutter(config.network.channel.batch);
  LayerTimer cutter_t;
  cutter_t.Time([&] {
    for (std::size_t i = 0; i < envelopes.size(); ++i) {
      sink += static_cast<unsigned>(
          cutter.Ordered(envelopes[i], sizes[i]).batches.size());
    }
  });

  // Chaincode: Invoke over fresh workload inputs against the genesis state.
  const std::size_t cc_calls = std::max<std::size_t>(1, replay_tx);
  std::unique_ptr<fs::chaincode::Chaincode> cc;
  if (config.workload.kind == fs::client::WorkloadKind::kSmallBank) {
    cc = std::make_unique<fs::chaincode::SmallBankChaincode>();
  } else {
    cc = std::make_unique<fs::chaincode::KvWriteChaincode>();
  }
  std::vector<fs::proto::ChaincodeInvocation> invocations;
  invocations.reserve(cc_calls);
  const std::size_t clients = net.Clients().size();
  for (std::size_t i = 0; i < cc_calls; ++i) {
    invocations.push_back(as.controller->NextInvocation(i % clients));
  }
  std::deque<fs::chaincode::ChaincodeStub> stubs;
  for (const auto& inv : invocations) {
    stubs.emplace_back(genesis, inv.chaincode_id, inv);
  }
  LayerTimer cc_t;
  std::uint64_t cc_ok = 0;
  cc_t.Time([&] {
    for (auto& stub : stubs) {
      cc_ok += cc->Invoke(stub).status == fs::proto::EndorseStatus::kSuccess;
    }
  });

  // Crypto: the run's verify-cache traffic, then crypto::Verify over the
  // window's endorsement signatures with the cache off (cold) and on after
  // one filling pass (warm). The sample stays below the cache capacity.
  fs::crypto::VerifyCache& vcache = fs::crypto::VerifyCache::Instance();
  const double vc_hits = static_cast<double>(vcache.Hits());
  const double vc_misses = static_cast<double>(vcache.Misses());
  const double vc_evictions = static_cast<double>(vcache.Evictions());
  struct VerifyInput {
    fs::crypto::Digest key;
    const fs::proto::Bytes* msg;
    fs::crypto::Signature sig;
  };
  std::vector<VerifyInput> verifies;
  for (const WindowBlock& wb : window) {
    for (const auto& tx : wb.block->transactions) {
      for (const auto& e : tx.endorsements) {
        if (verifies.size() >= 4096) break;
        const fs::crypto::Certificate* cert =
            msps.CachedCertificate(e.endorser_cert);
        if (cert == nullptr) continue;
        verifies.push_back({cert->subject_public_key,
                            &tx.EndorsedPayloadBytes(), e.signature});
      }
    }
  }
  std::uint64_t verified = 0;
  auto verify_all = [&] {
    for (const VerifyInput& v : verifies) {
      verified += fs::crypto::Verify(v.key, *v.msg, v.sig) ? 1 : 0;
    }
  };
  vcache.SetEnabled(false);
  LayerTimer cold_t, warm_t;
  cold_t.Time(verify_all);
  vcache.SetEnabled(true);
  verify_all();
  warm_t.Time(verify_all);
  const bool verify_ok = verified == 3 * verifies.size() && !verifies.empty();

  // --- counters read from the live network ------------------------------
  const fs::sim::ProfileReport prof = profiler.Report();
  double pending_hwm = 0;
  for (const auto& snap : registry.Snapshots()) {
    pending_hwm = std::max(pending_hwm, snap.values.at(0));
  }
  const std::uint64_t events = sched.ExecutedEvents();
  const std::uint64_t messages = net.Env().Net().MessagesSent();
  const std::uint64_t bytes = net.Env().Net().BytesSent();
  const std::uint64_t records_hwm = net.Tracker().RecordsHighWatermark();
  const std::uint64_t state_keys = committer.State().KeyCount();
  const std::uint64_t resident_blocks = store.ResidentBlocks();
  const std::uint64_t committed_tx = committer.CommittedTx();
  const std::uint64_t invalid_tx = committer.InvalidTx();
  const std::size_t peers = net.PeerCount();
  const bool kafka =
      config.network.topology.ordering == fs::fabric::OrderingType::kKafka;
  const double cutters = kafka ? config.network.topology.osns : 1.0;
  registry.DropInstruments();
  sched.SetProfiler(nullptr);

  // --- teardown (timed) ---------------------------------------------------
  const auto t_teardown = Clock::now();
  as.controller.reset();
  as.net.reset();
  const double teardown_s = Seconds(Clock::now() - t_teardown);

  // --- metrics ------------------------------------------------------------
  const double wall_s = setup_s + run_s + report_s + teardown_s;
  const double tx = static_cast<double>(std::max<std::uint64_t>(1, terminal));
  const double rtx = static_cast<double>(std::max<std::uint64_t>(1, replay_tx));
  const double handler_ns = static_cast<double>(prof.total_ns);
  const double run_ns = run_s * 1e9;
  std::map<std::string, double> handlers_ms;
  double ordering_ms = 0;
  JsonObject handlers;
  for (const auto& e : prof.entries) {
    const double ms = static_cast<double>(e.total_ns) / 1e6;
    handlers_ms[e.name] = ms;
    if (IsOrderingTag(e.name)) ordering_ms += ms;
    JsonObject h;
    h.Int("count", e.count).Num("ms", ms);
    handlers.Obj(e.name, h);
  }
  auto handler = [&](const std::string& tag) {
    const auto it = handlers_ms.find(tag);
    return it == handlers_ms.end() ? 0.0 : it->second;
  };

  const double vscc_ns = vscc_t.ns / rtx;
  const double mvcc_ns = mvcc_t.ns / rtx;
  const double commit_ns = commit_t.ns / rtx;
  const double append_ns = append_t.ns / rtx;
  const double history_ns = history_t.ns / rtx;
  const double cc_ns = cc_t.ns / static_cast<double>(cc_calls);
  const double cutter_ns = cutter_t.ns / rtx;
  const double cold_ns = cold_t.ns / std::max<double>(1, verifies.size());
  const double warm_ns = warm_t.ns / std::max<double>(1, verifies.size());
  const double ledger_tx = static_cast<double>(committed_tx + invalid_tx);
  const double endorsements_per_tx = static_cast<double>(endorsements) / rtx;

  // Predicted host time of each replayed layer over the whole run: per-tx
  // cost x the nodes that repeat the work x the transactions committed.
  JsonObject predicted;
  const double p_validate =
      (vscc_ns + mvcc_ns + append_ns + commit_ns + history_ns) *
      static_cast<double>(peers) * ledger_tx;
  const double p_chaincode = cc_ns * endorsements_per_tx * ledger_tx;
  const double p_cutter = cutter_ns * cutters * ledger_tx;
  const double p_crypto = vc_misses * cold_ns + vc_hits * warm_ns;
  predicted.Num("validate_ms", p_validate / 1e6);
  predicted.Num("chaincode_ms", p_chaincode / 1e6);
  predicted.Num("block_cutter_ms", p_cutter / 1e6);
  predicted.Num("crypto_ms", p_crypto / 1e6);

  JsonObject m;
  m.Num("fabric.setup_ms", setup_s * 1e3);
  m.Num("fabric.teardown_ms", teardown_s * 1e3);
  m.Int("sim.events", events);
  m.Num("sim.events_per_tx", static_cast<double>(events) / tx);
  m.Num("sim.events_per_s", prof.events_per_sec);
  m.Num("sim.run_ms", run_s * 1e3);
  m.Num("sim.dispatch_overhead_ms", (run_ns - handler_ns) / 1e6);
  m.Num("sim.pending_events_hwm", pending_hwm);
  m.Num("sim.network.messages_per_tx", static_cast<double>(messages) / tx);
  m.Num("sim.network.bytes_per_tx", static_cast<double>(bytes) / tx);
  m.Num("sim.handler.net_deliver_ms", handler("net/deliver"));
  m.Num("sim.handler.cpu_job_done_ms", handler("cpu/job_done"));
  m.Num("client.handler.sdk_pre_ms", handler("client/sdk_pre"));
  m.Num("client.handler.sdk_post_ms", handler("client/sdk_post"));
  m.Num("client.handler.workload_generate_ms", handler("workload/generate"));
  m.Num("chaincode.invoke_ns_per_tx", cc_ns);
  const double lookups = vc_hits + vc_misses;
  m.Num("crypto.verify_cache.hit_ratio", lookups > 0 ? vc_hits / lookups : 0);
  m.Num("crypto.verify_cache.lookups", lookups);
  m.Num("crypto.verify_cache.evictions", vc_evictions);
  m.Num("crypto.verify_ns_cold", cold_ns);
  m.Num("crypto.verify_ns_warm", warm_ns);
  m.Num("peer.vscc_ns_per_tx", vscc_ns);
  m.Num("policy.satisfied_ns_per_tx", policy_t.ns / rtx);
  m.Num("peer.invalid_ratio",
        ledger_tx > 0 ? static_cast<double>(invalid_tx) / ledger_tx : 0);
  m.Num("ledger.mvcc_validate_ns_per_tx", mvcc_ns);
  m.Num("ledger.state_commit_ns_per_tx", commit_ns);
  m.Num("ledger.block_store_append_ns_per_tx", append_ns);
  m.Num("ledger.history_index_ns_per_tx", history_ns);
  m.Num("ledger.replay_teardown_ms", replay_teardown_s * 1e3);
  m.Int("ledger.state_keys", state_keys);
  m.Int("ledger.resident_blocks", resident_blocks);
  m.Num("ordering.block_cutter_ns_per_tx", cutter_ns);
  m.Num("ordering.txs_per_block",
        rtx / static_cast<double>(std::max<std::size_t>(1, window.size())));
  m.Num("ordering.handler_ms", ordering_ms);
  m.Int("metrics.tracker.records_hwm", records_hwm);
  m.Num("metrics.report_ms", report_s * 1e3);
  m.Num("trace.coverage", run_s / wall_s);
  m.Num("trace.coverage_replay",
        (p_validate + p_chaincode + p_cutter + p_crypto) / run_ns);

  // The replay is faithful when it covered exactly the resident window,
  // reproduced every stored validation code and ended in the validator's
  // final key set; its inputs must all have verified and executed.
  const bool faithful = window_ok && mismatched_blocks == 0 &&
                        replay_state_keys == state_keys && verify_ok &&
                        cc_ok == cc_calls;
  JsonObject out;
  out.Num("wall_s", wall_s).Obj("fingerprint", fingerprint);
  out.Bool("faithful", faithful).Bool("window_ok", window_ok);
  out.Int("replay_tx", replay_tx);
  out.Int("replay_mismatched_blocks", mismatched_blocks);
  out.Bool("verify_ok", verify_ok).Int("chaincode_ok", cc_ok);
  out.Int("sink", sink);
  out.Obj("metrics", m).Obj("handlers", handlers).Obj("predicted", predicted);
  std::printf("%s\n", out.Text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = ParseArgs(argc, argv);
    if (a.mode == "run") return CmdRun(a);
    if (a.mode == "setup") return CmdSetup(a);
    return CmdTrace(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fabricsim_perfbench: %s\n", e.what());
    return 1;
  }
}
