#include "fabric/experiment.h"

#include <string_view>

#include "crypto/sha256.h"
#include "metrics/registry.h"
#include "obs/trace.h"

namespace fabricsim::fabric {

namespace {

/// Maps a machine to the Fabric phase its saturation would explain, by the
/// builder's naming convention.
const char* PhaseOfMachine(std::string_view name) {
  if (name.starts_with("peer-machine") || name.starts_with("client-machine")) {
    return "execute";
  }
  if (name.starts_with("validator-machine")) return "validate";
  return "order";  // orderer-, broker-, zk- machines
}

std::vector<obs::ResourceUsage> CollectUsage(FabricNetwork& net,
                                             sim::SimTime t0, sim::SimTime t1) {
  std::vector<obs::ResourceUsage> usage;
  sim::Environment& env = net.Env();
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    const sim::Machine& m = env.MachineAt(i);
    usage.push_back(
        {m.Name(), PhaseOfMachine(m.Name()), m.GetCpu().Utilization(t0, t1)});
  }
  const peer::PeerNode& validator = net.ValidatorPeer();
  usage.push_back({"validator disk", "validate",
                   validator.Disk().Utilization(t0, t1)});
  return usage;
}

/// Registers `<resource>.busy_cores` and `<resource>.queue_len` for a CPU
/// station.
void AddCpuGauges(metrics::Registry& reg, const std::string& resource,
                  const sim::Cpu* cpu) {
  reg.AddGauge(resource + ".busy_cores",
               [cpu] { return static_cast<double>(cpu->BusyCores()); });
  reg.AddGauge(resource + ".queue_len",
               [cpu] { return static_cast<double>(cpu->QueueLength()); });
}

/// Wires the standard instrument set into `reg`: scheduler backlog, every
/// machine's CPU and the validator's disk station, network bytes in flight,
/// queue depths and high-watermarks, cumulative sheds, and tracker
/// occupancy. All closures point into `net`, so the caller must
/// DropInstruments() before the network dies.
void WireRegistry(metrics::Registry& reg, FabricNetwork& net) {
  sim::Environment& env = net.Env();
  sim::Scheduler* sched = &env.Sched();
  reg.AddGauge("scheduler.pending_events", [sched] {
    return static_cast<double>(sched->PendingEvents());
  });
  reg.AddGauge("scheduler.executed_events", [sched] {
    return static_cast<double>(sched->ExecutedEvents());
  });
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    const sim::Machine& m = env.MachineAt(i);
    AddCpuGauges(reg, m.Name(), &m.GetCpu());
  }
  AddCpuGauges(reg, "validator-disk", &net.ValidatorPeer().Disk());
  const sim::Network* wire = &env.Net();
  reg.AddGauge("network.bytes_in_flight", [wire] {
    return static_cast<double>(wire->BytesInFlight());
  });
  for (int c = 0; c < net.ChannelCount(); ++c) {
    const auto osns = net.Osns(c);
    for (std::size_t i = 0; i < osns.size(); ++i) {
      const std::string prefix =
          "osn" + std::to_string(i) + "." + net.ChannelId(c) + ".";
      ordering::OsnBase* osn = osns[i];
      reg.AddGauge(prefix + "ingress_depth", [osn] {
        return static_cast<double>(osn->IngressDepth());
      });
      // High watermark alongside the instantaneous depth: the sampling
      // cadence misses bursts; the watermark never does.
      reg.AddGauge(prefix + "ingress_depth_hwm", [osn] {
        return static_cast<double>(osn->IngressDepthHighWatermark());
      });
      reg.AddGauge(prefix + "ingress_shed", [osn] {
        return static_cast<double>(osn->IngressShed());
      });
    }
  }
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    peer::PeerNode* p = &net.Peer(i);
    if (!p->IsEndorsing()) continue;
    const std::string prefix = "peer" + std::to_string(i) + ".";
    reg.AddGauge(prefix + "endorse_depth", [p] {
      return static_cast<double>(p->EndorseDepth());
    });
    reg.AddGauge(prefix + "endorse_depth_hwm", [p] {
      return static_cast<double>(p->EndorseDepthHighWatermark());
    });
    reg.AddGauge(prefix + "endorse_shed", [p] {
      return static_cast<double>(p->EndorseShed());
    });
  }
  peer::PeerNode* validator = &net.ValidatorPeer();
  reg.AddGauge("validator.deferred_blocks", [validator] {
    return static_cast<double>(validator->GetCommitter().DeferredBlocks());
  });
  // Byzantine-defense counters (flat zero on honest runs).
  reg.AddGauge("validator.rejected_blocks", [validator] {
    return static_cast<double>(validator->GetCommitter().RejectedBlocks());
  });
  reg.AddGauge("validator.duplicate_tx_rejects", [validator] {
    return static_cast<double>(validator->GetCommitter().DuplicateTxRejects());
  });
  reg.AddGauge("validator.byz_quarantines", [validator] {
    return static_cast<double>(validator->ByzantineQuarantines());
  });
  metrics::TxTracker* tracker = &net.Tracker();
  reg.AddGauge("tracker.inflight_records", [tracker] {
    return static_cast<double>(tracker->TxCount());
  });
  reg.AddGauge("tracker.retired_records", [tracker] {
    return static_cast<double>(tracker->RetiredCount());
  });
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  // Faults imply recovery: the chaos runs measure the failover machinery,
  // and the invariant checker needs the clients' outcome logs.
  NetworkOptions net_options = config.network;
  const faults::FaultSchedule schedule =
      faults::FaultSchedule::Parse(config.faults);
  if (!schedule.Empty()) net_options.recovery.enabled = true;
  // A Byzantine schedule arms the cross-OSN attestation defense; honest
  // schedules leave it off so their event streams stay byte-identical.
  if (schedule.HasByzantine()) net_options.byzantine_defense = true;
  if (config.check_invariants) net_options.track_outcomes = true;

  // The measurement window is fully determined by the config, which is what
  // lets the tracker stream: fold-and-retire needs the window up front.
  const sim::SimTime window_start = config.warmup;
  const sim::SimTime window_end = config.warmup + config.workload.duration;
  const sim::SimTime measure_start = window_start + sim::FromSeconds(5);

  FabricNetwork net(net_options);

  // Streaming accounting only when nothing needs post-hoc Records():
  // attribution walks them, the invariant checker cross-references them, and
  // recovery's commit-timeout can reject a transaction after its commit
  // already retired the record (the one reject-after-commit race).
  const bool streaming = config.streaming_stats &&
                         net_options.tracer == nullptr && schedule.Empty() &&
                         !config.check_invariants &&
                         !net_options.recovery.enabled;
  if (streaming) {
    net.Tracker().EnableStreaming(measure_start, window_end);
    // The per-job busy-mark history is the one remaining O(jobs) allocation;
    // its only consumer (attribution's windowed utilization) is excluded by
    // the gate above, so drop it too and RSS stays flat at any run length.
    for (std::size_t i = 0; i < net.Env().MachineCount(); ++i) {
      net.Env().MachineAt(i).GetCpu().SetBoundedMarks(true);
    }
    net.ValidatorPeer().MutableDisk().SetBoundedMarks(true);
  }

  // Host profiler: external one wins (the CLI exports its Chrome trace);
  // otherwise a run-local instance feeds ExperimentResult::profile.
  sim::DesProfiler local_profiler;
  sim::DesProfiler* profiler = config.profiler;
  if (profiler == nullptr && config.profile) profiler = &local_profiler;
  if (profiler != nullptr) {
    profiler->Reset();
    net.Env().Sched().SetProfiler(profiler);
  }

  faults::FaultInjector injector(net, schedule);
  injector.Arm();
  net.Start();

  if (config.registry != nullptr) {
    config.registry->Reset();
    WireRegistry(*config.registry, net);
    config.registry->StartSampling(net.Env().Sched(), config.metrics_period);
  }

  // The workload opens after the warm-up and runs through the window.
  client::WorkloadConfig wl = config.workload;
  wl.start = config.warmup;
  client::WorkloadController controller(net.Env(), net.Clients(), wl);
  controller.Start();

  net.Env().Sched().RunUntil(window_end + config.drain);
  if (config.registry != nullptr) {
    config.registry->StopSampling();
    config.registry->SampleNow(net.Env().Sched().Now());
  }

  ExperimentResult out;
  // The measurement window skips a 5 s lead-in (computed up top) so queues
  // are in steady state when it opens.
  out.report = net.Tracker().BuildReport(measure_start, window_end);
  out.generated = controller.Generated();
  out.generated_rate_tps =
      controller.GeneratedLog().MeanRate(measure_start, window_end);
  out.generated_rate_check = controller.GeneratedLog().FractionWithin(
      wl.rate_tps, 0.25, measure_start, window_end);
  for (client::Client* c : net.Clients()) {
    out.client_committed_valid += c->CommittedValid();
    out.client_committed_invalid += c->CommittedInvalid();
    out.client_rejected += c->Rejected();
    out.endorse_failures += c->EndorseFailures();
    out.bad_endorsements += c->Failures(client::FailureReason::kBadEndorsement);
  }
  for (int c = 0; c < net.ChannelCount(); ++c) {
    for (ordering::OsnBase* osn : net.Osns(c)) {
      out.osn_shed += osn->IngressShed();
    }
  }
  for (std::size_t i = 0; i < net.PeerCount(); ++i) {
    peer::PeerNode& p = net.Peer(i);
    if (p.IsEndorsing()) out.endorser_shed += p.EndorseShed();
    out.byz_quarantines += p.ByzantineQuarantines();
    for (int c = 0; c < net.ChannelCount(); ++c) {
      const std::string channel = net.ChannelId(c);
      if (!p.HasChannel(channel)) continue;
      const peer::Committer& committer = p.GetCommitter(channel);
      out.rejected_blocks += committer.RejectedBlocks();
      out.duplicate_tx_rejects += committer.DuplicateTxRejects();
      if (const crypto::MspIdentityCache* cache = committer.MspCache()) {
        out.msp_cache_hits += cache->Hits();
        out.msp_cache_misses += cache->Misses();
        out.msp_cache_evictions += cache->Evictions();
      }
    }
  }
  out.committer_deferred = net.ValidatorPeer().GetCommitter().DeferredTotal();
  const auto& chain = net.ValidatorPeer().GetCommitter().Chain();
  out.chain_height = chain.Height();
  out.chain_head_hex = crypto::DigestHex(chain.TipHash());
  out.sched_events = net.Env().Sched().ExecutedEvents();
  out.chain_audit_ok = chain.Audit().ok;
  out.messages_sent = net.Env().Net().MessagesSent();
  out.messages_dropped = net.Env().Net().MessagesDropped();
  out.bytes_sent = net.Env().Net().BytesSent();
  if (config.network.tracer != nullptr) {
    out.attribution = obs::BuildAttribution(
        *config.network.tracer, net.Tracker(), measure_start, window_end,
        CollectUsage(net, measure_start, window_end));
  }
  if (!schedule.Empty()) {
    out.fault_log = injector.Log();
    out.recovery = faults::AnalyzeRecovery(
        net.ValidatorPeer().GetCommitter().CommitLog(),
        schedule.FirstFaultAt(), window_end);
    // A permanently stalled channel turns "still pending in the client"
    // into "waiting for a commit that can never arrive" — count those
    // acked transactions as lost (unless the caller opted out because a
    // stall is an expected outcome for this schedule).
    out.invariants = faults::CheckInvariants(
        net, out.recovery->stalled && config.stall_pending_is_lost,
        schedule.HasByzantine());
  } else if (config.check_invariants) {
    out.invariants = faults::CheckInvariants(net);
  }
  out.tracker.streaming = net.Tracker().Streaming();
  out.tracker.records_hwm = net.Tracker().RecordsHighWatermark();
  out.tracker.retired = net.Tracker().RetiredCount();
  out.tracker.late_marks = net.Tracker().LateMarks();
  if (profiler != nullptr) {
    net.Env().Sched().SetProfiler(nullptr);
    out.profile = profiler->Report();
  }
  // The registry keeps its names + timeline; the closures point into `net`,
  // which dies when this frame returns.
  if (config.registry != nullptr) config.registry->DropInstruments();
  return out;
}

ExperimentConfig StandardConfig(OrderingType ordering, int and_x,
                                double rate_tps) {
  ExperimentConfig config;
  config.network.topology.ordering = ordering;
  config.network.topology.endorsing_peers = 10;
  config.network.topology.committing_peers = 1;
  config.network.topology.osns = 3;
  config.network.topology.kafka_brokers = 3;
  config.network.topology.zookeepers = 3;

  if (and_x > 0) {
    config.network.channel.policy_expr = MakeAndPolicy(and_x).ToString();
  }  // else: OR over all endorsing peers (ResolvePolicy default)

  config.workload.kind = client::WorkloadKind::kKvWrite;
  config.workload.rate_tps = rate_tps;
  config.workload.duration = sim::FromSeconds(45);
  config.workload.value_size = 1;  // the paper's 1-byte transactions
  return config;
}

}  // namespace fabricsim::fabric
