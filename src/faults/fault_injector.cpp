#include "faults/fault_injector.h"

#include <sstream>
#include <stdexcept>

#include "ordering/block_cutter.h"
#include "ordering/messages.h"

namespace fabricsim::faults {

namespace {

/// Parses "<prefix><index>" (e.g. "osn2"); returns -1 if `name` doesn't
/// start with `prefix` or the tail isn't all digits.
int IndexOf(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  int index = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    index = index * 10 + (name[i] - '0');
  }
  return index;
}

}  // namespace

void FaultInjector::Arm() {
  // Resolve every target once before anything is scheduled, so a name that
  // parses but matches no node fails here instead of aborting mid-run.
  for (const FaultEvent& ev : schedule_.events) CheckTargets(ev);
  for (const FaultEvent& ev : schedule_.events) {
    net_.Env().Sched().ScheduleAt(ev.at, [this, &ev] { Fire(ev); });
  }
}

void FaultInjector::Fire(const FaultEvent& ev) {
  sim::Environment& env = net_.Env();
  sim::Network& net = env.Net();

  switch (ev.kind) {
    case FaultKind::kCrash: {
      std::vector<sim::NodeId> ids;
      for (const auto& name : ev.groups.at(0)) {
        for (sim::NodeId id : ResolveNodes(name)) ids.push_back(id);
      }
      // Revive only the nodes this event actually took down, not a
      // re-resolved alias: the leader at crash time stays the target even
      // after a re-election, and a window overlapping another crash never
      // revives a node the other window still holds down.
      std::vector<sim::NodeId> fresh;
      for (sim::NodeId id : ids) {
        if (CrashNode(id)) fresh.push_back(id);
      }
      if (ev.until) {
        env.Sched().ScheduleAt(*ev.until, [this, fresh] {
          for (sim::NodeId id : fresh) ReviveNode(id);
        });
      }
      return;
    }
    case FaultKind::kRevive: {
      std::vector<sim::NodeId> ids;
      if (ev.groups.empty()) {
        ids.assign(crashed_.begin(), crashed_.end());
      } else {
        for (const auto& name : ev.groups.at(0)) {
          for (sim::NodeId id : ResolveNodes(name)) ids.push_back(id);
        }
      }
      for (sim::NodeId id : ids) ReviveNode(id);
      return;
    }
    case FaultKind::kPartition: {
      std::vector<std::vector<sim::NodeId>> groups;
      for (const auto& names : ev.groups) {
        std::vector<sim::NodeId> ids;
        for (const auto& name : names) {
          for (sim::NodeId id : ResolveNodes(name)) ids.push_back(id);
        }
        groups.push_back(std::move(ids));
      }
      for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
        for (std::size_t h = g + 1; h < groups.size(); ++h) {
          for (sim::NodeId a : groups[g]) {
            for (sim::NodeId b : groups[h]) net.Partition(a, b);
          }
        }
      }
      std::ostringstream os;
      os << "partition";
      for (std::size_t g = 0; g < groups.size(); ++g) {
        os << (g == 0 ? " " : " | ");
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
          os << (i == 0 ? "" : "+") << net.NameOf(groups[g][i]);
        }
      }
      Note(os.str());
      if (ev.until) {
        env.Sched().ScheduleAt(*ev.until, [this, groups] {
          sim::Network& n = net_.Env().Net();
          for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
            for (std::size_t h = g + 1; h < groups.size(); ++h) {
              for (sim::NodeId a : groups[g]) {
                for (sim::NodeId b : groups[h]) n.Heal(a, b);
              }
            }
          }
          Note("heal partition");
        });
      }
      return;
    }
    case FaultKind::kHeal:
      net.HealAll();
      Note("heal all partitions");
      return;
    case FaultKind::kLoss:
      ApplyLoss(ev.value, ev.until);
      return;
    case FaultKind::kSlowCpu: {
      const std::string& name = ev.groups.at(0).at(0);
      ScaleSpeed(ResolveMachineCpu(name), "cpu " + name, ev.value, ev.until);
      return;
    }
    case FaultKind::kSlowDisk: {
      const std::string& name = ev.groups.at(0).at(0);
      ScaleSpeed(ResolvePeerDisk(name), "disk " + name, ev.value, ev.until);
      return;
    }
    case FaultKind::kEquivocate:
    case FaultKind::kTamperBlock:
    case FaultKind::kBogusBackfill: {
      std::vector<ordering::OsnBase*> osns;
      for (const auto& name : ev.groups.at(0)) {
        for (auto* o : ResolveOsns(name)) osns.push_back(o);
      }
      const std::string what = FaultKindName(ev.kind);
      for (auto* o : osns) SetOsnAttack(o, ev.kind, true);
      Note(what + " armed on " + std::to_string(osns.size()) + " OSN(s)");
      // The grammar requires a window for these kinds (Parse rejects
      // open-ended Byzantine attacks), so ev.until is always set.
      env.Sched().ScheduleAt(*ev.until, [this, osns, kind = ev.kind, what] {
        for (auto* o : osns) SetOsnAttack(o, kind, false);
        Note(what + " disarmed");
      });
      return;
    }
    case FaultKind::kForgeEndorsement: {
      std::vector<peer::PeerNode*> peers;
      for (const auto& name : ev.groups.at(0)) {
        for (auto* p : ResolvePeers(name)) peers.push_back(p);
      }
      for (auto* p : peers) p->SetForgeEndorsements(true);
      Note("forge-endorsement armed on " + std::to_string(peers.size()) +
           " peer(s)");
      env.Sched().ScheduleAt(*ev.until, [this, peers] {
        for (auto* p : peers) p->SetForgeEndorsements(false);
        Note("forge-endorsement disarmed");
      });
      return;
    }
    case FaultKind::kReplayTx:
      FireReplayTx(ev);
      return;
  }
}

void FaultInjector::SetOsnAttack(ordering::OsnBase* osn, FaultKind kind,
                                 bool on) {
  switch (kind) {
    case FaultKind::kEquivocate:
      osn->SetEquivocate(on);
      break;
    case FaultKind::kTamperBlock:
      osn->SetTamperDeliver(on);
      break;
    case FaultKind::kBogusBackfill:
      osn->SetBogusBackfill(on);
      break;
    default:
      break;
  }
}

void FaultInjector::FireReplayTx(const FaultEvent& ev) {
  sim::Environment& env = net_.Env();
  // A network adversary replaying captured broadcasts: take the newest
  // committed transactions from the validator's chain and re-submit them to
  // the ordering service verbatim. The envelopes are well-signed (they
  // committed once), so they order again — the committer's duplicate tx-id
  // screen must flag the second commit attempt.
  const auto count = static_cast<std::size_t>(ev.value);
  const auto& store = net_.ValidatorPeer().GetCommitter().Chain().Store();
  std::vector<ordering::EnvelopePtr> victims;
  for (std::uint64_t n = store.Height(); victims.size() < count && n-- > 1;) {
    const proto::BlockPtr b = store.GetBlock(n);
    if (b == nullptr) break;  // outside the retained window
    for (std::size_t i = b->TxCount(); i-- > 0 && victims.size() < count;) {
      victims.push_back(b->transactions.Ptr(i));
    }
  }
  if (victims.empty()) {
    Note("replay-tx: nothing committed yet to replay");
    return;
  }
  const auto osns = net_.OsnNetIds(0);
  if (osns.empty()) {
    Note("replay-tx: no ordering nodes");
    return;
  }
  // Spoofed sender: the adversary injects from an existing endpoint (the
  // validator) so the ack it triggers lands somewhere that ignores it.
  const sim::NodeId attacker = net_.ValidatorPeer().NetId();
  for (const auto& e : victims) {
    env.Net().Send(attacker, osns.front(),
                   std::make_shared<ordering::BroadcastEnvelopeMsg>(
                       e, e->WireSize()));
  }
  Note("replay-tx: re-broadcast " + std::to_string(victims.size()) +
       " committed tx");
}

void FaultInjector::CheckTargets(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrash:
    case FaultKind::kRevive:
    case FaultKind::kPartition:
      for (const auto& names : ev.groups) {
        for (const auto& name : names) (void)ResolveNodes(name);
      }
      return;
    case FaultKind::kSlowCpu:
      (void)ResolveMachineCpu(ev.groups.at(0).at(0));
      return;
    case FaultKind::kSlowDisk:
      (void)ResolvePeerDisk(ev.groups.at(0).at(0));
      return;
    case FaultKind::kEquivocate:
    case FaultKind::kTamperBlock:
    case FaultKind::kBogusBackfill:
      for (const auto& name : ev.groups.at(0)) (void)ResolveOsns(name);
      return;
    case FaultKind::kForgeEndorsement:
      for (const auto& name : ev.groups.at(0)) (void)ResolvePeers(name);
      return;
    case FaultKind::kHeal:
    case FaultKind::kLoss:
    case FaultKind::kReplayTx:
      return;
  }
}

sim::Cpu* FaultInjector::ResolveMachineCpu(const std::string& name) {
  sim::Environment& env = net_.Env();
  for (std::size_t i = 0; i < env.MachineCount(); ++i) {
    if (env.MachineAt(i).Name() == name) return &env.MachineAt(i).GetCpu();
  }
  throw std::invalid_argument("unknown machine for slow fault: " + name);
}

sim::Cpu* FaultInjector::ResolvePeerDisk(const std::string& name) {
  for (std::size_t i = 0; i < net_.PeerCount(); ++i) {
    peer::PeerNode& p = net_.Peer(i);
    if (net_.Env().Net().NameOf(p.NetId()) == name) return &p.MutableDisk();
  }
  throw std::invalid_argument("unknown peer for slowdisk fault: " + name);
}

std::vector<ordering::OsnBase*> FaultInjector::ResolveOsns(
    const std::string& name) {
  std::vector<ordering::OsnBase*> out;
  for (sim::NodeId id : ResolveNodes(name)) {
    for (int c = 0; c < net_.ChannelCount(); ++c) {
      for (ordering::OsnBase* osn : net_.Osns(c)) {
        if (osn->NetId() == id) out.push_back(osn);
      }
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("fault target is not an OSN: " + name);
  }
  return out;
}

std::vector<peer::PeerNode*> FaultInjector::ResolvePeers(
    const std::string& name) {
  std::vector<peer::PeerNode*> out;
  for (sim::NodeId id : ResolveNodes(name)) {
    for (std::size_t i = 0; i < net_.PeerCount(); ++i) {
      if (net_.Peer(i).NetId() == id) out.push_back(&net_.Peer(i));
    }
  }
  if (out.empty()) {
    throw std::invalid_argument("fault target is not a peer: " + name);
  }
  return out;
}

void FaultInjector::ApplyLoss(double value, std::optional<sim::SimTime> until) {
  sim::Network& net = net_.Env().Net();
  if (!loss_.init) {
    loss_.baseline = net.Config().loss_probability;
    loss_.init = true;
  }
  std::ostringstream os;
  os << "loss probability -> " << value;
  if (!until) {
    // A bare loss event rewrites the baseline; it takes effect immediately
    // unless a window is currently holding its own value.
    loss_.baseline = value;
    if (loss_.active.empty()) {
      net.SetLossProbability(value);
    } else {
      os << " (baseline; window active)";
    }
    Note(os.str());
    return;
  }
  const int token = next_window_token_++;
  loss_.active.emplace_back(token, value);
  net.SetLossProbability(value);
  Note(os.str());
  net_.Env().Sched().ScheduleAt(*until, [this, token] {
    auto& active = loss_.active;
    for (auto it = active.begin(); it != active.end(); ++it) {
      if (it->first == token) {
        active.erase(it);
        break;
      }
    }
    const double v = active.empty() ? loss_.baseline : active.back().second;
    net_.Env().Net().SetLossProbability(v);
    std::ostringstream o2;
    o2 << "loss probability restored to " << v;
    Note(o2.str());
  });
}

void FaultInjector::RecomputeSpeed(sim::Cpu* res) {
  const SpeedState& st = speeds_[res];
  double f = st.baseline;
  for (const auto& [token, factor] : st.active) f *= factor;
  res->SetSpeedFactor(f);
}

void FaultInjector::ScaleSpeed(sim::Cpu* res, const std::string& what,
                               double factor,
                               std::optional<sim::SimTime> until) {
  auto [it, inserted] = speeds_.try_emplace(res);
  if (inserted) it->second.baseline = res->SpeedFactor();
  std::ostringstream os;
  os << what << " speed x" << factor;
  if (!until) {
    // Permanent slowdowns fold into the baseline so later windows still
    // unwind to the slowed state, not the original speed.
    it->second.baseline *= factor;
    RecomputeSpeed(res);
    Note(os.str());
    return;
  }
  const int token = next_window_token_++;
  it->second.active.emplace_back(token, factor);
  RecomputeSpeed(res);
  Note(os.str());
  net_.Env().Sched().ScheduleAt(*until, [this, res, what, token] {
    auto& active = speeds_[res].active;
    for (auto ai = active.begin(); ai != active.end(); ++ai) {
      if (ai->first == token) {
        active.erase(ai);
        break;
      }
    }
    RecomputeSpeed(res);
    Note(what + " speed restored");
  });
}

bool FaultInjector::CrashNode(sim::NodeId id) {
  sim::Network& net = net_.Env().Net();
  if (net.IsCrashed(id)) {
    Note("crash " + net.NameOf(id) + " (already down)");
    return false;
  }
  net.Crash(id);
  crashed_.insert(id);
  for (std::size_t i = 0; i < net_.PeerCount(); ++i) {
    if (net_.Peer(i).NetId() == id) net_.Peer(i).OnCrash();
  }
  Note("crash " + net.NameOf(id));
  return true;
}

void FaultInjector::ReviveNode(sim::NodeId id) {
  sim::Network& net = net_.Env().Net();
  if (!net.IsCrashed(id)) {
    Note("revive " + net.NameOf(id) + " (already up)");
    return;
  }
  net.Revive(id);
  crashed_.erase(id);
  // A revived Raft OSN restarts its consenter process: volatile Raft state
  // resets and timers re-arm, as a real orderer restart would.
  if (net_.Options().topology.ordering == fabric::OrderingType::kRaft) {
    for (int c = 0; c < net_.ChannelCount(); ++c) {
      for (auto& osn : net_.Rafts(c)) {
        if (osn->NetId() == id) osn->RestartAfterCrash();
      }
    }
  }
  Note("revive " + net.NameOf(id));
}

std::vector<sim::NodeId> FaultInjector::ResolveNodes(const std::string& name) {
  const auto& topo = net_.Options().topology;
  if (name == "leader") return {ResolveLeader()};

  if (const int i = IndexOf(name, "osn"); i >= 0) {
    std::vector<sim::NodeId> ids;
    for (int c = 0; c < net_.ChannelCount(); ++c) {
      const auto osns = net_.OsnNetIds(c);
      if (static_cast<std::size_t>(i) >= osns.size()) {
        throw std::invalid_argument("fault target out of range: " + name);
      }
      ids.push_back(osns[static_cast<std::size_t>(i)]);
    }
    return ids;
  }
  if (const int i = IndexOf(name, "broker"); i >= 0) {
    if (topo.ordering != fabric::OrderingType::kKafka) {
      throw std::invalid_argument("broker fault target without kafka: " + name);
    }
    std::vector<sim::NodeId> ids;
    for (int c = 0; c < net_.ChannelCount(); ++c) {
      auto& brokers = net_.Brokers(c);
      if (static_cast<std::size_t>(i) >= brokers.size()) {
        throw std::invalid_argument("fault target out of range: " + name);
      }
      ids.push_back(brokers[static_cast<std::size_t>(i)]->NetId());
    }
    return ids;
  }
  if (const int i = IndexOf(name, "zk"); i >= 0) {
    if (net_.ZooKeeper() == nullptr) {
      throw std::invalid_argument("zk fault target without zookeeper: " + name);
    }
    const auto ids = net_.ZooKeeper()->NetIds();
    if (static_cast<std::size_t>(i) >= ids.size()) {
      throw std::invalid_argument("fault target out of range: " + name);
    }
    return {ids[static_cast<std::size_t>(i)]};
  }

  // Exact endpoint name.
  const sim::Network& net = net_.Env().Net();
  for (sim::NodeId id = 0; id < static_cast<sim::NodeId>(net.NodeCount());
       ++id) {
    if (net.NameOf(id) == name) return {id};
  }
  throw std::invalid_argument("unknown fault target: " + name);
}

sim::NodeId FaultInjector::ResolveLeader() {
  switch (net_.Options().topology.ordering) {
    case fabric::OrderingType::kSolo:
      return net_.Solo(0)->NetId();
    case fabric::OrderingType::kRaft: {
      for (auto& osn : net_.Rafts(0)) {
        if (osn->IsLeader()) return osn->NetId();
      }
      return net_.Rafts(0).front()->NetId();
    }
    case fabric::OrderingType::kKafka: {
      for (auto& b : net_.Brokers(0)) {
        if (b->IsPartitionLeader()) return b->NetId();
      }
      return net_.Brokers(0).front()->NetId();
    }
  }
  return sim::kInvalidNode;
}

void FaultInjector::Note(const std::string& what) {
  log_.push_back({net_.Env().Now(), what});
}

std::string FaultInjector::LogText() const {
  std::ostringstream os;
  for (const auto& entry : log_) {
    os << "  " << sim::ToSeconds(entry.at) << "s  " << entry.what << "\n";
  }
  return os.str();
}

}  // namespace fabricsim::faults
