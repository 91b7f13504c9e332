#include "ordering/zookeeper.h"

namespace fabricsim::ordering {
namespace {

// A session silent for longer than kSessionTimeout expires; the leader
// sweeps for expired sessions every kSweepTick.
constexpr sim::SimDuration kSessionTimeout = sim::FromSeconds(6);
constexpr sim::SimDuration kSweepTick = sim::FromSeconds(1);

}  // namespace

ZooKeeperServer::ZooKeeperServer(sim::Environment& env, sim::Machine& machine,
                                 const fabric::Calibration& cal, int index)
    : env_(env), machine_(machine), cal_(cal) {
  net_id_ = env_.Net().Register(
      "zookeeper" + std::to_string(index),
      [this](sim::NodeId from, sim::MessagePtr msg) {
        OnMessage(from, std::move(msg));
      });
}

void ZooKeeperServer::SetEnsemble(std::vector<sim::NodeId> ensemble) {
  ensemble_ = std::move(ensemble);
}

bool ZooKeeperServer::IsLeader() const {
  return !ensemble_.empty() && ensemble_.front() == net_id_;
}

void ZooKeeperServer::Start() {
  if (IsLeader()) {
    env_.Sched().ScheduleAfter(kSweepTick, [this] { SweepSessions(); },
                               "zookeeper/session_sweep");
  }
}

std::optional<std::string> ZooKeeperServer::Peek(
    const std::string& path) const {
  auto it = znodes_.find(path);
  if (it == znodes_.end()) return std::nullopt;
  return it->second.data;
}

void ZooKeeperServer::OnMessage(sim::NodeId from, const sim::MessagePtr& msg) {
  if (auto req = std::dynamic_pointer_cast<const ZkRequestMsg>(msg)) {
    machine_.GetCpu().Submit(cal_.zk_request_cpu, [this, from, req] {
      HandleClientRequest(from, *req);
    });
    return;
  }
  if (auto prop = std::dynamic_pointer_cast<const ZabProposeMsg>(msg)) {
    // Follower: stage the write and ack.
    PendingWrite w;
    w.path = prop->path;
    w.data = prop->data;
    w.is_delete = prop->is_delete;
    pending_commit_[prop->zxid] = std::move(w);
    auto ack = std::make_shared<ZabAckMsg>();
    ack->zxid = prop->zxid;
    env_.Net().Send(net_id_, from, ack);
    return;
  }
  if (auto ack = std::dynamic_pointer_cast<const ZabAckMsg>(msg)) {
    auto it = in_flight_.find(ack->zxid);
    if (it == in_flight_.end()) return;
    PendingWrite& w = it->second;
    ++w.acks;
    // Leader counts itself; quorum = majority of ensemble.
    if (w.acks + 1 >= ensemble_.size() / 2 + 1) {
      ApplyWrite(w.path, w.data, w.is_delete, w.owner_session);
      if (w.requester != sim::kInvalidNode) {
        auto resp = std::make_shared<ZkResponseMsg>();
        resp->request_id = w.request_id;
        resp->ok = true;
        env_.Net().Send(net_id_, w.requester, resp);
      }
      for (sim::NodeId peer : ensemble_) {
        if (peer == net_id_) continue;
        auto commit = std::make_shared<ZabCommitMsg>();
        commit->zxid = it->first;
        env_.Net().Send(net_id_, peer, commit);
      }
      in_flight_.erase(it);
    }
    return;
  }
  if (auto commit = std::dynamic_pointer_cast<const ZabCommitMsg>(msg)) {
    // Apply staged writes up to and including this zxid, in order.
    for (auto it = pending_commit_.begin();
         it != pending_commit_.end() && it->first <= commit->zxid;) {
      ApplyWrite(it->second.path, it->second.data, it->second.is_delete,
                 it->second.owner_session);
      it = pending_commit_.erase(it);
    }
    return;
  }
}

void ZooKeeperServer::HandleClientRequest(sim::NodeId from,
                                          const ZkRequestMsg& m) {
  if (!IsLeader()) {
    // Followers redirect implicitly by failing the request.
    auto resp = std::make_shared<ZkResponseMsg>();
    resp->request_id = m.request_id;
    resp->ok = false;
    env_.Net().Send(net_id_, from, resp);
    return;
  }
  sessions_[m.session_id] = env_.Now();

  switch (m.op) {
    case ZkOp::kHeartbeat: {
      auto resp = std::make_shared<ZkResponseMsg>();
      resp->request_id = m.request_id;
      resp->ok = true;
      env_.Net().Send(net_id_, from, resp);
      return;
    }
    case ZkOp::kGetData: {
      auto resp = std::make_shared<ZkResponseMsg>();
      resp->request_id = m.request_id;
      auto it = znodes_.find(m.path);
      if (it == znodes_.end()) {
        resp->ok = false;
        // A failed read registers a watch: the caller learns when the node
        // appears is not supported; deletion watches are what Kafka needs,
        // so only existing-node watchers are registered on create races.
      } else {
        resp->ok = true;
        resp->data = it->second.data;
      }
      env_.Net().Send(net_id_, from, resp);
      return;
    }
    case ZkOp::kCreateEphemeral: {
      // A create racing with an in-flight create of the same path loses too.
      bool pending_same_path = false;
      for (const auto& [zxid, w] : in_flight_) {
        (void)zxid;
        if (!w.is_delete && w.path == m.path) {
          pending_same_path = true;
          break;
        }
      }
      if (pending_same_path) {
        watches_[m.path].push_back(from);
        auto resp = std::make_shared<ZkResponseMsg>();
        resp->request_id = m.request_id;
        resp->ok = false;
        env_.Net().Send(net_id_, from, resp);
        return;
      }
      auto it = znodes_.find(m.path);
      if (it != znodes_.end()) {
        // Lost the race: fail and watch the node for deletion.
        watches_[m.path].push_back(from);
        auto resp = std::make_shared<ZkResponseMsg>();
        resp->request_id = m.request_id;
        resp->ok = false;
        resp->data = it->second.data;  // current owner
        env_.Net().Send(net_id_, from, resp);
        return;
      }
      PendingWrite w;
      w.path = m.path;
      w.data = m.data;
      w.owner_session = m.session_id;
      w.requester = from;
      w.request_id = m.request_id;
      ProposeWrite(std::move(w));
      return;
    }
  }
}

void ZooKeeperServer::ProposeWrite(PendingWrite w) {
  const std::uint64_t zxid = next_zxid_++;
  for (sim::NodeId peer : ensemble_) {
    if (peer == net_id_) continue;
    auto prop = std::make_shared<ZabProposeMsg>();
    prop->zxid = zxid;
    prop->path = w.path;
    prop->data = w.data;
    prop->is_delete = w.is_delete;
    env_.Net().Send(net_id_, peer, prop);
  }
  if (ensemble_.size() == 1) {
    // Single-server ensemble commits immediately.
    ApplyWrite(w.path, w.data, w.is_delete, w.owner_session);
    if (w.requester != sim::kInvalidNode) {
      auto resp = std::make_shared<ZkResponseMsg>();
      resp->request_id = w.request_id;
      resp->ok = true;
      env_.Net().Send(net_id_, w.requester, resp);
    }
    return;
  }
  in_flight_[zxid] = std::move(w);
}

void ZooKeeperServer::ApplyWrite(const std::string& path,
                                 const std::string& data, bool is_delete,
                                 std::uint64_t owner_session) {
  if (is_delete) {
    znodes_.erase(path);
    if (IsLeader()) FireWatches(path);
  } else {
    znodes_[path] = Znode{data, owner_session};
  }
  ++last_applied_zxid_;
}

void ZooKeeperServer::FireWatches(const std::string& path) {
  auto it = watches_.find(path);
  if (it == watches_.end()) return;
  for (sim::NodeId watcher : it->second) {
    auto ev = std::make_shared<ZkWatchEventMsg>();
    ev->path = path;
    env_.Net().Send(net_id_, watcher, ev);
  }
  watches_.erase(it);
}

void ZooKeeperServer::SweepSessions() {
  const sim::SimTime now = env_.Now();
  std::vector<std::uint64_t> expired;
  for (const auto& [session, last] : sessions_) {
    if (now - last > kSessionTimeout) expired.push_back(session);
  }
  for (std::uint64_t session : expired) {
    sessions_.erase(session);
    // Delete the expired session's ephemeral znodes via replication so all
    // replicas converge; watches fire on apply.
    std::vector<std::string> doomed;
    for (const auto& [path, z] : znodes_) {
      if (z.owner_session == session) doomed.push_back(path);
    }
    for (const auto& path : doomed) {
      PendingWrite w;
      w.path = path;
      w.is_delete = true;
      ProposeWrite(std::move(w));
    }
  }
  env_.Sched().ScheduleAfter(kSweepTick, [this] { SweepSessions(); },
                               "zookeeper/session_sweep");
}

ZooKeeperEnsemble::ZooKeeperEnsemble(sim::Environment& env,
                                     const fabric::Calibration& cal,
                                     std::vector<sim::Machine*> machines) {
  for (std::size_t i = 0; i < machines.size(); ++i) {
    servers_.push_back(std::make_unique<ZooKeeperServer>(
        env, *machines[i], cal, static_cast<int>(i)));
  }
  std::vector<sim::NodeId> ids = NetIds();
  for (auto& s : servers_) s->SetEnsemble(ids);
}

void ZooKeeperEnsemble::Start() {
  for (auto& s : servers_) s->Start();
}

std::vector<sim::NodeId> ZooKeeperEnsemble::NetIds() const {
  std::vector<sim::NodeId> ids;
  ids.reserve(servers_.size());
  for (const auto& s : servers_) ids.push_back(s->NetId());
  return ids;
}

}  // namespace fabricsim::ordering
