// Overload-protection tests: the bounded AdmissionQueue policies, the OSN's
// SERVICE_UNAVAILABLE nack path and slot recycling, windowed backfill, the
// committer's deferral-only pipeline bound, client-side AIMD flow control
// (window moves, local shedding, retry-budget exhaustion), and the
// shed-vs-failed split in TxTracker reports.
#include <gtest/gtest.h>

#include "client/client.h"
#include "crypto/ca.h"
#include "fabric/channel.h"
#include "fabric/topology.h"
#include "metrics/phase_stats.h"
#include "ordering/solo.h"
#include "peer/committer.h"
#include "policy/parser.h"
#include "sim/admission.h"

namespace fabricsim {
namespace {

// ----------------------------------------------------------- AdmissionQueue

TEST(AdmissionQueue, DisabledAdmitsEverything) {
  sim::AdmissionQueue<int> q;  // default config: disabled
  for (int i = 0; i < 100; ++i) {
    auto r = q.Offer(i);
    EXPECT_TRUE(r.admit.has_value());
    EXPECT_TRUE(r.shed.empty());
  }
  EXPECT_EQ(q.AdmittedTotal(), 100u);
  EXPECT_EQ(q.ShedTotal(), 0u);
}

TEST(AdmissionQueue, RejectShedsNewcomerWhenFull) {
  sim::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_inflight = 2;
  cfg.max_waiting = 2;
  cfg.policy = sim::OverloadPolicy::kReject;
  sim::AdmissionQueue<int> q(cfg);

  EXPECT_TRUE(q.Offer(1).admit.has_value());
  EXPECT_TRUE(q.Offer(2).admit.has_value());
  EXPECT_FALSE(q.Offer(3).admit.has_value());  // parked
  EXPECT_FALSE(q.Offer(4).admit.has_value());  // parked
  auto r = q.Offer(5);                          // everything full: shed 5
  EXPECT_FALSE(r.admit.has_value());
  ASSERT_EQ(r.shed.size(), 1u);
  EXPECT_EQ(r.shed[0], 5);
  EXPECT_EQ(q.Inflight(), 2u);
  EXPECT_EQ(q.Waiting(), 2u);
  EXPECT_EQ(q.Depth(), 4u);
  EXPECT_EQ(q.ShedTotal(), 1u);
}

TEST(AdmissionQueue, DropOldestDisplacesWaitingNotNewcomer) {
  sim::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_inflight = 1;
  cfg.max_waiting = 2;
  cfg.policy = sim::OverloadPolicy::kDropOldest;
  sim::AdmissionQueue<int> q(cfg);

  q.Offer(1);  // inflight
  q.Offer(2);  // waiting
  q.Offer(3);  // waiting
  auto r = q.Offer(4);  // displaces 2, parks 4
  ASSERT_EQ(r.shed.size(), 1u);
  EXPECT_EQ(r.shed[0], 2);
  EXPECT_EQ(q.Waiting(), 2u);
  // The survivors drain in arrival order, minus the displaced one.
  EXPECT_EQ(*q.Release(), 3);
  EXPECT_EQ(*q.Release(), 4);
  EXPECT_FALSE(q.Release().has_value());
}

TEST(AdmissionQueue, ReleasePromotesWaitingWithSlotAccounted) {
  sim::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_inflight = 1;
  cfg.max_waiting = 4;
  sim::AdmissionQueue<int> q(cfg);

  q.Offer(1);
  q.Offer(2);
  EXPECT_EQ(q.Inflight(), 1u);
  EXPECT_EQ(q.Waiting(), 1u);
  auto next = q.Release();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2);
  // The promoted item's slot is pre-accounted: still one inflight.
  EXPECT_EQ(q.Inflight(), 1u);
  EXPECT_EQ(q.Waiting(), 0u);
  EXPECT_EQ(q.AdmittedTotal(), 2u);
}

TEST(AdmissionQueue, BlockPolicyShedsOverflowForCallerToSilence) {
  sim::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_inflight = 1;
  cfg.max_waiting = 1;
  cfg.policy = sim::OverloadPolicy::kBlock;
  sim::AdmissionQueue<int> q(cfg);

  q.Offer(1);
  q.Offer(2);
  auto r = q.Offer(3);
  ASSERT_EQ(r.shed.size(), 1u);  // caller drops it without a nack
  EXPECT_EQ(r.shed[0], 3);
  EXPECT_EQ(q.ShedTotal(), 1u);
}

// ------------------------------------------------------- OSN overload nacks

crypto::Identity OrdererIdentity(int i = 0) {
  static crypto::CertificateAuthority ca("OrdererMSP");
  return ca.Enroll("orderer" + std::to_string(i), crypto::Role::kOrderer);
}

ordering::EnvelopePtr Env(const std::string& id) {
  auto env = std::make_shared<proto::TransactionEnvelope>();
  env->tx_id = id;
  return env;
}

struct SoloOverloadFixture {
  explicit SoloOverloadFixture(sim::OverloadPolicy policy,
                               std::size_t max_inflight = 2,
                               std::size_t max_waiting = 0)
      : env(7), cal(fabric::DefaultCalibration()) {
    client_id = env.Net().Register(
        "client-sink", [this](sim::NodeId, sim::MessagePtr msg) {
          if (auto a =
                  std::dynamic_pointer_cast<const ordering::BroadcastAckMsg>(
                      msg)) {
            if (a->Ok()) ++ok_acks;
            if (a->Status() == ordering::BroadcastStatus::kOverloaded) {
              ++overload_acks;
              last_retry_after = a->RetryAfter();
            }
          }
        });
    auto& m = env.AddMachine("osn", sim::I7_2600());
    ordering::BatchConfig batch;
    batch.max_message_count = 2;
    osn = std::make_unique<ordering::SoloOrderer>(env, m, OrdererIdentity(),
                                                  cal, batch, nullptr);
    sim::AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.max_inflight = max_inflight;
    cfg.max_waiting = max_waiting;
    cfg.policy = policy;
    osn->SetAdmission(cfg, sim::FromMillis(250));
  }

  void Broadcast(const std::string& id) {
    env.Net().Send(client_id, osn->NetId(),
                   std::make_shared<ordering::BroadcastEnvelopeMsg>(
                       Env(id), 100));
  }

  sim::Environment env;
  fabric::Calibration cal;
  sim::NodeId client_id = sim::kInvalidNode;
  std::unique_ptr<ordering::SoloOrderer> osn;
  int ok_acks = 0;
  int overload_acks = 0;
  sim::SimDuration last_retry_after = 0;
};

TEST(OsnOverload, RejectNacksWithRetryAfterAndRecyclesSlots) {
  SoloOverloadFixture f(sim::OverloadPolicy::kReject);
  for (int i = 0; i < 6; ++i) f.Broadcast("t" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(3));

  // Two slots, zero waiting: the first two fill a block; the burst behind
  // them is shed with SERVICE_UNAVAILABLE + retry-after.
  EXPECT_EQ(f.ok_acks, 2);
  EXPECT_EQ(f.overload_acks, 4);
  EXPECT_EQ(f.last_retry_after, sim::FromMillis(250));
  EXPECT_EQ(f.osn->IngressShed(), 4u);
  EXPECT_EQ(f.osn->IngressDepth(), 0u);  // slots recycled at block finish

  // The queue drained: new load is admitted again.
  f.Broadcast("late");
  f.env.Sched().RunUntil(f.env.Now() + sim::FromSeconds(3));
  EXPECT_EQ(f.osn->IngressShed(), 4u);
  EXPECT_GE(f.ok_acks, 3);
}

TEST(OsnOverload, BlockPolicyDropsOverflowSilently) {
  SoloOverloadFixture f(sim::OverloadPolicy::kBlock);
  for (int i = 0; i < 6; ++i) f.Broadcast("t" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(3));

  // Overflow vanishes (transport backpressure): no overload nacks; the
  // sender's own timeout machinery is responsible for the terminal status.
  EXPECT_EQ(f.overload_acks, 0);
  EXPECT_EQ(f.ok_acks, 2);
  EXPECT_EQ(f.osn->IngressShed(), 4u);
}

TEST(OsnOverload, WaitingRoomAbsorbsBurstWithoutShedding) {
  SoloOverloadFixture f(sim::OverloadPolicy::kReject, /*max_inflight=*/2,
                        /*max_waiting=*/4);
  for (int i = 0; i < 6; ++i) f.Broadcast("t" + std::to_string(i));
  f.env.Sched().RunUntil(sim::FromSeconds(5));

  // 2 admitted + 4 parked: as blocks finish, parked envelopes are promoted
  // and everything eventually acks ok.
  EXPECT_EQ(f.osn->IngressShed(), 0u);
  EXPECT_EQ(f.overload_acks, 0);
  EXPECT_EQ(f.ok_acks, 6);
}

// --------------------------------------------------------- windowed backfill

TEST(OsnOverload, BackfillIsWindowedByDeliverAcks) {
  sim::Environment env(9);
  fabric::Calibration cal = fabric::DefaultCalibration();
  auto& m = env.AddMachine("osn", sim::I7_2600());
  ordering::BatchConfig batch;
  batch.max_message_count = 1;  // one block per envelope
  ordering::SoloOrderer osn(env, m, OrdererIdentity(1), cal, batch, nullptr);

  const sim::NodeId client_id = env.Net().Register("client-sink", nullptr);
  for (int i = 0; i < 6; ++i) {
    env.Net().Send(client_id, osn.NetId(),
                   std::make_shared<ordering::BroadcastEnvelopeMsg>(
                       Env("t" + std::to_string(i)), 100));
  }
  env.Sched().RunUntil(sim::FromSeconds(2));
  ASSERT_EQ(osn.DeliveredBlocks(), 6u);

  // A rejoining peer that withholds acks receives exactly one window of 4.
  std::vector<std::uint64_t> got;
  bool ack_requested = true;
  const sim::NodeId peer_id = env.Net().Register(
      "slow-peer", [&](sim::NodeId, sim::MessagePtr msg) {
        if (auto b =
                std::dynamic_pointer_cast<const ordering::DeliverBlockMsg>(
                    msg)) {
          got.push_back(b->GetBlock()->header.number);
          ack_requested = ack_requested && b->AckRequested();
        }
      });
  osn.SubscribePeerFrom(peer_id, 0);
  env.Sched().RunUntil(env.Now() + sim::FromMillis(200));
  EXPECT_EQ(got.size(), 4u);
  EXPECT_TRUE(ack_requested);

  // Each ack advances the window by one block until the peer catches up.
  const std::size_t before = got.size();
  env.Net().Send(peer_id, osn.NetId(),
                 std::make_shared<ordering::DeliverAckMsg>("mychannel",
                                                           got.front()));
  env.Sched().RunUntil(env.Now() + sim::FromMillis(200));
  EXPECT_EQ(got.size(), before + 1);
  EXPECT_EQ(got.size(), 5u);
}

// ------------------------------------------------- committer pipeline bound

struct DeferralFixture {
  explicit DeferralFixture(std::size_t max_pipeline_blocks)
      : env(3), cal(fabric::DefaultCalibration()) {
    msps.AddOrganization("Org1MSP");
    msps.AddOrganization("ClientOrgMSP");
    msps.AddOrganization("OrdererMSP");
    client = std::make_unique<crypto::Identity>(
        msps.Find("ClientOrgMSP")->Enroll("app0", crypto::Role::kClient));
    peer1 = std::make_unique<crypto::Identity>(
        msps.Find("Org1MSP")->Enroll("peer0", crypto::Role::kPeer));
    orderer = std::make_unique<crypto::Identity>(
        msps.Find("OrdererMSP")->Enroll("orderer0", crypto::Role::kOrderer));
    machine = &env.AddMachine("peer", sim::I7_2600());
    disk = std::make_unique<sim::Cpu>(env.Sched(), 1);
    peer::CommitterConfig config;
    config.max_pipeline_blocks = max_pipeline_blocks;
    committer = std::make_unique<peer::Committer>(
        env, *machine, *disk, msps, cal, nullptr,
        std::make_shared<peer::ChannelState>(peer::PolicyTable{
            {"cc", policy::MustParsePolicy("OR('Org1MSP.peer')")}}),
        config);
  }

  proto::TransactionEnvelope MakeTx(const std::string& tx_id) {
    proto::TransactionEnvelope tx;
    tx.channel_id = "ch";
    tx.tx_id = tx_id;
    tx.creator_cert = client->Cert().Serialize();
    tx.chaincode_id = "cc";
    proto::NsReadWriteSet ns;
    ns.ns = "cc";
    ns.writes.push_back(proto::KVWrite{tx_id, proto::ToBytes("v"), false});
    tx.rwset.ns_rwsets.push_back(std::move(ns));
    proto::Endorsement en;
    en.endorser_cert = peer1->Cert().Serialize();
    en.signature = peer1->Sign(tx.EndorsedPayloadBytes());
    tx.endorsements.push_back(std::move(en));
    tx.client_signature = client->Sign(tx.SignedBody());
    return tx;
  }

  proto::BlockPtr MakeBlock(std::vector<proto::TransactionEnvelope> txs) {
    auto block = std::make_shared<proto::Block>(proto::Block::Make(
        next_number, next_number == 0 ? nullptr : &prev_hash,
        std::move(txs)));
    block->metadata.orderer_cert = orderer->Cert().Serialize();
    block->metadata.orderer_signature =
        orderer->Sign(block->header.Serialize());
    prev_hash = block->header.Hash();
    ++next_number;
    return block;
  }

  sim::Environment env;
  fabric::Calibration cal;
  crypto::MspRegistry msps;
  std::unique_ptr<crypto::Identity> client, peer1, orderer;
  sim::Machine* machine = nullptr;
  std::unique_ptr<sim::Cpu> disk;
  std::unique_ptr<peer::Committer> committer;
  std::uint64_t next_number = 0;
  crypto::Digest prev_hash{};
};

TEST(CommitterOverload, BoundedPipelineDefersThenCommitsEverything) {
  DeferralFixture f(1);

  int committed_blocks = 0;
  std::vector<std::uint64_t> order;
  for (int b = 0; b < 3; ++b) {
    f.committer->OnBlock(
        f.MakeBlock({f.MakeTx("t" + std::to_string(b))}),
        [&, b](const peer::CommittedBlock&) {
          ++committed_blocks;
          order.push_back(static_cast<std::uint64_t>(b));
        });
  }
  // One block in the pipeline, the rest parked — never shed.
  EXPECT_EQ(f.committer->PipelineDepth(), 1u);
  EXPECT_EQ(f.committer->DeferredBlocks(), 2u);

  f.env.Sched().RunUntil(sim::FromSeconds(10));
  EXPECT_EQ(committed_blocks, 3);
  EXPECT_EQ(std::vector<std::uint64_t>({0, 1, 2}), order);
  EXPECT_EQ(f.committer->Chain().Height(), 3u);
  EXPECT_EQ(f.committer->PipelineDepth(), 0u);
  EXPECT_EQ(f.committer->DeferredBlocks(), 0u);
  EXPECT_EQ(f.committer->DeferredTotal(), 2u);
  EXPECT_TRUE(f.committer->Chain().Audit().ok);
}

// ------------------------------------------------------ client flow control

/// A scripted endorsing peer (success or silence).
class FlowEndorser {
 public:
  enum class Mode { kEndorse, kSilent };

  FlowEndorser(sim::Environment& env, const crypto::Identity& identity,
               Mode mode)
      : env_(env), identity_(identity), mode_(mode) {
    id_ = env.Net().Register(
        "fake-endorser", [this](sim::NodeId from, sim::MessagePtr msg) {
          auto req =
              std::dynamic_pointer_cast<const peer::EndorseRequestMsg>(msg);
          if (!req || mode_ == Mode::kSilent) return;
          auto resp = std::make_shared<proto::ProposalResponse>();
          resp->tx_id = req->Proposal().proposal.tx_id;
          resp->payload.proposal_hash = crypto::HashStr(resp->tx_id);
          resp->payload.status = proto::EndorseStatus::kSuccess;
          proto::NsReadWriteSet ns;
          ns.ns = "kvwrite";
          ns.writes.push_back(proto::KVWrite{"k", proto::ToBytes("v"), false});
          resp->payload.rwset.ns_rwsets.push_back(std::move(ns));
          resp->endorsement.endorser_cert = identity_.Cert().Serialize();
          resp->endorsement.signature =
              identity_.Sign(resp->payload.Serialize());
          const std::size_t wire = resp->Serialize().size();
          env_.Net().Send(
              id_, from,
              std::make_shared<peer::EndorseResponseMsg>(std::move(resp),
                                                         wire));
        });
  }

  [[nodiscard]] sim::NodeId Id() const { return id_; }

 private:
  sim::Environment& env_;
  const crypto::Identity& identity_;
  Mode mode_;
  sim::NodeId id_ = sim::kInvalidNode;
};

/// A scripted orderer: plain acks or permanent SERVICE_UNAVAILABLE nacks.
class FlowOrderer {
 public:
  enum class Mode { kAck, kOverload };

  FlowOrderer(sim::Environment& env, Mode mode) : env_(env), mode_(mode) {
    id_ = env.Net().Register(
        "fake-orderer", [this](sim::NodeId from, sim::MessagePtr msg) {
          auto bc =
              std::dynamic_pointer_cast<const ordering::BroadcastEnvelopeMsg>(
                  msg);
          if (!bc) return;
          ++broadcasts_;
          if (mode_ == Mode::kOverload) {
            env_.Net().Send(id_, from,
                            std::make_shared<ordering::BroadcastAckMsg>(
                                bc->Envelope()->tx_id,
                                ordering::BroadcastStatus::kOverloaded,
                                sim::FromMillis(100)));
            return;
          }
          env_.Net().Send(id_, from,
                          std::make_shared<ordering::BroadcastAckMsg>(
                              bc->Envelope()->tx_id, true));
        });
  }

  [[nodiscard]] sim::NodeId Id() const { return id_; }
  [[nodiscard]] int Broadcasts() const { return broadcasts_; }

 private:
  sim::Environment& env_;
  Mode mode_;
  sim::NodeId id_ = sim::kInvalidNode;
  int broadcasts_ = 0;
};

struct FlowFixture {
  FlowFixture(client::ClientConfig config, FlowOrderer::Mode orderer_mode,
              FlowEndorser::Mode endorser_mode = FlowEndorser::Mode::kEndorse)
      : env(11), cal(fabric::DefaultCalibration()) {
    msps.AddOrganization("Org1MSP");
    msps.AddOrganization("ClientOrgMSP");
    peer_identity = std::make_unique<crypto::Identity>(
        msps.Find("Org1MSP")->Enroll("peer0", crypto::Role::kPeer));
    endorser =
        std::make_unique<FlowEndorser>(env, *peer_identity, endorser_mode);
    orderer = std::make_unique<FlowOrderer>(env, orderer_mode);
    machine = &env.AddMachine("client", fabric::ProfileForClient());
    cl = std::make_unique<client::Client>(
        env, *machine,
        msps.Find("ClientOrgMSP")->Enroll("app0", crypto::Role::kClient),
        cal, config, fabric::MakeOrPolicy(1), &tracker, 0);
    cl->SetEndorsers({endorser->Id()},
                     {crypto::Principal{"Org1MSP", crypto::Role::kPeer}});
    cl->SetOrderer(orderer->Id());
  }

  void SubmitOne() {
    proto::ChaincodeInvocation inv;
    inv.chaincode_id = "kvwrite";
    inv.function = "write";
    inv.args = {proto::ToBytes("k"), proto::ToBytes("v")};
    cl->Submit(std::move(inv));
  }

  sim::Environment env;
  fabric::Calibration cal;
  crypto::MspRegistry msps;
  metrics::TxTracker tracker;
  std::unique_ptr<crypto::Identity> peer_identity;
  std::unique_ptr<FlowEndorser> endorser;
  std::unique_ptr<FlowOrderer> orderer;
  sim::Machine* machine = nullptr;
  std::unique_ptr<client::Client> cl;
};

client::ClientConfig FlowConfig(double initial_window) {
  client::ClientConfig cfg;
  cfg.flow.enabled = true;
  cfg.flow.initial_window = initial_window;
  cfg.track_outcomes = true;
  return cfg;
}

TEST(ClientFlow, OverloadNacksShrinkWindowToMinimum) {
  FlowFixture f(FlowConfig(8.0), FlowOrderer::Mode::kOverload);
  for (int i = 0; i < 4; ++i) f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(15));

  // Every broadcast attempt is met with SERVICE_UNAVAILABLE: the AIMD
  // window collapses multiplicatively to its floor and every tx ends
  // rejected after its retry budget — with the pending table fully drained.
  EXPECT_GE(f.cl->Failures(client::FailureReason::kBroadcastOverload), 4u);
  EXPECT_EQ(f.cl->FlowWindow(), 1.0);
  EXPECT_EQ(f.cl->Rejected(), 4u);
  EXPECT_EQ(f.cl->PendingCount(), 0u);
  EXPECT_EQ(f.cl->Inflight(), 0u);
  EXPECT_EQ(f.cl->LaunchQueueDepth(), 0u);

  // The terminal status is a shed, not a generic failure, and the outcome
  // log has every tx — nothing vanished.
  ASSERT_NE(f.cl->Outcomes(), nullptr);
  EXPECT_EQ(f.cl->Outcomes()->rejected.size(), 4u);
  for (const auto& tx_id : f.cl->Outcomes()->rejected) {
    const metrics::TxRecord* rec = f.tracker.Find(tx_id);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->rejected);
    EXPECT_EQ(rec->reject_kind, metrics::RejectKind::kShed);
  }
}

TEST(ClientFlow, AcksGrowWindowAdditively) {
  client::ClientConfig cfg = FlowConfig(2.0);
  // Terminal status via commit timeout so window slots recycle (there is no
  // committer behind the fake orderer to emit commit events).
  cfg.commit_timeout = sim::FromMillis(500);
  cfg.commit_retries = 0;
  FlowFixture f(cfg, FlowOrderer::Mode::kAck);
  for (int i = 0; i < 10; ++i) f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(30));

  EXPECT_GT(f.cl->FlowWindow(), 2.0);
  EXPECT_EQ(f.orderer->Broadcasts(), 10);
  EXPECT_EQ(f.cl->PendingCount(), 0u);
  EXPECT_EQ(f.cl->LaunchQueueDepth(), 0u);
}

TEST(ClientFlow, FullLaunchQueueShedsLocallyWithTerminalStatus) {
  client::ClientConfig cfg = FlowConfig(1.0);
  cfg.flow.max_queue = 2;
  // Silent endorser: the single launched tx pins the window open, and with
  // no acks the window never grows past 1.
  FlowFixture f(cfg, FlowOrderer::Mode::kAck, FlowEndorser::Mode::kSilent);
  for (int i = 0; i < 5; ++i) f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(1));

  // 1 launched + 2 queued; the 2 overflowing submissions shed immediately
  // with a clean client-shed status.
  EXPECT_EQ(f.cl->Inflight(), 1u);
  EXPECT_EQ(f.cl->LaunchQueueDepth(), 2u);
  EXPECT_EQ(f.cl->Failures(client::FailureReason::kClientShed), 2u);
  EXPECT_EQ(f.cl->Rejected(), 2u);
  ASSERT_NE(f.cl->Outcomes(), nullptr);
  EXPECT_EQ(f.cl->Outcomes()->rejected.size(), 2u);
}

TEST(ClientFlow, RetryBudgetExhaustionFreesPendingSlotNoLeak) {
  // A permanently overloaded orderer: the tx must surface a terminal
  // rejection once the broadcast retry budget runs out — no hang, no
  // orphaned pending entry, no stuck inflight slot.
  FlowFixture f(FlowConfig(4.0), FlowOrderer::Mode::kOverload);
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(15));

  EXPECT_EQ(f.orderer->Broadcasts(), 3);  // original + 2 retries
  EXPECT_EQ(f.cl->Rejected(), 1u);
  EXPECT_EQ(f.cl->PendingCount(), 0u);
  EXPECT_EQ(f.cl->Inflight(), 0u);
  EXPECT_EQ(f.cl->LaunchQueueDepth(), 0u);
}

// --------------------------------------------------- shed-vs-failed reports

TEST(TxTracker, ShedIsReportedSeparatelyFromFailures) {
  metrics::TxTracker tracker;
  const sim::SimTime t = sim::FromSeconds(1);
  tracker.MarkSubmitted("a", t);
  tracker.MarkSubmitted("b", t);
  tracker.MarkSubmitted("c", t);
  tracker.MarkEndorsed("a", t + sim::FromMillis(10));
  tracker.MarkOrdered("a", t + sim::FromMillis(20));
  tracker.MarkCommitted("a", t + sim::FromMillis(30),
                        proto::ValidationCode::kValid);
  tracker.MarkRejected("b", t + sim::FromMillis(10),
                       metrics::RejectKind::kShed);
  tracker.MarkRejected("c", t + sim::FromMillis(10));  // defaults to failed

  const metrics::Report r =
      tracker.BuildReport(0, sim::FromSeconds(10));
  EXPECT_EQ(r.submitted, 3u);
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(r.shed, 1u);
  EXPECT_NEAR(r.rejection_rate, 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.goodput_tps, r.end_to_end.throughput_tps);
  EXPECT_NEAR(r.goodput_tps, 0.1, 1e-9);  // 1 valid commit / 10 s window
}

}  // namespace
}  // namespace fabricsim
