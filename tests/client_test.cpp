// Client (SDK model) unit tests against scripted fake endorsers/orderers.
#include "client/client.h"

#include <gtest/gtest.h>

#include "fabric/channel.h"
#include "fabric/topology.h"
#include "obs/trace.h"

namespace fabricsim::client {
namespace {

/// A scripted endorsing peer: can succeed, fail, stay silent, or return a
/// divergent rwset.
class FakeEndorser {
 public:
  enum class Mode { kEndorse, kRefuse, kSilent, kDivergentRwSet };

  FakeEndorser(sim::Environment& env, const crypto::Identity& identity,
               Mode mode)
      : env_(env), identity_(identity), mode_(mode) {
    id_ = env.Net().Register(
        "fake-endorser", [this](sim::NodeId from, sim::MessagePtr msg) {
          auto req = std::dynamic_pointer_cast<const peer::EndorseRequestMsg>(
              msg);
          if (!req) return;
          ++requests_;
          creator_certs_.push_back(req->Proposal().proposal.creator_cert);
          if (mode_ == Mode::kSilent) return;
          auto resp = std::make_shared<proto::ProposalResponse>();
          resp->tx_id = req->Proposal().proposal.tx_id;
          resp->payload.proposal_hash = crypto::HashStr(resp->tx_id);
          if (mode_ == Mode::kRefuse) {
            resp->payload.status = proto::EndorseStatus::kChaincodeError;
          } else {
            resp->payload.status = proto::EndorseStatus::kSuccess;
            proto::NsReadWriteSet ns;
            ns.ns = "kvwrite";
            const std::string key =
                mode_ == Mode::kDivergentRwSet ? "divergent" : "k";
            ns.writes.push_back(
                proto::KVWrite{key, proto::ToBytes("v"), false});
            resp->payload.rwset.ns_rwsets.push_back(std::move(ns));
            resp->endorsement.endorser_cert = identity_.Cert().Serialize();
            resp->endorsement.signature =
                identity_.Sign(resp->payload.Serialize());
          }
          const std::size_t wire = resp->Serialize().size();
          env_.Net().Send(id_, from, std::make_shared<peer::EndorseResponseMsg>(
                                         std::move(resp), wire));
        });
  }

  [[nodiscard]] sim::NodeId Id() const { return id_; }
  [[nodiscard]] int Requests() const { return requests_; }
  /// Each request's proposal creator certificate, in arrival order.
  [[nodiscard]] const std::vector<proto::SharedBytes>& CreatorCerts() const {
    return creator_certs_;
  }
  void SetMode(Mode m) { mode_ = m; }

 private:
  sim::Environment& env_;
  const crypto::Identity& identity_;
  Mode mode_;
  sim::NodeId id_ = sim::kInvalidNode;
  int requests_ = 0;
  std::vector<proto::SharedBytes> creator_certs_;
};

/// A scripted orderer: acks (true/false) or stays silent.
class FakeOrderer {
 public:
  enum class Mode { kAck, kNack, kSilent, kNackOnceThenAck };

  FakeOrderer(sim::Environment& env, Mode mode) : env_(env), mode_(mode) {
    id_ = env.Net().Register(
        "fake-orderer", [this](sim::NodeId from, sim::MessagePtr msg) {
          auto bc =
              std::dynamic_pointer_cast<const ordering::BroadcastEnvelopeMsg>(
                  msg);
          if (!bc) return;
          ++broadcasts_;
          last_envelope_ = bc->Envelope();
          if (mode_ == Mode::kSilent) return;
          bool ok = mode_ == Mode::kAck;
          if (mode_ == Mode::kNackOnceThenAck) {
            ok = broadcasts_ > 1;
          }
          env_.Net().Send(id_, from,
                          std::make_shared<ordering::BroadcastAckMsg>(
                              bc->Envelope()->tx_id, ok));
        });
  }

  [[nodiscard]] sim::NodeId Id() const { return id_; }
  [[nodiscard]] int Broadcasts() const { return broadcasts_; }
  [[nodiscard]] ordering::EnvelopePtr LastEnvelope() const {
    return last_envelope_;
  }

 private:
  sim::Environment& env_;
  Mode mode_;
  sim::NodeId id_ = sim::kInvalidNode;
  int broadcasts_ = 0;
  ordering::EnvelopePtr last_envelope_;
};

struct ClientFixture {
  explicit ClientFixture(
      FakeEndorser::Mode endorser_mode = FakeEndorser::Mode::kEndorse,
      FakeOrderer::Mode orderer_mode = FakeOrderer::Mode::kAck,
      ClientConfig config = ClientConfig{})
      : env(5) {
    msps.AddOrganization("Org1MSP");
    msps.AddOrganization("ClientOrgMSP");
    peer_identity = std::make_unique<crypto::Identity>(
        msps.Find("Org1MSP")->Enroll("peer0", crypto::Role::kPeer));
    endorser = std::make_unique<FakeEndorser>(env, *peer_identity,
                                              endorser_mode);
    orderer = std::make_unique<FakeOrderer>(env, orderer_mode);

    machine = &env.AddMachine("client", fabric::ProfileForClient());
    client = std::make_unique<Client>(
        env, *machine,
        msps.Find("ClientOrgMSP")->Enroll("app0", crypto::Role::kClient),
        fabric::DefaultCalibration(), config,
        fabric::MakeOrPolicy(1), nullptr, 0);
    client->SetEndorsers({endorser->Id()},
                         {crypto::Principal{"Org1MSP", crypto::Role::kPeer}});
    client->SetOrderer(orderer->Id());
  }

  void SubmitOne() {
    proto::ChaincodeInvocation inv;
    inv.chaincode_id = "kvwrite";
    inv.function = "write";
    inv.args = {proto::ToBytes("k"), proto::ToBytes("v")};
    client->Submit(std::move(inv));
  }

  sim::Environment env;
  crypto::MspRegistry msps;
  std::unique_ptr<crypto::Identity> peer_identity;
  std::unique_ptr<FakeEndorser> endorser;
  std::unique_ptr<FakeOrderer> orderer;
  sim::Machine* machine = nullptr;
  std::unique_ptr<Client> client;
};

TEST(Client, HappyPathBroadcastsSignedEnvelope) {
  ClientFixture f;
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(f.endorser->Requests(), 1);
  EXPECT_EQ(f.orderer->Broadcasts(), 1);
  ASSERT_NE(f.orderer->LastEnvelope(), nullptr);
  const auto& env_msg = *f.orderer->LastEnvelope();
  EXPECT_EQ(env_msg.endorsements.size(), 1u);
  // The envelope's client signature verifies.
  auto cert = crypto::Certificate::Deserialize(env_msg.creator_cert);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(crypto::Verify(cert->subject_public_key, env_msg.SignedBody(),
                             env_msg.client_signature));
  EXPECT_EQ(f.client->Rejected(), 0u);
}

TEST(Client, ProposalsAndEnvelopesShareTheClientCertificate) {
  ClientFixture f;
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  const ordering::EnvelopePtr first = f.orderer->LastEnvelope();
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(4));
  const ordering::EnvelopePtr second = f.orderer->LastEnvelope();
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(first, second);
  ASSERT_EQ(f.endorser->CreatorCerts().size(), 2u);

  // One buffer for every proposal and envelope the client signs.
  const std::uint8_t* cert = f.endorser->CreatorCerts()[0].data();
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(f.endorser->CreatorCerts()[1].data(), cert);
  EXPECT_EQ(first->creator_cert.data(), cert);
  EXPECT_EQ(second->creator_cert.data(), cert);
}

TEST(Client, EndorsementRefusalRejectsTransaction) {
  ClientFixture f(FakeEndorser::Mode::kRefuse);
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.client->EndorseFailures(), 1u);
  EXPECT_EQ(f.orderer->Broadcasts(), 0);
}

TEST(Client, SilentEndorserTimesOut) {
  ClientFixture f(FakeEndorser::Mode::kSilent);
  f.SubmitOne();
  // Endorse timeout defaults to 10 s.
  f.env.Sched().RunUntil(sim::FromSeconds(9));
  EXPECT_EQ(f.client->Rejected(), 0u);
  f.env.Sched().RunUntil(sim::FromSeconds(12));
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.orderer->Broadcasts(), 0);
}

TEST(Client, BroadcastTimeoutAfterThreeSeconds) {
  ClientFixture f(FakeEndorser::Mode::kEndorse, FakeOrderer::Mode::kSilent);
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(f.orderer->Broadcasts(), 1);
  EXPECT_EQ(f.client->Rejected(), 0u);
  // The paper's 3 s ordering-response budget.
  f.env.Sched().RunUntil(sim::FromSeconds(6));
  EXPECT_EQ(f.client->Rejected(), 1u);
}

TEST(Client, NackTriggersRetryThenSuccess) {
  ClientFixture f(FakeEndorser::Mode::kEndorse,
                  FakeOrderer::Mode::kNackOnceThenAck);
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(3));
  EXPECT_EQ(f.orderer->Broadcasts(), 2);  // original + one retry
  EXPECT_EQ(f.client->Rejected(), 0u);
}

TEST(Client, PersistentNackEventuallyRejects) {
  ClientFixture f(FakeEndorser::Mode::kEndorse, FakeOrderer::Mode::kNack);
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  EXPECT_EQ(f.orderer->Broadcasts(), 3);  // original + 2 retries
  EXPECT_EQ(f.client->Rejected(), 1u);
}

TEST(Client, DivergentRwSetsRejected) {
  // Two endorsers under AND, one of them returns a different rwset: the
  // SDK's consistency check must reject the transaction.
  ClientFixture f;
  f.msps.AddOrganization("Org2MSP");
  auto peer2_identity = f.msps.Find("Org2MSP")->Enroll(
      "peer0", crypto::Role::kPeer);
  FakeEndorser divergent(f.env, peer2_identity,
                         FakeEndorser::Mode::kDivergentRwSet);
  // Rebuild the client with an AND policy over both orgs.
  f.client = std::make_unique<Client>(
      f.env, *f.machine,
      f.msps.Find("ClientOrgMSP")->Enroll("app1", crypto::Role::kClient),
      fabric::DefaultCalibration(), ClientConfig{},
      fabric::MakeAndPolicy(2), nullptr, 1);
  f.client->SetEndorsers(
      {f.endorser->Id(), divergent.Id()},
      {crypto::Principal{"Org1MSP", crypto::Role::kPeer},
       crypto::Principal{"Org2MSP", crypto::Role::kPeer}});
  f.client->SetOrderer(f.orderer->Id());

  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(3));
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.orderer->Broadcasts(), 0);
}

TEST(Client, UnsatisfiablePolicyRejectsLocally) {
  ClientFixture f;
  f.client = std::make_unique<Client>(
      f.env, *f.machine,
      f.msps.Find("ClientOrgMSP")->Enroll("app2", crypto::Role::kClient),
      fabric::DefaultCalibration(), ClientConfig{},
      fabric::MakeAndPolicy(3),  // needs 3 orgs; only 1 available
      nullptr, 2);
  f.client->SetEndorsers({f.endorser->Id()},
                         {crypto::Principal{"Org1MSP", crypto::Role::kPeer}});
  f.client->SetOrderer(f.orderer->Id());
  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.endorser->Requests(), 0);
}

TEST(Client, ManyInFlightTransactionsAllComplete) {
  ClientFixture f;
  for (int i = 0; i < 20; ++i) f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(5));
  EXPECT_EQ(f.client->Submitted(), 20u);
  EXPECT_EQ(f.orderer->Broadcasts(), 20);
  EXPECT_EQ(f.client->Rejected(), 0u);
}

TEST(Client, ProposalBuiltCallbackFires) {
  ClientFixture f;
  bool built = false;
  proto::ChaincodeInvocation inv;
  inv.chaincode_id = "kvwrite";
  inv.function = "write";
  inv.args = {proto::ToBytes("k"), proto::ToBytes("v")};
  f.client->Submit(std::move(inv), [&] { built = true; });
  EXPECT_FALSE(built);  // not synchronously
  f.env.Sched().RunUntil(sim::FromMillis(100));
  EXPECT_TRUE(built);
}

TEST(ClientRetry, BroadcastTimeoutFailsOverToSurvivingOrderer) {
  ClientConfig cfg;
  cfg.broadcast_timeout_retries = 2;
  ClientFixture f(FakeEndorser::Mode::kEndorse, FakeOrderer::Mode::kSilent,
                  cfg);
  FakeOrderer survivor(f.env, FakeOrderer::Mode::kAck);
  f.client->SetOrderers({f.orderer->Id(), survivor.Id()}, 0);

  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(8));
  // First broadcast hits the silent orderer; the 3 s timeout rotates to the
  // survivor, which acks — no rejection, one timeout failure counted.
  EXPECT_EQ(f.orderer->Broadcasts(), 1);
  EXPECT_EQ(survivor.Broadcasts(), 1);
  EXPECT_EQ(f.client->Rejected(), 0u);
  EXPECT_EQ(f.client->Failures(FailureReason::kBroadcastTimeout), 1u);
}

TEST(ClientRetry, TimeoutBudgetExhaustionRejectsWithPerReasonCount) {
  ClientConfig cfg;
  cfg.broadcast_timeout_retries = 2;
  ClientFixture f(FakeEndorser::Mode::kEndorse, FakeOrderer::Mode::kSilent,
                  cfg);
  f.client->SetOrderers({f.orderer->Id()}, 0);  // nowhere to fail over to

  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(20));
  // Original + 2 retries, every attempt timing out, then a rejection.
  EXPECT_EQ(f.orderer->Broadcasts(), 3);
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.client->Failures(FailureReason::kBroadcastTimeout), 3u);
  EXPECT_EQ(f.client->Failures(FailureReason::kBroadcastNack), 0u);
}

TEST(ClientRetry, EndorseRetryBudgetIsPerReason) {
  ClientConfig cfg;
  cfg.endorse_retries = 1;
  ClientFixture f(FakeEndorser::Mode::kSilent, FakeOrderer::Mode::kAck, cfg);

  f.SubmitOne();
  // Two 10 s endorse timeouts with a ~200 ms backoff between them.
  f.env.Sched().RunUntil(sim::FromSeconds(25));
  // One retry against the (only) endorser, then rejection; both attempts
  // counted under the endorse-timeout reason and in the aggregate.
  EXPECT_EQ(f.endorser->Requests(), 2);
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.client->Failures(FailureReason::kEndorseTimeout), 2u);
  EXPECT_EQ(f.client->EndorseFailures(), 2u);
  EXPECT_EQ(f.orderer->Broadcasts(), 0);
}

TEST(ClientRetry, CommitTimeoutResubmitsThenRejects) {
  ClientConfig cfg;
  cfg.commit_timeout = sim::FromSeconds(1);
  cfg.commit_retries = 1;
  ClientFixture f(FakeEndorser::Mode::kEndorse, FakeOrderer::Mode::kAck, cfg);

  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(10));
  // Acked but no commit event ever arrives: one resubmission (safe under
  // the committer's tx-id dedup), then the budget runs out.
  EXPECT_EQ(f.orderer->Broadcasts(), 2);
  EXPECT_EQ(f.client->Rejected(), 1u);
  EXPECT_EQ(f.client->Failures(FailureReason::kCommitTimeout), 2u);
}

TEST(ClientRetry, RetrySpansAreTraced) {
  obs::Tracer tracer;
  ClientFixture f(FakeEndorser::Mode::kEndorse,
                  FakeOrderer::Mode::kNackOnceThenAck);
  f.env.SetTracer(&tracer);

  f.SubmitOne();
  f.env.Sched().RunUntil(sim::FromSeconds(3));
  f.env.SetTracer(nullptr);

  int retry_spans = 0;
  for (const auto& span : tracer.Spans()) {
    if (span.name == "client.retry") {
      ++retry_spans;
      EXPECT_EQ(span.kind, obs::SpanKind::kQueue);
    }
  }
  EXPECT_EQ(retry_spans, 1);  // the single nack retry, visible in traces
}

}  // namespace
}  // namespace fabricsim::client
