#include "peer/endorser.h"

#include <gtest/gtest.h>

#include "chaincode/kvwrite.h"
#include "chaincode/token.h"

namespace fabricsim::peer {
namespace {

struct EndorserFixture {
  EndorserFixture() {
    msps.AddOrganization("Org1MSP");
    msps.AddOrganization("ClientOrgMSP");
    peer_identity = std::make_unique<crypto::Identity>(
        msps.Find("Org1MSP")->Enroll("peer0", crypto::Role::kPeer));
    client_identity = std::make_unique<crypto::Identity>(
        msps.Find("ClientOrgMSP")->Enroll("app0", crypto::Role::kClient));
    chaincodes.Install(std::make_shared<chaincode::KvWriteChaincode>());
    chaincodes.Install(std::make_shared<chaincode::TokenChaincode>());
    endorser = std::make_unique<Endorser>(
        *peer_identity, msps, chaincodes,
        [this] { return ledger::StateView(state); }, store, "mychannel");
  }

  proto::SignedProposal MakeProposal(
      const std::string& cc, const std::string& fn,
      std::vector<std::string> args, const std::string& channel = "mychannel") {
    proto::Proposal p;
    p.channel_id = channel;
    p.nonce = proto::ToBytes("nonce" + std::to_string(nonce_counter++));
    p.creator_cert = client_identity->Cert().Serialize();
    p.invocation.chaincode_id = cc;
    p.invocation.function = fn;
    for (auto& a : args) p.invocation.args.push_back(proto::ToBytes(a));
    p.tx_id = proto::Proposal::ComputeTxId(p.nonce, p.creator_cert);
    proto::SignedProposal sp;
    sp.proposal = std::move(p);
    sp.client_signature = client_identity->Sign(sp.proposal.Serialize());
    return sp;
  }

  crypto::MspRegistry msps;
  std::unique_ptr<crypto::Identity> peer_identity;
  std::unique_ptr<crypto::Identity> client_identity;
  chaincode::Registry chaincodes;
  ledger::StateDb state;
  std::shared_ptr<ledger::BlockLog> log = std::make_shared<ledger::BlockLog>();
  ledger::BlockStore store{log};
  std::unique_ptr<Endorser> endorser;
  int nonce_counter = 0;
};

TEST(Endorser, EndorsesValidWriteProposal) {
  EndorserFixture f;
  const auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kSuccess);
  EXPECT_EQ(resp.tx_id, sp.proposal.tx_id);
  EXPECT_EQ(resp.payload.rwset.WriteCount(), 1u);
  EXPECT_EQ(resp.payload.rwset.ReadCount(), 0u);
  // ESCC signature verifies against the endorser's cert.
  auto cert = crypto::Certificate::Deserialize(resp.endorsement.endorser_cert);
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(crypto::Verify(cert->subject_public_key,
                             resp.payload.Serialize(),
                             resp.endorsement.signature));
  EXPECT_EQ(f.endorser->Endorsed(), 1u);
}

TEST(Endorser, ReadRecordsVersion) {
  EndorserFixture f;
  f.state.Put("kvwrite", "k", proto::ToBytes("old"), proto::KeyVersion{4, 2});
  const auto resp =
      f.endorser->Process(f.MakeProposal("kvwrite", "readwrite", {"k", "v"}));
  ASSERT_EQ(resp.payload.status, proto::EndorseStatus::kSuccess);
  ASSERT_EQ(resp.payload.rwset.ReadCount(), 1u);
  EXPECT_EQ(resp.payload.rwset.ns_rwsets[0].reads[0].version,
            (proto::KeyVersion{4, 2}));
}

TEST(Endorser, RejectsWrongChannel) {
  EndorserFixture f;
  const auto resp = f.endorser->Process(
      f.MakeProposal("kvwrite", "write", {"k", "v"}, "otherchannel"));
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kBadProposal);
  EXPECT_EQ(f.endorser->Refused(), 1u);
}

TEST(Endorser, RejectsForgedTxId) {
  EndorserFixture f;
  auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  sp.proposal.tx_id = "forged";
  sp.client_signature = f.client_identity->Sign(sp.proposal.Serialize());
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kBadProposal);
}

TEST(Endorser, RejectsBadClientSignature) {
  EndorserFixture f;
  auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  sp.client_signature.bytes[0] ^= 1;
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kBadProposal);
}

TEST(Endorser, RejectsUnknownMspCreator) {
  EndorserFixture f;
  crypto::CertificateAuthority rogue("RogueMSP");
  const auto rogue_id = rogue.Enroll("evil", crypto::Role::kClient);
  auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  sp.proposal.creator_cert = rogue_id.Cert().Serialize();
  sp.proposal.tx_id = proto::Proposal::ComputeTxId(sp.proposal.nonce,
                                                   sp.proposal.creator_cert);
  auto copy = sp.proposal;  // re-sign with the rogue key over fresh bytes
  sp.client_signature = rogue_id.Sign(copy.Serialize());
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kBadProposal);
}

TEST(Endorser, RejectsPeerRoleAsCreator) {
  EndorserFixture f;
  // A peer identity must not submit transactions.
  const auto peer_as_client =
      f.msps.Find("Org1MSP")->Enroll("sneaky-peer", crypto::Role::kPeer);
  proto::Proposal p;
  p.channel_id = "mychannel";
  p.nonce = proto::ToBytes("n");
  p.creator_cert = peer_as_client.Cert().Serialize();
  p.invocation.chaincode_id = "kvwrite";
  p.invocation.function = "write";
  p.invocation.args = {proto::ToBytes("k"), proto::ToBytes("v")};
  p.tx_id = proto::Proposal::ComputeTxId(p.nonce, p.creator_cert);
  proto::SignedProposal sp;
  sp.proposal = std::move(p);
  sp.client_signature = peer_as_client.Sign(sp.proposal.Serialize());
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kUnauthorized);
}

TEST(Endorser, RejectsReplayedCommittedTx) {
  EndorserFixture f;
  auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  // Simulate the tx already being on the ledger.
  proto::TransactionEnvelope env;
  env.tx_id = sp.proposal.tx_id;
  f.store.Append(std::make_shared<proto::Block>(
      proto::Block::Make(0, nullptr, {env})));
  const auto resp = f.endorser->Process(sp);
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kDuplicateTxId);
}

TEST(Endorser, LaggingPeerAcceptsAnIdCommittedOnlyAboveItsHeight) {
  // The endorser's store shares its block log with a peer that is two
  // blocks ahead; the proposal's id is committed only in the leader's
  // newest block, so the lagging peer has not seen it yet.
  EndorserFixture f;
  const auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  ledger::BlockStore leader(f.log);
  for (std::uint64_t n = 0; n < 3; ++n) {
    proto::TransactionEnvelope env;
    env.tx_id = n == 2 ? sp.proposal.tx_id : "other" + std::to_string(n);
    leader.Append(std::make_shared<proto::Block>(
        proto::Block::Make(n, nullptr, {env})));
  }
  ASSERT_TRUE(f.store.Follow());
  EXPECT_EQ(f.log->ResidentBlocks(), 3u);
  EXPECT_TRUE(leader.HasTransaction(sp.proposal.tx_id));
  EXPECT_FALSE(f.store.HasTransaction(sp.proposal.tx_id));
  EXPECT_EQ(f.endorser->Process(sp).payload.status,
            proto::EndorseStatus::kSuccess);

  // Once the lagging peer commits the block too, the id is a duplicate.
  ASSERT_TRUE(f.store.Follow());
  ASSERT_TRUE(f.store.Follow());
  EXPECT_TRUE(f.store.Shared());
  EXPECT_EQ(f.endorser->Process(sp).payload.status,
            proto::EndorseStatus::kDuplicateTxId);
}

TEST(Endorser, RejectsUnknownChaincode) {
  EndorserFixture f;
  const auto resp =
      f.endorser->Process(f.MakeProposal("nonexistent", "fn", {}));
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kUnknownChaincode);
}

TEST(Endorser, PropagatesChaincodeError) {
  EndorserFixture f;
  const auto resp =
      f.endorser->Process(f.MakeProposal("token", "balance", {"ghost"}));
  EXPECT_EQ(resp.payload.status, proto::EndorseStatus::kChaincodeError);
}

TEST(Endorser, CostIncludesChaincodeExecution) {
  EndorserFixture f;
  const auto& cal = fabric::DefaultCalibration();
  const auto sp = f.MakeProposal("kvwrite", "write", {"k", "v"});
  const auto cost = f.endorser->CostOf(sp, cal);
  EXPECT_GT(cost, cal.endorse_check_cpu + cal.endorse_sign_cpu);
}

}  // namespace
}  // namespace fabricsim::peer
