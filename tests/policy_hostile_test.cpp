// Hostile-input tests for the policy layer.
//
// Three attack surfaces: the policy *parser* (malformed strings out of
// config files or fuzzers must error cleanly, never crash or overflow the
// stack), the *evaluator* (principals from unknown or wrong organizations
// must never satisfy a policy), and the *identity layer* VSCC leans on (an
// endorsement set that satisfies the policy only when a forged identity is
// counted must fail the signature half before the policy is consulted).
#include <gtest/gtest.h>

#include <string>

#include "crypto/ca.h"
#include "policy/evaluator.h"
#include "policy/parser.h"
#include "proto/transaction.h"

namespace fabricsim::policy {
namespace {

using crypto::Principal;
using crypto::Role;

TEST(PolicyHostileParser, MalformedStringsErrorCleanly) {
  const char* bad[] = {
      "",
      "AND",
      "AND(",
      "AND()",
      "AND('A.peer'",
      "AND('A.peer',)",
      "OR('A.peer'))",
      "'A.peer",                 // unterminated quote
      "''",                      // empty principal
      "NAND('A.peer','B.peer')", // unknown operator
      "OutOf('A.peer','B.peer')",  // missing threshold
      "OutOf(0,'A.peer')",         // threshold below 1
      "OutOf(3,'A.peer','B.peer')",  // threshold above arity
      "OutOf(99999999999999999999,'A.peer')",  // would overflow int
      "AND('A.peer') trailing",
      "\"A.peer\"",              // wrong quote character
  };
  for (const char* text : bad) {
    const ParseResult r = ParsePolicy(text);
    EXPECT_FALSE(r.Ok()) << "accepted: " << text;
    EXPECT_FALSE(r.error.empty()) << text;
    EXPECT_THROW((void)MustParsePolicy(text), std::invalid_argument) << text;
  }
}

TEST(PolicyHostileParser, NestingBombIsRejectedNotStackOverflow) {
  // 100k nested ANDs would previously recurse 100k frames deep; the parser
  // must refuse at its depth ceiling with a clean error.
  std::string bomb;
  for (int i = 0; i < 100'000; ++i) bomb += "AND(";
  bomb += "'A.peer'";
  for (int i = 0; i < 100'000; ++i) bomb += ")";
  const ParseResult r = ParsePolicy(bomb);
  ASSERT_FALSE(r.Ok());
  EXPECT_NE(r.error.find("deep"), std::string::npos) << r.error;

  // Sane nesting depths stay accepted.
  std::string ok = "'A.peer'";
  for (int i = 0; i < 20; ++i) ok = "AND(" + ok + ")";
  EXPECT_TRUE(ParsePolicy(ok).Ok());
}

TEST(PolicyHostileParser, UnknownPrincipalRolesAreRejected) {
  EXPECT_FALSE(Principal::Parse("Org1MSP.wizard").has_value());
  EXPECT_FALSE(Principal::Parse("Org1MSP.").has_value());
  EXPECT_FALSE(Principal::Parse(".peer").has_value());
  EXPECT_FALSE(Principal::Parse("nodot").has_value());
  EXPECT_FALSE(Principal::Parse("").has_value());
  EXPECT_FALSE(ParsePolicy("'Org1MSP.sudo'").Ok());
}

TEST(PolicyHostileEval, UnknownOrganizationsNeverSatisfy) {
  const auto p = MustParsePolicy("AND('Org1MSP.peer','Org2MSP.peer')");
  // An attacker with any number of identities from unlisted organizations
  // gets nothing, and cannot substitute for a listed one either.
  const std::vector<Principal> mallory = {{"MalloryMSP", Role::kPeer},
                                          {"MalloryMSP", Role::kAdmin},
                                          {"EveMSP", Role::kPeer}};
  EXPECT_FALSE(Satisfied(p, mallory));
  std::vector<Principal> mixed = mallory;
  mixed.push_back({"Org1MSP", Role::kPeer});
  EXPECT_FALSE(Satisfied(p, mixed));  // Org2 still missing
  mixed.push_back({"Org2MSP", Role::kPeer});
  EXPECT_TRUE(Satisfied(p, mixed));
}

TEST(PolicyHostileEval, ClientRoleCannotStandInForPeer) {
  // Role confusion: an Org1 *client* identity must not satisfy the peer
  // principal (only admins escalate).
  const auto p = MustParsePolicy("'Org1MSP.peer'");
  EXPECT_FALSE(Satisfied(p, {{"Org1MSP", Role::kClient}}));
  EXPECT_FALSE(Satisfied(p, {{"Org1MSP", Role::kOrderer}}));
}

TEST(PolicyHostileIdentity, TamperedCertificatesAreRejected) {
  crypto::MspRegistry msps;
  msps.AddOrganization("Org1MSP");
  const crypto::Identity honest =
      msps.Find("Org1MSP")->Enroll("peer0", Role::kPeer);
  ASSERT_TRUE(msps.ValidateCertificate(honest.Cert()));

  // Role escalation: flip peer -> admin in the cert body.
  crypto::Certificate escalated = honest.Cert();
  escalated.role = Role::kAdmin;
  EXPECT_FALSE(msps.ValidateCertificate(escalated));
  EXPECT_EQ(msps.CachedCertificate(escalated.Serialize()), nullptr);

  // Key substitution: attacker swaps in their own public key.
  crypto::Certificate swapped = honest.Cert();
  swapped.subject_public_key = crypto::KeyPair::Derive("mallory").PublicKey();
  EXPECT_FALSE(msps.ValidateCertificate(swapped));
  EXPECT_EQ(msps.CachedCertificate(swapped.Serialize()), nullptr);

  // Unknown organization: a perfectly self-consistent cert chain from a CA
  // the channel never admitted.
  crypto::CertificateAuthority rogue_ca("RogueMSP");
  const crypto::Identity rogue = rogue_ca.Enroll("peer0", Role::kPeer);
  ASSERT_TRUE(rogue_ca.VerifyCertificate(rogue.Cert()));
  EXPECT_FALSE(msps.ValidateCertificate(rogue.Cert()));
  EXPECT_EQ(msps.CachedCertificate(rogue.Cert().Serialize()), nullptr);
}

TEST(PolicyHostileIdentity, EndorsementSetNeedingForgedIdentityFailsVscc) {
  // AND(Org1,Org2) with an honest Org1 endorsement and a forged Org2 one:
  // the attacker holds Org2's certificate (public) but not its signing key,
  // so they sign with their own. VerifiedSigners must reject the whole
  // envelope — the policy never even sees an Org2 principal to count.
  crypto::MspRegistry msps;
  msps.AddOrganization("Org1MSP");
  msps.AddOrganization("Org2MSP");
  msps.AddOrganization("ClientOrgMSP");
  const crypto::Identity client =
      msps.Find("ClientOrgMSP")->Enroll("app0", Role::kClient);
  const crypto::Identity org1_peer =
      msps.Find("Org1MSP")->Enroll("peer0", Role::kPeer);
  const crypto::Identity org2_peer =
      msps.Find("Org2MSP")->Enroll("peer0", Role::kPeer);
  const crypto::KeyPair mallory = crypto::KeyPair::Derive("mallory");

  proto::TransactionEnvelope tx;
  tx.channel_id = "ch";
  tx.tx_id = "tx0";
  tx.creator_cert = client.Cert().Serialize();
  tx.chaincode_id = "cc";
  proto::NsReadWriteSet ns;
  ns.ns = "cc";
  ns.writes.push_back(proto::KVWrite{"k", proto::ToBytes("v"), false});
  tx.rwset.ns_rwsets.push_back(std::move(ns));

  proto::Endorsement honest;
  honest.endorser_cert = org1_peer.Cert().Serialize();
  honest.signature = org1_peer.Sign(tx.EndorsedPayloadBytes());
  tx.endorsements.push_back(honest);

  proto::Endorsement forged;
  forged.endorser_cert = org2_peer.Cert().Serialize();  // real, public cert
  forged.signature = mallory.Sign(tx.EndorsedPayloadBytes());  // wrong key
  tx.endorsements.push_back(forged);

  tx.client_signature = client.Sign(tx.SignedBody());

  EXPECT_FALSE(tx.VerifiedSigners(msps).has_value());

  // Dropping the forgery makes the signature half pass again — but the
  // surviving principals no longer satisfy AND(Org1,Org2).
  proto::TransactionEnvelope honest_only = tx;
  honest_only.endorsements.pop_back();
  honest_only.client_signature = client.Sign(honest_only.SignedBody());
  honest_only.InvalidateCaches();
  const auto& signers = honest_only.VerifiedSigners(msps);
  ASSERT_TRUE(signers.has_value());
  const auto policy =
      MustParsePolicy("AND('Org1MSP.peer','Org2MSP.peer')");
  EXPECT_FALSE(Satisfied(policy, *signers));
}

TEST(PolicyHostileIdentity, FlippedCertificateByteFailsVscc) {
  // The endorser's shared certificate buffer is never written through: a
  // tampered certificate is a new handle over its own bytes, and VSCC
  // rejects it while the honest handle still verifies.
  crypto::MspRegistry msps;
  msps.AddOrganization("Org1MSP");
  msps.AddOrganization("ClientOrgMSP");
  const crypto::Identity client =
      msps.Find("ClientOrgMSP")->Enroll("app0", Role::kClient);
  const crypto::Identity peer =
      msps.Find("Org1MSP")->Enroll("peer0", Role::kPeer);

  proto::TransactionEnvelope tx;
  tx.channel_id = "ch";
  tx.tx_id = "tx0";
  tx.creator_cert = client.SerializedCert();
  tx.chaincode_id = "cc";
  proto::Endorsement honest;
  honest.endorser_cert = peer.SerializedCert();
  honest.signature = peer.Sign(tx.EndorsedPayloadBytes());
  tx.endorsements.push_back(honest);
  tx.Sign(client);
  ASSERT_TRUE(tx.VerifiedSigners(msps).has_value());

  const proto::BytesView original = peer.SerializedCert();
  proto::Bytes flipped(original.begin(), original.end());
  flipped.back() ^= 0x01;  // the CA signature's last byte
  ASSERT_TRUE(crypto::Certificate::Deserialize(flipped).has_value());

  proto::TransactionEnvelope tampered = tx;
  tampered.endorsements[0].endorser_cert = proto::SharedBytes(flipped);
  tampered.Sign(client);
  EXPECT_FALSE(tampered.VerifiedSigners(msps).has_value());

  EXPECT_NE(peer.SerializedCert(), tampered.endorsements[0].endorser_cert);
  EXPECT_NE(msps.CachedCertificate(peer.SerializedCert()), nullptr);
  EXPECT_TRUE(tx.VerifiedSigners(msps).has_value());
}

}  // namespace
}  // namespace fabricsim::policy
