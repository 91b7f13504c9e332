#include "peer/endorser.h"

#include "proto/encode.h"

namespace fabricsim::peer {

Endorser::Endorser(const crypto::Identity& identity,
                   const crypto::MspRegistry& msps,
                   const chaincode::Registry& chaincodes,
                   std::function<ledger::StateView()> state,
                   const ledger::BlockStore& store, std::string channel_id)
    : identity_(identity),
      msps_(msps),
      chaincodes_(chaincodes),
      state_(std::move(state)),
      store_(store),
      channel_id_(std::move(channel_id)) {}

proto::ProposalResponse Endorser::Refuse(const std::string& tx_id,
                                         proto::EndorseStatus status) const {
  ++refused_;
  proto::ProposalResponse out;
  out.tx_id = tx_id;
  out.payload.status = status;
  out.payload.proposal_hash = crypto::HashStr(tx_id);
  return out;
}

proto::ProposalResponse Endorser::Process(
    const proto::SignedProposal& sp) const {
  const proto::Proposal& p = sp.proposal;

  // Check 1: well-formed — channel matches, tx id is the canonical hash of
  // (nonce, creator).
  if (p.channel_id != channel_id_) {
    return Refuse(p.tx_id, proto::EndorseStatus::kBadProposal);
  }
  if (p.tx_id != proto::Proposal::ComputeTxId(p.nonce, p.creator_cert)) {
    return Refuse(p.tx_id, proto::EndorseStatus::kBadProposal);
  }

  // Check 3 (signature) and 4 (authorization): the creator certificate must
  // verify against a channel MSP, carry an authorized role, and the client
  // signature over the proposal bytes must check out.
  const crypto::Certificate* cert = msps_.CachedCertificate(p.creator_cert);
  if (cert == nullptr) {
    return Refuse(p.tx_id, proto::EndorseStatus::kBadProposal);
  }
  if (cert->role != crypto::Role::kClient &&
      cert->role != crypto::Role::kAdmin) {
    return Refuse(p.tx_id, proto::EndorseStatus::kUnauthorized);
  }
  if (!crypto::VerifyDigest(cert->subject_public_key, p.SerializedDigest(),
                            sp.client_signature)) {
    return Refuse(p.tx_id, proto::EndorseStatus::kBadProposal);
  }

  // Check 2: no replay of an already-committed transaction.
  if (store_.HasTransaction(p.tx_id)) {
    return Refuse(p.tx_id, proto::EndorseStatus::kDuplicateTxId);
  }

  // Execute the chaincode against local committed state.
  chaincode::Chaincode* cc = chaincodes_.Find(p.invocation.chaincode_id);
  if (cc == nullptr) {
    return Refuse(p.tx_id, proto::EndorseStatus::kUnknownChaincode);
  }
  chaincode::ChaincodeStub stub(state_(), p.invocation.chaincode_id,
                                p.invocation);
  chaincode::Response result = cc->Invoke(stub);
  if (result.status != proto::EndorseStatus::kSuccess) {
    return Refuse(p.tx_id, result.status);
  }

  // ESCC: sign (proposal hash, rwset, result).
  proto::ProposalResponse out;
  out.tx_id = p.tx_id;
  out.payload.proposal_hash = crypto::HashStr(p.tx_id);
  out.payload.rwset = std::move(stub).TakeRwSet();
  out.payload.chaincode_result = std::move(result.payload);
  out.payload.status = proto::EndorseStatus::kSuccess;
  out.endorsement.endorser_cert = identity_.SerializedCert();
  out.endorsement.signature = identity_.SignDigest(proto::EncodedDigest(out.payload));
  if (forge_signatures_) {
    // Forge-endorsement attack: flip a byte so the signature no longer
    // verifies over the payload it claims to endorse.
    out.endorsement.signature.bytes[0] ^= 0xFF;
  }
  ++endorsed_;
  return out;
}

sim::SimDuration Endorser::CostOf(const proto::SignedProposal& sp,
                                  const fabric::Calibration& cal) const {
  sim::SimDuration cost = cal.endorse_check_cpu + cal.endorse_sign_cpu;
  if (const chaincode::Chaincode* cc =
          chaincodes_.Find(sp.proposal.invocation.chaincode_id)) {
    cost += cc->ExecutionCost(sp.proposal.invocation);
  }
  return cost;
}

}  // namespace fabricsim::peer
