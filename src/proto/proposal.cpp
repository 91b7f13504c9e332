#include "proto/proposal.h"

#include <stdexcept>

#include "proto/encode.h"

namespace fabricsim::proto {

template <typename Sink>
void ChaincodeInvocation::Encode(Sink& w) const {
  w.Str(chaincode_id);
  w.Str(function);
  w.U32(static_cast<std::uint32_t>(args.size()));
  for (const auto& a : args) w.Blob(a);
}
FABRICSIM_INSTANTIATE_ENCODER(ChaincodeInvocation::Encode);

std::optional<ChaincodeInvocation> ChaincodeInvocation::Deserialize(
    BytesView data) {
  try {
    Reader r(data);
    ChaincodeInvocation out;
    out.chaincode_id = r.Str();
    out.function = r.Str();
    const std::uint32_t n = r.U32();
    out.args.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.args.push_back(r.Blob());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

template <typename Sink>
void Proposal::Encode(Sink& w) const {
  w.Str(channel_id);
  w.Str(tx_id);
  w.Blob(nonce);
  w.Blob(creator_cert);
  w.Nested(invocation);
  w.I64(client_timestamp);
}
FABRICSIM_INSTANTIATE_ENCODER(Proposal::Encode);

const crypto::Digest& Proposal::SerializedDigest() const {
  return serialized_digest_.Get([this] { return EncodedDigest(*this); });
}

std::optional<Proposal> Proposal::Deserialize(BytesView data) {
  try {
    Reader r(data);
    Proposal out;
    out.channel_id = r.Str();
    out.tx_id = r.Str();
    out.nonce = r.Blob();
    out.creator_cert = r.Blob();
    auto inv = ChaincodeInvocation::Deserialize(r.Blob());
    if (!inv) return std::nullopt;
    out.invocation = std::move(*inv);
    out.client_timestamp = r.I64();
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::string Proposal::ComputeTxId(BytesView nonce, BytesView creator_cert) {
  crypto::Sha256 h;
  h.Update(nonce);
  h.Update(creator_cert);
  return crypto::DigestHex(h.Finalize());
}

template <typename Sink>
void SignedProposal::Encode(Sink& w) const {
  w.Nested(proposal);
  w.Blob(client_signature.bytes);
}
FABRICSIM_INSTANTIATE_ENCODER(SignedProposal::Encode);

std::optional<SignedProposal> SignedProposal::Deserialize(BytesView data) {
  try {
    Reader r(data);
    SignedProposal out;
    auto p = Proposal::Deserialize(r.Blob());
    if (!p) return std::nullopt;
    out.proposal = std::move(*p);
    out.client_signature = crypto::Signature::FromBytes(r.Blob());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::string EndorseStatusName(EndorseStatus s) {
  switch (s) {
    case EndorseStatus::kSuccess:
      return "SUCCESS";
    case EndorseStatus::kBadProposal:
      return "BAD_PROPOSAL";
    case EndorseStatus::kUnauthorized:
      return "UNAUTHORIZED";
    case EndorseStatus::kDuplicateTxId:
      return "DUPLICATE_TXID";
    case EndorseStatus::kChaincodeError:
      return "CHAINCODE_ERROR";
    case EndorseStatus::kUnknownChaincode:
      return "UNKNOWN_CHAINCODE";
    case EndorseStatus::kServiceUnavailable:
      return "SERVICE_UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::optional<ProposalResponsePayload> ProposalResponsePayload::Deserialize(
    BytesView data) {
  try {
    Reader r(data);
    ProposalResponsePayload out;
    const Bytes hash = r.Blob();
    if (hash.size() != out.proposal_hash.size()) return std::nullopt;
    std::copy(hash.begin(), hash.end(), out.proposal_hash.begin());
    auto rw = TxReadWriteSet::Deserialize(r.Blob());
    if (!rw) return std::nullopt;
    out.rwset = std::move(*rw);
    out.chaincode_result = r.Blob();
    out.status = static_cast<EndorseStatus>(r.U8());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::optional<Endorsement> Endorsement::Deserialize(BytesView data) {
  try {
    Reader r(data);
    Endorsement out;
    out.endorser_cert = r.Blob();
    out.signature = crypto::Signature::FromBytes(r.Blob());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::optional<ProposalResponse> ProposalResponse::Deserialize(BytesView data) {
  try {
    Reader r(data);
    ProposalResponse out;
    out.tx_id = r.Str();
    auto pl = ProposalResponsePayload::Deserialize(r.Blob());
    if (!pl) return std::nullopt;
    out.payload = std::move(*pl);
    auto en = Endorsement::Deserialize(r.Blob());
    if (!en) return std::nullopt;
    out.endorsement = std::move(*en);
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

}  // namespace fabricsim::proto
