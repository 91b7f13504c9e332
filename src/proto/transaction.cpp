#include "proto/transaction.h"

#include <stdexcept>

#include "crypto/merkle.h"

namespace fabricsim::proto {

std::string ValidationCodeName(ValidationCode c) {
  switch (c) {
    case ValidationCode::kValid:
      return "VALID";
    case ValidationCode::kMvccReadConflict:
      return "MVCC_READ_CONFLICT";
    case ValidationCode::kEndorsementPolicyFailure:
      return "ENDORSEMENT_POLICY_FAILURE";
    case ValidationCode::kBadSignature:
      return "BAD_SIGNATURE";
    case ValidationCode::kDuplicateTxId:
      return "DUPLICATE_TXID";
    case ValidationCode::kBadRwSet:
      return "BAD_RWSET";
    case ValidationCode::kInvalidOtherReason:
      return "INVALID_OTHER_REASON";
  }
  return "UNKNOWN";
}

Bytes TransactionEnvelope::SignedBody() const {
  Writer w;
  w.Str(channel_id);
  w.Str(tx_id);
  w.Blob(creator_cert);
  w.Blob(rwset.Serialize());
  w.Blob(chaincode_result);
  w.Str(chaincode_id);
  w.U32(static_cast<std::uint32_t>(endorsements.size()));
  for (const auto& e : endorsements) w.Blob(e.Serialize());
  w.I64(client_timestamp);
  return w.Take();
}

Bytes TransactionEnvelope::Serialize() const {
  Writer w;
  w.Blob(SignedBody());
  w.Blob(client_signature.bytes);
  return w.Take();
}

TransactionEnvelope::BodyMemo TransactionEnvelope::MemoOf(
    const Bytes& body) const {
  const auto body_prefix = BlobPrefix(body.size());
  const auto sig_prefix = BlobPrefix(client_signature.bytes.size());
  const BytesView parts[] = {body_prefix, body, sig_prefix,
                             client_signature.bytes};
  return BodyMemo{body.size(), crypto::Hash(body),
                  crypto::MerkleTree::HashLeafParts(parts)};
}

const TransactionEnvelope::BodyMemo& TransactionEnvelope::Body() const {
  return body_.Get([this] { return MemoOf(SignedBody()); });
}

void TransactionEnvelope::Sign(const crypto::Identity& client) {
  const Bytes body = SignedBody();
  client_signature = client.Sign(body);
  InvalidateCaches();
  body_.Get([&] { return MemoOf(body); });
}

std::size_t TransactionEnvelope::WireSize() const {
  return kBlobPrefixBytes + Body().body_size + kBlobPrefixBytes +
         client_signature.bytes.size();
}

crypto::Digest TransactionEnvelope::LeafHash() const {
  return Body().leaf_hash;
}

const crypto::Digest& TransactionEnvelope::SignedBodyDigest() const {
  return Body().body_digest;
}

const crypto::Digest& TransactionEnvelope::EndorsedPayloadDigest() const {
  return endorsed_payload_digest_.Get(
      [this] { return crypto::Hash(EndorsedPayload()); });
}

const std::optional<std::vector<crypto::Principal>>&
TransactionEnvelope::VerifiedSigners(const crypto::MspRegistry& msps) const {
  if (signers_.registry == &msps) return signers_.value;

  std::optional<std::vector<crypto::Principal>> fresh;  // nullopt: bad sig
  const crypto::Certificate* client_cert = msps.CachedCertificate(creator_cert);
  if (client_cert != nullptr &&
      crypto::VerifyDigest(client_cert->subject_public_key, SignedBodyDigest(),
                           client_signature)) {
    std::vector<crypto::Principal> signers;
    signers.reserve(endorsements.size());
    const crypto::Digest& endorsed = EndorsedPayloadDigest();
    bool all_ok = true;
    for (const auto& e : endorsements) {
      const crypto::Certificate* cert = msps.CachedCertificate(e.endorser_cert);
      if (cert == nullptr ||
          !crypto::VerifyDigest(cert->subject_public_key, endorsed,
                                e.signature)) {
        all_ok = false;  // nullopt: bad endorsement
        break;
      }
      signers.push_back(crypto::Principal{cert->msp_id, cert->role});
    }
    if (all_ok) fresh = std::move(signers);
  }

  signers_.value = std::move(fresh);
  signers_.registry = &msps;
  return signers_.value;
}

void TransactionEnvelope::InvalidateCaches() const {
  body_.Invalidate();
  endorsed_payload_digest_.Invalidate();
  endorsed_payload_cache_.Invalidate();
  signers_.Reset();
}

std::optional<TransactionEnvelope> TransactionEnvelope::Deserialize(
    BytesView data) {
  try {
    Reader outer(data);
    const Bytes body = outer.Blob();
    const Bytes sig = outer.Blob();

    Reader r(body);
    TransactionEnvelope out;
    out.channel_id = r.Str();
    out.tx_id = r.Str();
    out.creator_cert = r.Blob();
    auto rw = TxReadWriteSet::Deserialize(r.Blob());
    if (!rw) return std::nullopt;
    out.rwset = std::move(*rw);
    out.chaincode_result = r.Blob();
    out.chaincode_id = r.Str();
    const std::uint32_t n = r.U32();
    out.endorsements.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto e = Endorsement::Deserialize(r.Blob());
      if (!e) return std::nullopt;
      out.endorsements.push_back(std::move(*e));
    }
    out.client_timestamp = r.I64();
    out.client_signature = crypto::Signature::FromBytes(sig);
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

Bytes TransactionEnvelope::EndorsedPayload() const {
  // Must match what the endorser signed: the ProposalResponsePayload bytes.
  // The envelope carries the rwset and result; the proposal hash is bound
  // via the tx id (both derive from the same proposal).
  ProposalResponsePayload payload;
  payload.proposal_hash = crypto::HashStr(tx_id);
  payload.rwset = rwset;
  payload.chaincode_result = chaincode_result;
  payload.status = EndorseStatus::kSuccess;
  return payload.Serialize();
}

const Bytes& TransactionEnvelope::EndorsedPayloadBytes() const {
  return endorsed_payload_cache_.Get([this] { return EndorsedPayload(); });
}

}  // namespace fabricsim::proto
