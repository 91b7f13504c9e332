#include "proto/transaction.h"

#include <stdexcept>

#include "crypto/merkle.h"
#include "proto/encode.h"

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

namespace {

// Adapters that give an envelope's signed body and endorsed payload the
// Encode interface, so Nested and the helpers in proto/bytes.h take them.
struct SignedBodyOf {
  const TransactionEnvelope& env;
  template <typename Sink>
  void Encode(Sink& out) const {
    env.EncodeBody(out);
  }
};

// Must match what the endorser signed: the ProposalResponsePayload bytes.
// The envelope carries the rwset and result; the proposal hash is bound via
// the tx id (both derive from the same proposal).
struct EndorsedPayloadOf {
  const TransactionEnvelope& env;
  template <typename Sink>
  void Encode(Sink& out) const {
    ProposalResponsePayload::EncodeFields(out, crypto::HashStr(env.tx_id),
                                          env.rwset, env.chaincode_result,
                                          EndorseStatus::kSuccess);
  }
};

}  // namespace

template <typename Sink>
void TransactionEnvelope::EncodeBody(Sink& w) const {
  w.Str(channel_id);
  w.Str(tx_id);
  w.Blob(creator_cert);
  w.Nested(rwset);
  w.Blob(chaincode_result);
  w.Str(chaincode_id);
  w.U32(static_cast<std::uint32_t>(endorsements.size()));
  for (const auto& e : endorsements) w.Nested(e);
  w.I64(client_timestamp);
}

template <typename Sink>
void TransactionEnvelope::Encode(Sink& w) const {
  w.Nested(SignedBodyOf{*this});
  w.Blob(client_signature.bytes);
}
FABRICSIM_INSTANTIATE_ENCODER(TransactionEnvelope::EncodeBody);
FABRICSIM_INSTANTIATE_ENCODER(TransactionEnvelope::Encode);

Bytes TransactionEnvelope::SignedBody() const {
  return EncodedBytes(SignedBodyOf{*this});
}

TransactionEnvelope::BodyMemo TransactionEnvelope::MemoOf(
    std::size_t body_size, const crypto::Digest& body_digest) const {
  // The leaf hash covers Serialize(): the framed body, then the signature.
  HashWriter leaf(crypto::MerkleTree::LeafHasher());
  leaf.U32(static_cast<std::uint32_t>(body_size));
  EncodeBody(leaf);
  leaf.Blob(client_signature.bytes);
  return BodyMemo{body_size, body_digest, leaf.Finalize()};
}

const TransactionEnvelope::BodyMemo& TransactionEnvelope::Body() const {
  return body_.Get([this] {
    const SignedBodyOf body{*this};
    return MemoOf(EncodedSize(body), EncodedDigest(body));
  });
}

void TransactionEnvelope::Sign(const crypto::Identity& client) {
  const SignedBodyOf body{*this};
  const std::size_t body_size = EncodedSize(body);
  const crypto::Digest body_digest = EncodedDigest(body);
  client_signature = client.SignDigest(body_digest);
  InvalidateCaches();
  body_.Get([&] { return MemoOf(body_size, body_digest); });
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
      [this] { return EncodedDigest(EndorsedPayloadOf{*this}); });
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

const Bytes& TransactionEnvelope::EndorsedPayloadBytes() const {
  return endorsed_payload_cache_.Get(
      [this] { return EncodedBytes(EndorsedPayloadOf{*this}); });
}

}  // namespace fabricsim::proto
