// Transaction proposals and endorsements (the execute phase's wire types).
//
// Flow (Fabric v1.4):
//   client -> endorser : SignedProposal
//   endorser -> client : ProposalResponse (simulated rwset + endorsement)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/identity.h"
#include "crypto/sha256.h"
#include "proto/bytes.h"
#include "proto/rwset.h"
#include "sim/time.h"

namespace fabricsim::proto {

/// What the client wants executed.
struct ChaincodeInvocation {
  std::string chaincode_id;
  std::string function;
  std::vector<Bytes> args;

  template <typename Sink>
  void Encode(Sink& out) const;
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<ChaincodeInvocation> Deserialize(BytesView data);
};

/// An unsigned proposal. The tx id is SHA-256(nonce || creator cert), as in
/// Fabric, so it is unpredictable and client-bound.
struct Proposal {
  std::string channel_id;
  std::string tx_id;
  Bytes nonce;
  SharedBytes creator_cert;  // serialized crypto::Certificate
  ChaincodeInvocation invocation;
  sim::SimTime client_timestamp = 0;

  template <typename Sink>
  void Encode(Sink& out) const;
  /// Fresh canonical bytes: what the client signs.
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  /// SHA-256 of Serialize(), memoized (signatures are digest-based).
  [[nodiscard]] const crypto::Digest& SerializedDigest() const;
  static std::optional<Proposal> Deserialize(BytesView data);

  /// Computes the canonical tx id for (nonce, creator).
  static std::string ComputeTxId(BytesView nonce, BytesView creator_cert);

 private:
  CachedValue<crypto::Digest> serialized_digest_;
};

/// A proposal plus the client's signature over its bytes.
struct SignedProposal {
  Proposal proposal;
  crypto::Signature client_signature{};

  template <typename Sink>
  void Encode(Sink& out) const;
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<SignedProposal> Deserialize(BytesView data);
  [[nodiscard]] std::size_t WireSize() const { return EncodedSize(*this); }
};

/// Endorser response status (mirrors Fabric's shim status codes).
enum class EndorseStatus : std::uint8_t {
  kSuccess = 0,
  kBadProposal = 1,      // malformed / bad client signature
  kUnauthorized = 2,     // client not allowed on channel
  kDuplicateTxId = 3,    // replayed proposal
  kChaincodeError = 4,   // chaincode returned failure
  kUnknownChaincode = 5,
  kServiceUnavailable = 6,  // endorser overloaded, retry later (shim 503)
};

std::string EndorseStatusName(EndorseStatus s);

/// The payload the endorser signs: binds proposal hash, rwset, and result.
struct ProposalResponsePayload {
  crypto::Digest proposal_hash{};
  TxReadWriteSet rwset;
  Bytes chaincode_result;
  EndorseStatus status = EndorseStatus::kSuccess;

  template <typename Sink>
  void Encode(Sink& out) const {
    EncodeFields(out, proposal_hash, rwset, chaincode_result, status);
  }
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<ProposalResponsePayload> Deserialize(BytesView data);

  /// The payload's encoding from its parts, for holders of the same fields
  /// that re-derive what the endorser signed (TransactionEnvelope).
  template <typename Sink>
  static void EncodeFields(Sink& out, const crypto::Digest& proposal_hash,
                           const TxReadWriteSet& rwset, BytesView result,
                           EndorseStatus status) {
    out.Blob(proposal_hash);
    out.Nested(rwset);
    out.Blob(result);
    out.U8(static_cast<std::uint8_t>(status));
  }
};

/// One endorsement: who signed and their signature over the payload bytes.
struct Endorsement {
  SharedBytes endorser_cert;  // serialized crypto::Certificate
  crypto::Signature signature{};

  bool operator==(const Endorsement&) const = default;
  template <typename Sink>
  void Encode(Sink& out) const {
    out.Blob(endorser_cert);
    out.Blob(signature.bytes);
  }
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<Endorsement> Deserialize(BytesView data);
};

/// The endorser's reply to the client.
struct ProposalResponse {
  std::string tx_id;
  ProposalResponsePayload payload;
  Endorsement endorsement;

  template <typename Sink>
  void Encode(Sink& out) const {
    out.Str(tx_id);
    out.Nested(payload);
    out.Nested(endorsement);
  }
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<ProposalResponse> Deserialize(BytesView data);
  [[nodiscard]] std::size_t WireSize() const { return EncodedSize(*this); }
};

}  // namespace fabricsim::proto
