// Transaction envelopes (the order/validate phases' wire type) and
// validation codes.
//
// After collecting enough endorsements the client assembles an envelope:
// the proposal payload, the agreed rwset, all endorsements, and the client
// signature. The envelope is what the ordering service sequences into blocks
// and what committing peers validate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ca.h"
#include "crypto/identity.h"
#include "proto/proposal.h"
#include "proto/rwset.h"

namespace fabricsim::proto {

/// Mirrors Fabric's TxValidationCode values used in block metadata.
enum class ValidationCode : std::uint8_t {
  kValid = 0,
  kMvccReadConflict = 11,
  kEndorsementPolicyFailure = 10,
  kBadSignature = 4,
  kDuplicateTxId = 20,
  kBadRwSet = 22,
  kInvalidOtherReason = 255,
};

std::string ValidationCodeName(ValidationCode c);

/// The transaction envelope submitted to ordering.
///
/// Ownership: an envelope is immutable once the client signs it. The
/// client's EnvelopePtr is the only copy of the transaction — broadcast
/// messages, Kafka records, cut batches, blocks and block stores all share
/// it. Code that needs a different envelope (Byzantine tampering, tests)
/// clones it first (see EnvelopeList::Mutable in proto/block.h).
struct TransactionEnvelope {
  std::string channel_id;
  std::string tx_id;
  SharedBytes creator_cert;  // serialized client crypto::Certificate
  TxReadWriteSet rwset;
  Bytes chaincode_result;
  std::string chaincode_id;
  std::vector<Endorsement> endorsements;
  crypto::Signature client_signature{};
  sim::SimTime client_timestamp = 0;

  /// Writes the canonical bytes the client signs (everything but the
  /// signature) to `out`.
  template <typename Sink>
  void EncodeBody(Sink& out) const;
  /// Fresh canonical bytes the client signs. The envelope keeps only the
  /// size and digests of its body, streamed from EncodeBody.
  [[nodiscard]] Bytes SignedBody() const;

  /// Sets client_signature to client.Sign(SignedBody()) and fills the size
  /// and hash memo, all without building the body.
  void Sign(const crypto::Identity& client);

  /// Writes blob(SignedBody()) || blob(signature) to `out`.
  template <typename Sink>
  void Encode(Sink& out) const;
  /// Fresh canonical bytes. The simulation never builds them; sizes and
  /// hashes come from the memo (WireSize, LeafHash).
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<TransactionEnvelope> Deserialize(BytesView data);

  /// Serialize().size(), from the memoized body size.
  [[nodiscard]] std::size_t WireSize() const;

  /// crypto::MerkleTree::HashLeaf(Serialize()), memoized.
  [[nodiscard]] crypto::Digest LeafHash() const;

  /// Bytes each endorser signed for this envelope's rwset/result, memoized
  /// on first call for the envelope's lifetime. The simulation never calls
  /// it (VSCC uses EndorsedPayloadDigest); tests and tools do.
  [[nodiscard]] const Bytes& EndorsedPayloadBytes() const;

  /// SHA-256 of SignedBody(), memoized — every peer re-verifies the client
  /// signature, and signatures are digest-based (as in ECDSA).
  [[nodiscard]] const crypto::Digest& SignedBodyDigest() const;

  /// SHA-256 of the endorsed payload, memoized for VSCC from a temporary
  /// build (it does not fill EndorsedPayloadBytes).
  [[nodiscard]] const crypto::Digest& EndorsedPayloadDigest() const;

  /// Policy-independent half of VSCC, memoized on the shared envelope:
  /// validates the client signature and every endorsement signature against
  /// `msps` (identity cache + digest-level verify) and yields the verified
  /// endorser principals — or nullopt if any signature fails. Every peer
  /// validates every envelope, and the verdict over the same immutable
  /// bytes and the same trust registry is identical, so recomputation is
  /// pure redundancy; the result is recomputed if a different registry is
  /// passed, and copies/InvalidateCaches() reset it.
  [[nodiscard]] const std::optional<std::vector<crypto::Principal>>&
  VerifiedSigners(const crypto::MspRegistry& msps) const;

  /// Drops the memos after an in-place mutation (tests).
  void InvalidateCaches() const;

 private:
  // What one build of the signed body yields; the body itself is freed.
  // The leaf hash covers the client signature: sign through Sign(), or call
  // InvalidateCaches() after assigning client_signature.
  struct BodyMemo {
    std::size_t body_size = 0;
    crypto::Digest body_digest{};
    crypto::Digest leaf_hash{};
  };
  // Fills the memo from `body_size` and `body_digest` and the signature.
  BodyMemo MemoOf(std::size_t body_size,
                  const crypto::Digest& body_digest) const;
  const BodyMemo& Body() const;

  CachedValue<BodyMemo> body_;
  CachedValue<crypto::Digest> endorsed_payload_digest_;
  CachedValue<Bytes> endorsed_payload_cache_;  // EndorsedPayloadBytes() only

  // Signer-verification memo with the same copy-resets semantics as
  // CachedValue (a mutated copy must re-verify honestly). `registry` is the
  // trust registry `value` was computed against, or null while cold, so
  // negative results (nullopt value with the registry set) stay cached.
  // Like CachedValue it is not thread-safe: the envelope belongs to the one
  // host thread that runs its experiment.
  struct SignerCache {
    SignerCache() = default;
    SignerCache(const SignerCache&) noexcept {}
    SignerCache& operator=(const SignerCache&) noexcept {
      Reset();
      return *this;
    }
    SignerCache(SignerCache&&) noexcept {}
    SignerCache& operator=(SignerCache&&) noexcept {
      Reset();
      return *this;
    }
    void Reset() const {
      registry = nullptr;
      value.reset();
    }
    mutable const void* registry = nullptr;
    mutable std::optional<std::vector<crypto::Principal>> value;
  };
  SignerCache signers_;
};

/// A signed envelope, shared read-only from broadcast to ledger.
using EnvelopePtr = std::shared_ptr<const TransactionEnvelope>;

}  // namespace fabricsim::proto
