// Deterministic signature scheme with calibrated costs.
//
// The paper's bottleneck analysis hinges on the *CPU cost* of ECDSA-P256
// signing and verification inside ESCC/VSCC, not on the elliptic-curve
// algebra itself. We substitute a deterministic keyed-hash scheme whose
// verification genuinely fails for a wrong key, message, or tampered
// signature, and expose nominal sign/verify CPU costs that the simulation
// charges wherever Fabric would perform the real operation.
//
// NOT cryptographically secure (a verifier could forge); security is out of
// scope for a performance reproduction and documented in DESIGN.md.
#pragma once

#include <string>

#include "crypto/sha256.h"
#include "proto/bytes.h"
#include "sim/time.h"

namespace fabricsim::crypto {

/// A 64-byte signature (same size as an ECDSA-P256 r||s pair).
struct Signature {
  std::array<std::uint8_t, 64> bytes{};

  bool operator==(const Signature&) const = default;
  [[nodiscard]] proto::Bytes ToBytes() const {
    return proto::Bytes(bytes.begin(), bytes.end());
  }
  static Signature FromBytes(proto::BytesView b);
};

/// A deterministic key pair. The public key identifies the signer; the
/// private key never leaves the owner.
class KeyPair {
 public:
  /// Derives a key pair deterministically from a seed string (e.g. the
  /// enrollment id). Deterministic derivation keeps runs reproducible.
  static KeyPair Derive(std::string_view seed);

  [[nodiscard]] const Digest& PublicKey() const { return public_key_; }

  /// Signs `msg` (digest-then-sign, like ECDSA).
  [[nodiscard]] Signature Sign(proto::BytesView msg) const;

  /// Signs a precomputed message digest. `Sign(m) == SignDigest(Hash(m))`.
  [[nodiscard]] Signature SignDigest(const Digest& msg_digest) const;

 private:
  KeyPair() = default;
  Digest private_key_{};
  Digest public_key_{};
  // Keystream binder precomputed at derivation: signing pays two hashes
  // instead of three.
  Digest binder_{};
};

/// Verifies `sig` over `msg` under `public_key`.
bool Verify(const Digest& public_key, proto::BytesView msg,
            const Signature& sig);

/// Digest-level verification; callers that verify the same bytes many times
/// (every peer re-validates every envelope) memoize the digest. A pure
/// function: every call recomputes the signature, and no state is shared
/// between callers or threads.
bool VerifyDigest(const Digest& public_key, const Digest& msg_digest,
                  const Signature& sig);

/// Nominal CPU costs on the baseline machine (i7-2600), calibrated to
/// OpenSSL ECDSA-P256 figures of that era plus Fabric's Go-runtime and
/// envelope-unmarshalling overheads around each operation.
sim::SimDuration SignCost();
sim::SimDuration VerifyCost();

}  // namespace fabricsim::crypto
