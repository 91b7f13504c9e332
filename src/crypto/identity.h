// Identities and membership (Fabric MSP model).
//
// Every actor in a Fabric network — client, peer, orderer — holds an
// enrollment certificate issued by its organization's Fabric CA. An identity
// is referenced on the wire as (MSP id, certificate); verifiers resolve the
// MSP id to the organization's root of trust and check the certificate chain
// before checking the actor's signature.
#pragma once

#include <optional>
#include <string>

#include "crypto/signature.h"
#include "proto/bytes.h"

namespace fabricsim::crypto {

/// Roles an identity can carry inside its certificate (Fabric OU roles).
enum class Role : std::uint8_t { kClient = 0, kPeer = 1, kOrderer = 2, kAdmin = 3 };

std::string RoleName(Role r);

/// An enrollment certificate: subject, role, subject public key, issuer, and
/// the issuing CA's signature over the canonical cert body.
struct Certificate {
  std::string subject;   // enrollment id, e.g. "peer0.org1"
  std::string msp_id;    // organization, e.g. "Org1MSP"
  Role role = Role::kClient;
  Digest subject_public_key{};
  Digest issuer_public_key{};
  Signature issuer_signature{};

  /// Canonical bytes of everything the issuer signs.
  [[nodiscard]] proto::Bytes SignedBody() const;

  /// Full canonical serialization (body + issuer signature).
  [[nodiscard]] proto::Bytes Serialize() const;
  static std::optional<Certificate> Deserialize(proto::BytesView data);
};

/// A principal string such as "Org1MSP.peer" used by endorsement policies.
struct Principal {
  std::string msp_id;
  Role role = Role::kPeer;

  bool operator==(const Principal&) const = default;
  [[nodiscard]] std::string ToString() const;
  /// Parses "Org1MSP.peer" / "Org2MSP.client" / "OrdererMSP.orderer".
  static std::optional<Principal> Parse(std::string_view s);
};

/// A full local identity: certificate plus signing key.
class Identity {
 public:
  Identity(Certificate cert, KeyPair keys)
      : cert_(std::move(cert)),
        keys_(std::move(keys)),
        serialized_cert_(cert_.Serialize()) {}

  [[nodiscard]] const Certificate& Cert() const { return cert_; }
  /// Cert().Serialize(), built once: every proposal, endorsement, envelope
  /// and block this identity signs shares the one buffer.
  [[nodiscard]] const proto::SharedBytes& SerializedCert() const {
    return serialized_cert_;
  }
  [[nodiscard]] const std::string& MspId() const { return cert_.msp_id; }
  [[nodiscard]] const std::string& Subject() const { return cert_.subject; }
  [[nodiscard]] const Digest& PublicKey() const {
    return cert_.subject_public_key;
  }

  [[nodiscard]] Signature Sign(proto::BytesView msg) const {
    return keys_.Sign(msg);
  }
  /// Signs a precomputed digest: SignDigest(Hash(m)) == Sign(m).
  [[nodiscard]] Signature SignDigest(const Digest& msg_digest) const {
    return keys_.SignDigest(msg_digest);
  }

  /// True if this identity satisfies the principal (same MSP, same role;
  /// admins satisfy any role of their MSP).
  [[nodiscard]] bool Satisfies(const Principal& p) const;

 private:
  Certificate cert_;
  KeyPair keys_;
  proto::SharedBytes serialized_cert_;
};

}  // namespace fabricsim::crypto
