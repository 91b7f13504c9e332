// Fabric Certificate Authority and MSP trust store.
//
// Each organization runs a CA that enrolls its members. Verifiers hold an
// `MspRegistry` mapping MSP ids to CA roots of trust, mirroring how Fabric
// channel configuration distributes MSP root certificates.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "crypto/identity.h"

namespace fabricsim::crypto {

/// An organization's certificate authority.
class CertificateAuthority {
 public:
  /// Creates the CA for `msp_id`; its root key pair is derived from the id
  /// so independently constructed registries agree.
  explicit CertificateAuthority(std::string msp_id);

  [[nodiscard]] const std::string& MspId() const { return msp_id_; }
  [[nodiscard]] const Digest& RootPublicKey() const {
    return root_keys_.PublicKey();
  }

  /// Enrolls a member: derives the member key pair, issues and signs the
  /// certificate, and returns the complete identity.
  [[nodiscard]] Identity Enroll(const std::string& subject, Role role) const;

  /// Checks that `cert` was issued by this CA and is untampered.
  [[nodiscard]] bool VerifyCertificate(const Certificate& cert) const;

 private:
  std::string msp_id_;
  KeyPair root_keys_;
};

/// Trust store used by every verifier on a channel.
class MspRegistry {
 public:
  /// Registers an organization; creates its CA if not present.
  const CertificateAuthority& AddOrganization(const std::string& msp_id);

  [[nodiscard]] const CertificateAuthority* Find(
      const std::string& msp_id) const;

  /// Full identity validation: known MSP, valid issuer signature, issuer key
  /// matches the registered CA root.
  [[nodiscard]] bool ValidateCertificate(const Certificate& cert) const;

  /// Validates a signature made by the holder of `cert` over `msg`,
  /// including certificate validation.
  [[nodiscard]] bool ValidateSignature(const Certificate& cert,
                                       proto::BytesView msg,
                                       const Signature& sig) const;

  /// Deserializes and fully validates a serialized certificate, memoizing
  /// the result by its bytes — Fabric's MSP deserialized-identity cache.
  /// Returns nullptr for unknown/invalid certificates (also memoized).
  /// Entries are node-stable, so returned pointers survive later inserts.
  /// Not thread-safe: a registry belongs to the one host thread that runs
  /// its experiment.
  [[nodiscard]] const Certificate* CachedCertificate(
      proto::BytesView cert_bytes) const;

  [[nodiscard]] std::size_t OrganizationCount() const { return cas_.size(); }
  [[nodiscard]] std::size_t IdentityCacheSize() const {
    return cert_cache_.size();
  }

 private:
  std::unordered_map<std::string, std::unique_ptr<CertificateAuthority>> cas_;
  // Identity cache: serialized cert bytes -> validated cert (or nullopt).
  // Probed by string_view, so a hit allocates nothing.
  mutable proto::StringMap<std::optional<Certificate>> cert_cache_;
};

}  // namespace fabricsim::crypto
