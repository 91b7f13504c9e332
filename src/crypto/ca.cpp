#include "crypto/ca.h"

namespace fabricsim::crypto {

CertificateAuthority::CertificateAuthority(std::string msp_id)
    : msp_id_(std::move(msp_id)),
      root_keys_(KeyPair::Derive("ca-root:" + msp_id_)) {}

Identity CertificateAuthority::Enroll(const std::string& subject,
                                      Role role) const {
  KeyPair member_keys = KeyPair::Derive(msp_id_ + "/" + subject);
  Certificate cert;
  cert.subject = subject;
  cert.msp_id = msp_id_;
  cert.role = role;
  cert.subject_public_key = member_keys.PublicKey();
  cert.issuer_public_key = root_keys_.PublicKey();
  const proto::Bytes body = cert.SignedBody();
  cert.issuer_signature = root_keys_.Sign(body);
  return Identity(std::move(cert), std::move(member_keys));
}

bool CertificateAuthority::VerifyCertificate(const Certificate& cert) const {
  if (cert.msp_id != msp_id_) return false;
  if (cert.issuer_public_key != root_keys_.PublicKey()) return false;
  return Verify(root_keys_.PublicKey(), cert.SignedBody(),
                cert.issuer_signature);
}

const CertificateAuthority& MspRegistry::AddOrganization(
    const std::string& msp_id) {
  auto it = cas_.find(msp_id);
  if (it == cas_.end()) {
    it = cas_.emplace(msp_id, std::make_unique<CertificateAuthority>(msp_id))
             .first;
  }
  return *it->second;
}

const CertificateAuthority* MspRegistry::Find(const std::string& msp_id) const {
  auto it = cas_.find(msp_id);
  return it == cas_.end() ? nullptr : it->second.get();
}

bool MspRegistry::ValidateCertificate(const Certificate& cert) const {
  const CertificateAuthority* ca = Find(cert.msp_id);
  return ca != nullptr && ca->VerifyCertificate(cert);
}

const Certificate* MspRegistry::CachedCertificate(
    proto::BytesView cert_bytes) const {
  const std::string_view key = proto::AsStringView(cert_bytes);
  if (auto it = cert_cache_.find(key); it != cert_cache_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  // Map nodes are stable and never erased, so the returned pointer stays
  // valid.
  std::optional<Certificate> parsed = Certificate::Deserialize(cert_bytes);
  if (parsed && !ValidateCertificate(*parsed)) parsed.reset();
  auto it = cert_cache_.try_emplace(std::string(key), std::move(parsed)).first;
  return it->second ? &*it->second : nullptr;
}

bool MspRegistry::ValidateSignature(const Certificate& cert,
                                    proto::BytesView msg,
                                    const Signature& sig) const {
  if (!ValidateCertificate(cert)) return false;
  return Verify(cert.subject_public_key, msg, sig);
}

}  // namespace fabricsim::crypto
