#include "crypto/msp_cache.h"

namespace fabricsim::crypto {

MspIdentityCache::Result MspIdentityCache::Lookup(proto::BytesView cert_bytes) {
  const std::string_view key = proto::AsStringView(cert_bytes);
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    return Result{it->second ? &*it->second : nullptr, true};
  }

  ++misses_;
  if (entries_.size() >= kMaxEntries) {
    evictions_ += entries_.size();
    entries_.clear();
  }

  // Verify honestly: deserialize, then identity + chain via the registry
  // (msp id -> root CA -> CA signature over the cert body). An invalid
  // certificate is cached as invalid — a forged cert can only ever install
  // or hit a negative entry under its own full-bytes key.
  std::optional<Certificate> parsed = Certificate::Deserialize(cert_bytes);
  if (parsed && !msps_.ValidateCertificate(*parsed)) parsed.reset();
  auto it = entries_.try_emplace(std::string(key), std::move(parsed)).first;
  return Result{it->second ? &*it->second : nullptr, false};
}

}  // namespace fabricsim::crypto
