#include "crypto/msp_cache.h"

namespace fabricsim::crypto {

std::atomic<std::uint64_t> MspIdentityCache::global_hits_{0};
std::atomic<std::uint64_t> MspIdentityCache::global_misses_{0};
std::atomic<std::uint64_t> MspIdentityCache::global_evictions_{0};

MspIdentityCache::Result MspIdentityCache::Lookup(proto::BytesView cert_bytes) {
  const std::string_view key = proto::AsStringView(cert_bytes);
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++hits_;
    global_hits_.fetch_add(1, std::memory_order_relaxed);
    return Result{it->second ? &*it->second : nullptr, true};
  }

  ++misses_;
  global_misses_.fetch_add(1, std::memory_order_relaxed);
  if (entries_.size() >= kMaxEntries) {
    evictions_ += entries_.size();
    global_evictions_.fetch_add(entries_.size(), std::memory_order_relaxed);
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
