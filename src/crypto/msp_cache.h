// Per-committer MSP identity-verification cache (Thakkar et al.,
// arXiv:1805.11390, "MSP cache").
//
// VSCC re-verifies the same handful of identities on every transaction:
// deserialize the creator/endorser certificate, walk its chain to the org's
// root CA, check the CA signature. Thakkar et al. cache the verified
// identity so later transactions pay only the ECDSA signature check. This
// class models that cache *per committer*: a hit here changes the
// committer's SIMULATED cost (Calibration::vscc_cached_*), so the cache
// content must be deterministic — it is, because lookups happen only on the
// single-threaded DES path, in block/tx order.
//
// Poisoning discipline (PR 8): the key is the FULL serialized certificate —
// no digest truncation — so a forged certificate can never alias onto an
// honestly cached identity, and an invalid certificate is cached as invalid
// (nullopt), never upgraded. Validation itself is MspRegistry::
// ValidateCertificate: msp-id → root-of-trust → CA signature over the cert
// body, i.e. the cached verdict binds identity + cert chain.
//
// The committer creates one only under --opt-msp-cache; without the knob
// there is no cache and every VSCC job pays the uncached cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "crypto/ca.h"
#include "proto/bytes.h"

namespace fabricsim::crypto {

class MspIdentityCache {
 public:
  explicit MspIdentityCache(const MspRegistry& msps) : msps_(msps) {}

  struct Result {
    /// Verified certificate, or nullptr if the bytes do not deserialize to
    /// a certificate the registry's CAs vouch for. Points into the cache
    /// (valid until the next Lookup) or into the registry's own memo.
    const Certificate* cert = nullptr;
    /// True iff the verdict came from this cache (the caller charges the
    /// cheaper vscc_cached_* simulated cost only then).
    bool hit = false;
  };

  /// Looks up / verifies the identity serialized in `cert_bytes`.
  Result Lookup(proto::BytesView cert_bytes);

  /// Entries before a wholesale clear (identities are few — orgs × members —
  /// so this is a safety bound, not a working-set tuner).
  static constexpr std::size_t kMaxEntries = 4096;

  [[nodiscard]] std::uint64_t Hits() const { return hits_; }
  [[nodiscard]] std::uint64_t Misses() const { return misses_; }
  /// Entries dropped by wholesale clears when the bound is reached.
  [[nodiscard]] std::uint64_t Evictions() const { return evictions_; }
  [[nodiscard]] std::size_t Size() const { return entries_.size(); }

  // Process-wide aggregates across every committer's cache, for the bench
  // JSON host subtree (under parallel sweeps the totals include every
  // concurrently running experiment).
  [[nodiscard]] static std::uint64_t GlobalHits() {
    return global_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t GlobalMisses() {
    return global_misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t GlobalEvictions() {
    return global_evictions_.load(std::memory_order_relaxed);
  }
  static void ResetGlobalStats() {
    global_hits_.store(0, std::memory_order_relaxed);
    global_misses_.store(0, std::memory_order_relaxed);
    global_evictions_.store(0, std::memory_order_relaxed);
  }

 private:
  const MspRegistry& msps_;
  // Full cert bytes -> verified cert (nullopt = verified invalid). The full
  // key means a hash collision can only slow a lookup, never flip it.
  std::unordered_map<std::string, std::optional<Certificate>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;

  static std::atomic<std::uint64_t> global_hits_;
  static std::atomic<std::uint64_t> global_misses_;
  static std::atomic<std::uint64_t> global_evictions_;
};

}  // namespace fabricsim::crypto
