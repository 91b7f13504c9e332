// Empty stand-in for the deleted signature-verification cache.
//
// crypto::VerifyDigest recomputes every verification and keeps no state.
// perfbench/fabricsim_perfbench.cpp is the only reader of this header: it
// still toggles the cache and reads its counters. The counters are always 0
// and SetEnabled does nothing. The next change to the benchmark deletes this
// header together with perfbench's crypto.verify_cache.* rows. Nothing else
// may include it.
#pragma once

#include <cstdint>

namespace fabricsim::crypto {

class VerifyCache {
 public:
  static VerifyCache& Instance() {
    static VerifyCache cache;
    return cache;
  }

  void SetEnabled(bool /*on*/) {}
  [[nodiscard]] std::uint64_t Hits() const { return 0; }
  [[nodiscard]] std::uint64_t Misses() const { return 0; }
  [[nodiscard]] std::uint64_t Evictions() const { return 0; }
};

}  // namespace fabricsim::crypto
