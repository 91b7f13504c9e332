// Canonical byte-buffer utilities shared by all wire structures.
//
// fabricsim does not depend on protobuf; every wire structure provides a
// canonical serialization built from these primitives. Serialization serves
// two purposes: (1) realistic wire-size accounting for the simulated network
// and (2) stable byte strings for hashing and signing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fabricsim::proto {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Converts a string to a byte vector.
Bytes ToBytes(std::string_view s);

/// Converts bytes to a std::string (may contain NULs).
std::string ToString(BytesView b);

/// Lowercase hex encoding.
std::string ToHex(BytesView b);

/// Appends `src` to `dst`.
void Append(Bytes& dst, BytesView src);

/// Little-endian canonical encoder. All integers are fixed-width LE; byte
/// strings and strings are length-prefixed with u32.
class Writer {
 public:
  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Blob(BytesView b);
  void Str(std::string_view s);

  [[nodiscard]] const Bytes& Data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  [[nodiscard]] std::size_t Size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

namespace detail {

/// Global striped locks for CachedValue installs. Stripe by object address:
/// embedding a mutex per cache slot would bloat every wire struct, and
/// installs are rare (once per cached value), so contention is negligible.
inline std::mutex& CacheStripe(const void* p) {
  static std::mutex stripes[64];
  return stripes[(reinterpret_cast<std::uintptr_t>(p) >> 6) & 63];
}

}  // namespace detail

/// Lazy memoization slot for logically-immutable wire structures.
///
/// Wire structs are built once and then shared read-only (blocks and
/// envelopes are shared_ptr'd across peers), so derived values — canonical
/// bytes, digests — can be memoized. Copying or assigning a structure
/// RESETS the cache: a copy that is then mutated (e.g. a tampering test)
/// recomputes honestly.
///
/// Thread-safe for concurrent Get: the committer's --opt-vscc-workers host
/// pool warms envelope memos on pool threads. The fast path is one acquire
/// load; on a miss the value is computed OUTSIDE the lock (build chains
/// may nest — signers over digest over serialized bytes — so holding a
/// stripe while computing could deadlock on stripe ordering) and installed
/// first-writer-wins, which is sound because builds are deterministic
/// functions of the immutable struct, so racing computes produce identical
/// values.
/// Invalidate/copy/assign are NOT concurrency-safe — they belong to
/// single-threaded construction and test phases, per the contract above.
template <typename T>
class CachedValue {
 public:
  CachedValue() = default;
  CachedValue(const CachedValue&) noexcept {}             // do not copy cache
  CachedValue& operator=(const CachedValue&) noexcept {   // reset on assign
    Invalidate();
    return *this;
  }
  CachedValue(CachedValue&&) noexcept {}
  CachedValue& operator=(CachedValue&&) noexcept {
    Invalidate();
    return *this;
  }

  /// Returns the cached value, computing it via `build` on first use.
  template <typename F>
  const T& Get(F&& build) const {
    if (ready_.load(std::memory_order_acquire)) return *cached_;
    T fresh = build();
    std::lock_guard<std::mutex> lock(detail::CacheStripe(this));
    if (!ready_.load(std::memory_order_relaxed)) {
      cached_ = std::move(fresh);
      ready_.store(true, std::memory_order_release);
    }
    return *cached_;
  }

  void Invalidate() const {
    ready_.store(false, std::memory_order_relaxed);
    cached_.reset();
  }

 private:
  mutable std::optional<T> cached_;
  mutable std::atomic<bool> ready_{false};
};

using CachedBytes = CachedValue<Bytes>;

/// Matching decoder. Throws std::out_of_range on truncated input.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  Bytes Blob();
  std::string Str();

  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  void Need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace fabricsim::proto
