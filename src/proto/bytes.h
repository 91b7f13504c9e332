// Canonical byte-buffer utilities shared by all wire structures.
//
// fabricsim does not depend on protobuf; every wire structure provides a
// canonical serialization built from these primitives. Serialization serves
// two purposes: (1) realistic wire-size accounting for the simulated network
// and (2) stable byte strings for hashing and signing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fabricsim::proto {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Converts a string to a byte vector.
Bytes ToBytes(std::string_view s);

/// Converts bytes to a std::string (may contain NULs).
std::string ToString(BytesView b);

/// The same bytes viewed as characters, for string-keyed lookups.
inline std::string_view AsStringView(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Hash for string-keyed maps that also accepts std::string_view probes
/// (heterogeneous lookup: find() without allocating a key).
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// An unordered_map keyed by std::string that looks up by string_view.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// An immutable byte buffer shared by handle: copies point at one
/// allocation, so a serialized certificate is stored once per identity
/// however many proposals, endorsements, envelopes and blocks carry it.
/// Reads go through BytesView; equality compares content.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(std::make_shared<const Bytes>(std::move(bytes))) {}

  operator BytesView() const {  // NOLINT(google-explicit-constructor)
    return bytes_ ? BytesView(*bytes_) : BytesView();
  }
  [[nodiscard]] const std::uint8_t* data() const {
    return bytes_ ? bytes_->data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return bytes_ ? bytes_->size() : 0; }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    const BytesView x = a;
    const BytesView y = b;
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  }

 private:
  std::shared_ptr<const Bytes> bytes_;
};

/// Lowercase hex encoding.
std::string ToHex(BytesView b);

/// Appends `src` to `dst`.
void Append(Bytes& dst, BytesView src);

/// Size of the u32 length prefix Writer::Blob and Writer::Str put before
/// each payload.
inline constexpr std::size_t kBlobPrefixBytes = 4;

// Wire encoding. Each wire struct has one encoding routine,
//   template <typename Sink> void Encode(Sink& out) const;
// written against the sink interface below (U8, U32, U64, I64, Blob, Str,
// Nested) and run against three sinks: Writer appends the bytes,
// SizeCounter adds up their length, and proto::HashWriter (proto/encode.h)
// streams them into SHA-256. Nested(msg) writes msg behind its u32 length
// prefix, the bytes Blob(msg's bytes) would write, without building it.

/// Adds up the length of what an encoder writes.
class SizeCounter {
 public:
  void U8(std::uint8_t) { size_ += 1; }
  void U32(std::uint32_t) { size_ += 4; }
  void U64(std::uint64_t) { size_ += 8; }
  void I64(std::int64_t) { size_ += 8; }
  void Blob(BytesView b) { size_ += kBlobPrefixBytes + b.size(); }
  void Str(std::string_view s) { size_ += kBlobPrefixBytes + s.size(); }
  template <typename Msg>
  void Nested(const Msg& msg) {
    size_ += kBlobPrefixBytes;
    msg.Encode(*this);
  }

  [[nodiscard]] std::size_t Size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// The length of `msg`'s encoding; allocates nothing.
template <typename Msg>
std::size_t EncodedSize(const Msg& msg) {
  SizeCounter counter;
  msg.Encode(counter);
  return counter.Size();
}

/// Little-endian canonical encoder. All integers are fixed-width LE; byte
/// strings and strings are length-prefixed with u32.
class Writer {
 public:
  Writer() = default;
  /// Reserves `capacity` bytes up front.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void U8(std::uint8_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Blob(BytesView b);
  void Str(std::string_view s);
  template <typename Msg>
  void Nested(const Msg& msg) {
    U32(static_cast<std::uint32_t>(EncodedSize(msg)));
    msg.Encode(*this);
  }

  [[nodiscard]] const Bytes& Data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  [[nodiscard]] std::size_t Size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// `msg`'s encoding, built in one allocation of the exact size.
template <typename Msg>
Bytes EncodedBytes(const Msg& msg) {
  Writer out(EncodedSize(msg));
  msg.Encode(out);
  return out.Take();
}

/// Lazy memoization slot for logically-immutable wire structures.
///
/// Wire structs are built once and then shared read-only (blocks and
/// envelopes are shared_ptr'd across peers), so derived values — canonical
/// bytes, digests — can be memoized. Copying or copy-assigning a structure
/// RESETS the cache: a copy that is then mutated (e.g. a tampering test)
/// recomputes honestly. Moving carries the memo along with the value it
/// was derived from (every member moves together) and leaves the source
/// cold.
///
/// Not thread-safe: an experiment, and every wire structure it builds, is
/// owned by one host thread. Host parallelism runs whole experiments side by
/// side (src/runner/), and no envelope, block or identity crosses from one
/// to another.
template <typename T>
class CachedValue {
 public:
  CachedValue() = default;
  CachedValue(const CachedValue&) noexcept {}             // do not copy cache
  CachedValue& operator=(const CachedValue&) noexcept {   // reset on assign
    Invalidate();
    return *this;
  }
  CachedValue(CachedValue&& other) noexcept { Take(other); }
  CachedValue& operator=(CachedValue&& other) noexcept {
    if (this != &other) Take(other);
    return *this;
  }

  /// Returns the cached value, computing it via `build` on first use.
  template <typename F>
  const T& Get(F&& build) const {
    if (!cached_) cached_ = build();
    return *cached_;
  }

  void Invalidate() const { cached_.reset(); }

 private:
  void Take(CachedValue& other) noexcept {
    cached_ = std::move(other.cached_);
    other.Invalidate();
  }

  mutable std::optional<T> cached_;
};

/// Matching decoder. Throws std::out_of_range on truncated input.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  Bytes Blob();
  /// The next blob, viewed in place: valid as long as the input is.
  BytesView BlobView();
  std::string Str();

  [[nodiscard]] bool AtEnd() const { return pos_ == data_.size(); }

 private:
  void Need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace fabricsim::proto
