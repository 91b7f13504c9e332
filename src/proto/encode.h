// The hashing sink for the wire encoders (see proto/bytes.h), and the
// explicit instantiation every wire struct's Encode gets in its .cpp file.
#pragma once

#include <cstdint>
#include <string_view>

#include "crypto/sha256.h"
#include "proto/bytes.h"

namespace fabricsim::proto {

/// Streams an encoding into SHA-256: EncodedDigest(msg) equals
/// crypto::Hash(EncodedBytes(msg)) without building the bytes.
class HashWriter {
 public:
  HashWriter() = default;
  /// Continues a hasher that already absorbed a prefix (e.g. a Merkle leaf
  /// tag).
  explicit HashWriter(const crypto::Sha256& seeded) : hash_(seeded) {}

  void U8(std::uint8_t v) { hash_.Update(BytesView(&v, 1)); }
  void U32(std::uint32_t v) { LittleEndian(v); }
  void U64(std::uint64_t v) { LittleEndian(v); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Blob(BytesView b) {
    U32(static_cast<std::uint32_t>(b.size()));
    hash_.Update(b);
  }
  void Str(std::string_view s) {
    Blob(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  template <typename Msg>
  void Nested(const Msg& msg) {
    U32(static_cast<std::uint32_t>(EncodedSize(msg)));
    msg.Encode(*this);
  }

  crypto::Digest Finalize() { return hash_.Finalize(); }

 private:
  template <typename T>
  void LittleEndian(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    hash_.Update(BytesView(le, sizeof(T)));
  }

  crypto::Sha256 hash_;
};

/// SHA-256 of `msg`'s encoding; allocates nothing.
template <typename Msg>
crypto::Digest EncodedDigest(const Msg& msg) {
  HashWriter out;
  msg.Encode(out);
  return out.Finalize();
}

}  // namespace fabricsim::proto

/// Instantiates an encoding member template (e.g. TxReadWriteSet::Encode)
/// for the three sinks; used once, in the .cpp file that defines it.
#define FABRICSIM_INSTANTIATE_ENCODER(Member)                          \
  template void Member(::fabricsim::proto::Writer&) const;             \
  template void Member(::fabricsim::proto::SizeCounter&) const;        \
  template void Member(::fabricsim::proto::HashWriter&) const
