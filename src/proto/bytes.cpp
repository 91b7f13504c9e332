#include "proto/bytes.h"

#include <stdexcept>

namespace fabricsim::proto {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string ToHex(BytesView b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t c : b) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

void Append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void Writer::U8(std::uint8_t v) { buf_.push_back(v); }

namespace {

template <typename T>
std::array<std::uint8_t, sizeof(T)> LittleEndian(T v) {
  std::array<std::uint8_t, sizeof(T)> le;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return le;
}

}  // namespace

void Writer::U32(std::uint32_t v) { Append(buf_, LittleEndian(v)); }

void Writer::U64(std::uint64_t v) { Append(buf_, LittleEndian(v)); }

void Writer::Blob(BytesView b) {
  U32(static_cast<std::uint32_t>(b.size()));
  Append(buf_, b);
}

void Writer::Str(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Reader::Need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw std::out_of_range("fabricsim::proto::Reader: truncated input");
  }
}

std::uint8_t Reader::U8() {
  Need(1);
  return data_[pos_++];
}

std::uint32_t Reader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Reader::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Bytes Reader::Blob() {
  const BytesView blob = BlobView();
  return Bytes(blob.begin(), blob.end());
}

BytesView Reader::BlobView() {
  const std::uint32_t n = U32();
  Need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::Str() {
  const std::uint32_t n = U32();
  Need(n);
  std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return out;
}

}  // namespace fabricsim::proto
