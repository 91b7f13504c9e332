#include "proto/rwset.h"

#include <algorithm>
#include <stdexcept>

#include "proto/encode.h"

namespace fabricsim::proto {

template <typename Sink>
void TxReadWriteSet::Encode(Sink& w) const {
  w.U32(static_cast<std::uint32_t>(ns_rwsets.size()));
  for (const auto& ns : ns_rwsets) {
    w.Str(ns.ns);
    w.U32(static_cast<std::uint32_t>(ns.reads.size()));
    for (const auto& r : ns.reads) {
      w.Str(r.key);
      w.U8(r.version.has_value() ? 1 : 0);
      if (r.version) {
        w.U64(r.version->block_num);
        w.U32(r.version->tx_num);
      }
    }
    w.U32(static_cast<std::uint32_t>(ns.range_reads.size()));
    for (const auto& rr : ns.range_reads) {
      w.Str(rr.start_key);
      w.Str(rr.end_key);
      w.Blob(rr.result_digest);
    }
    w.U32(static_cast<std::uint32_t>(ns.writes.size()));
    for (const auto& wr : ns.writes) {
      w.Str(wr.key);
      w.U8(wr.is_delete ? 1 : 0);
      w.Blob(wr.value);
    }
  }
}
FABRICSIM_INSTANTIATE_ENCODER(TxReadWriteSet::Encode);

std::optional<TxReadWriteSet> TxReadWriteSet::Deserialize(BytesView data) {
  try {
    Reader r(data);
    TxReadWriteSet out;
    const std::uint32_t ns_count = r.U32();
    out.ns_rwsets.reserve(ns_count);
    for (std::uint32_t i = 0; i < ns_count; ++i) {
      NsReadWriteSet ns;
      ns.ns = r.Str();
      const std::uint32_t reads = r.U32();
      ns.reads.reserve(reads);
      for (std::uint32_t j = 0; j < reads; ++j) {
        KVRead kv;
        kv.key = r.Str();
        if (r.U8() != 0) {
          KeyVersion v;
          v.block_num = r.U64();
          v.tx_num = r.U32();
          kv.version = v;
        }
        ns.reads.push_back(std::move(kv));
      }
      const std::uint32_t ranges = r.U32();
      ns.range_reads.reserve(ranges);
      for (std::uint32_t j = 0; j < ranges; ++j) {
        RangeRead rr;
        rr.start_key = r.Str();
        rr.end_key = r.Str();
        const Bytes digest = r.Blob();
        if (digest.size() != rr.result_digest.size()) return std::nullopt;
        std::copy(digest.begin(), digest.end(), rr.result_digest.begin());
        ns.range_reads.push_back(std::move(rr));
      }
      const std::uint32_t writes = r.U32();
      ns.writes.reserve(writes);
      for (std::uint32_t j = 0; j < writes; ++j) {
        KVWrite kv;
        kv.key = r.Str();
        kv.is_delete = r.U8() != 0;
        kv.value = r.Blob();
        ns.writes.push_back(std::move(kv));
      }
      out.ns_rwsets.push_back(std::move(ns));
    }
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::size_t TxReadWriteSet::ReadCount() const {
  std::size_t n = 0;
  for (const auto& ns : ns_rwsets) n += ns.reads.size();
  return n;
}

std::size_t TxReadWriteSet::WriteCount() const {
  std::size_t n = 0;
  for (const auto& ns : ns_rwsets) n += ns.writes.size();
  return n;
}

crypto::Digest RangeRead::HashResults(
    const std::vector<std::pair<std::string, KeyVersion>>& results) {
  HashWriter w;
  w.U32(static_cast<std::uint32_t>(results.size()));
  for (const auto& [key, version] : results) {
    w.Str(key);
    w.U64(version.block_num);
    w.U32(version.tx_num);
  }
  return w.Finalize();
}

RwSetBuilder::RwSetBuilder(std::string ns) { set_.ns = std::move(ns); }

void RwSetBuilder::AddRangeRead(
    const std::string& start_key, const std::string& end_key,
    const std::vector<std::pair<std::string, KeyVersion>>& results) {
  RangeRead rr;
  rr.start_key = start_key;
  rr.end_key = end_key;
  rr.result_digest = RangeRead::HashResults(results);
  set_.range_reads.push_back(std::move(rr));
}

void RwSetBuilder::AddRead(const std::string& key,
                           std::optional<KeyVersion> version) {
  if (HasRead(key)) return;
  set_.reads.push_back(KVRead{key, version});
}

void RwSetBuilder::AddWrite(const std::string& key, Bytes value) {
  auto it = std::find_if(set_.writes.begin(), set_.writes.end(),
                         [&](const KVWrite& w) { return w.key == key; });
  if (it != set_.writes.end()) {
    it->value = std::move(value);
    it->is_delete = false;
    return;
  }
  set_.writes.push_back(KVWrite{key, std::move(value), false});
}

void RwSetBuilder::AddDelete(const std::string& key) {
  auto it = std::find_if(set_.writes.begin(), set_.writes.end(),
                         [&](const KVWrite& w) { return w.key == key; });
  if (it != set_.writes.end()) {
    it->value.clear();
    it->is_delete = true;
    return;
  }
  set_.writes.push_back(KVWrite{key, {}, true});
}

const KVWrite* RwSetBuilder::PendingWrite(const std::string& key) const {
  auto it = std::find_if(set_.writes.begin(), set_.writes.end(),
                         [&](const KVWrite& w) { return w.key == key; });
  return it == set_.writes.end() ? nullptr : &*it;
}

bool RwSetBuilder::HasRead(const std::string& key) const {
  return std::any_of(set_.reads.begin(), set_.reads.end(),
                     [&](const KVRead& r) { return r.key == key; });
}

TxReadWriteSet RwSetBuilder::Build() && {
  TxReadWriteSet out;
  out.ns_rwsets.push_back(std::move(set_));
  return out;
}

}  // namespace fabricsim::proto
