#include "proto/block.h"

#include <stdexcept>

#include "proto/encode.h"

namespace fabricsim::proto {

std::optional<BlockHeader> BlockHeader::Deserialize(BytesView data) {
  try {
    Reader r(data);
    BlockHeader out;
    out.number = r.U64();
    const Bytes prev = r.Blob();
    const Bytes dh = r.Blob();
    if (prev.size() != out.previous_hash.size() ||
        dh.size() != out.data_hash.size()) {
      return std::nullopt;
    }
    std::copy(prev.begin(), prev.end(), out.previous_hash.begin());
    std::copy(dh.begin(), dh.end(), out.data_hash.begin());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

crypto::Digest BlockHeader::Hash() const { return EncodedDigest(*this); }

std::optional<BlockMetadata> BlockMetadata::Deserialize(BytesView data) {
  try {
    Reader r(data);
    BlockMetadata out;
    const std::uint32_t n = r.U32();
    out.validation_codes.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out.validation_codes.push_back(static_cast<ValidationCode>(r.U8()));
    }
    out.orderer_cert = r.Blob();
    out.orderer_signature = crypto::Signature::FromBytes(r.Blob());
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

EnvelopeList::EnvelopeList(std::vector<TransactionEnvelope> envelopes) {
  envelopes_.reserve(envelopes.size());
  for (auto& env : envelopes) {
    envelopes_.push_back(
        std::make_shared<const TransactionEnvelope>(std::move(env)));
  }
}

TransactionEnvelope& EnvelopeList::Mutable(std::size_t i) {
  auto copy = std::make_shared<TransactionEnvelope>(*envelopes_[i]);
  TransactionEnvelope& out = *copy;
  envelopes_[i] = std::move(copy);
  return out;
}

crypto::Digest Block::ComputeDataHash(const EnvelopeList& txs) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(txs.size());
  for (const auto& tx : txs) leaves.push_back(tx.LeafHash());
  return crypto::MerkleTree::FromLeafDigests(std::move(leaves)).Root();
}

const crypto::Digest& Block::DataHash() const {
  return data_hash_cache_.Get([this] { return ComputeDataHash(transactions); });
}

void Block::InvalidateCaches() const { data_hash_cache_.Invalidate(); }

Block Block::Make(std::uint64_t number, const crypto::Digest* prev_hash,
                  EnvelopeList txs) {
  Block b;
  b.header.number = number;
  if (prev_hash != nullptr) b.header.previous_hash = *prev_hash;
  b.transactions = std::move(txs);
  b.header.data_hash = b.DataHash();  // the memo moves with the block
  return b;
}

std::optional<Block> Block::Deserialize(BytesView data) {
  try {
    Reader r(data);
    Block out;
    auto hdr = BlockHeader::Deserialize(r.Blob());
    if (!hdr) return std::nullopt;
    out.header = *hdr;
    const std::uint32_t n = r.U32();
    std::vector<EnvelopePtr> txs;
    txs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto tx = TransactionEnvelope::Deserialize(r.Blob());
      if (!tx) return std::nullopt;
      txs.push_back(std::make_shared<const TransactionEnvelope>(std::move(*tx)));
    }
    out.transactions = std::move(txs);
    auto md = BlockMetadata::Deserialize(r.Blob());
    if (!md) return std::nullopt;
    out.metadata = std::move(*md);
    return out;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::size_t Block::WireSize() const {
  std::size_t size = kBlobPrefixBytes + BlockHeader::kWireSize +
                     kBlobPrefixBytes + metadata.WireSize() +
                     sizeof(std::uint32_t);  // transaction count
  for (const auto& tx : transactions) size += kBlobPrefixBytes + tx.WireSize();
  return size;
}

}  // namespace fabricsim::proto
