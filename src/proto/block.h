// Blocks: header, data (transaction envelopes), metadata (validation flags,
// orderer signature). Hash-chained via the header's previous-hash field,
// exactly as in Fabric.
#pragma once

#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/transaction.h"

namespace fabricsim::proto {

struct BlockHeader {
  std::uint64_t number = 0;
  crypto::Digest previous_hash{};
  crypto::Digest data_hash{};

  /// Serialize().size(): a u64 and two length-prefixed digests.
  static constexpr std::size_t kWireSize =
      sizeof(std::uint64_t) + 2 * (kBlobPrefixBytes + crypto::Digest{}.size());

  bool operator==(const BlockHeader&) const = default;
  template <typename Sink>
  void Encode(Sink& out) const {
    out.U64(number);
    out.Blob(previous_hash);
    out.Blob(data_hash);
  }
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<BlockHeader> Deserialize(BytesView data);

  /// The block hash = SHA-256 of the serialized header (Fabric semantics);
  /// also the digest the orderer signs.
  [[nodiscard]] crypto::Digest Hash() const;
};

/// Post-commit metadata: one validation code per transaction, plus the
/// orderer's signature over the header.
struct BlockMetadata {
  std::vector<ValidationCode> validation_codes;
  SharedBytes orderer_cert;  // serialized crypto::Certificate
  crypto::Signature orderer_signature{};

  template <typename Sink>
  void Encode(Sink& out) const {
    out.U32(static_cast<std::uint32_t>(validation_codes.size()));
    for (ValidationCode c : validation_codes) {
      out.U8(static_cast<std::uint8_t>(c));
    }
    out.Blob(orderer_cert);
    out.Blob(orderer_signature.bytes);
  }
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<BlockMetadata> Deserialize(BytesView data);
  [[nodiscard]] std::size_t WireSize() const { return EncodedSize(*this); }
};

/// A block's transactions: the clients' signed envelopes, shared rather
/// than copied (see TransactionEnvelope). Reads yield the envelopes
/// themselves; the only mutation is Mutable(), which copies one first.
class EnvelopeList {
 public:
  /// Iterates the envelopes as `const TransactionEnvelope&`.
  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = TransactionEnvelope;
    using difference_type = std::ptrdiff_t;
    using pointer = const TransactionEnvelope*;
    using reference = const TransactionEnvelope&;

    const_iterator() = default;
    explicit const_iterator(std::vector<EnvelopePtr>::const_iterator it)
        : it_(it) {}

    reference operator*() const { return **it_; }
    pointer operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    const_iterator& operator--() {
      --it_;
      return *this;
    }
    const_iterator operator--(int) { return const_iterator(it_--); }
    bool operator==(const const_iterator&) const = default;

   private:
    std::vector<EnvelopePtr>::const_iterator it_;
  };
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  // Implicit, so a cut Batch or a list of values passes straight to
  // Block::Make.
  EnvelopeList() = default;
  EnvelopeList(std::vector<EnvelopePtr> envelopes)
      : envelopes_(std::move(envelopes)) {}
  /// Wraps each value in a shared envelope of its own (genesis, tests).
  EnvelopeList(std::vector<TransactionEnvelope> envelopes);
  EnvelopeList(std::initializer_list<TransactionEnvelope> envelopes)
      : EnvelopeList(std::vector<TransactionEnvelope>(envelopes)) {}

  [[nodiscard]] std::size_t size() const { return envelopes_.size(); }
  [[nodiscard]] bool empty() const { return envelopes_.empty(); }
  const TransactionEnvelope& operator[](std::size_t i) const {
    return *envelopes_[i];
  }
  [[nodiscard]] const TransactionEnvelope& front() const {
    return *envelopes_.front();
  }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(envelopes_.begin());
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(envelopes_.end());
  }
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  [[nodiscard]] const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  /// The shared envelope at `i`.
  [[nodiscard]] const EnvelopePtr& Ptr(std::size_t i) const {
    return envelopes_[i];
  }

  /// Copy-on-write: replaces slot `i` with a fresh copy of its envelope and
  /// returns that copy for editing. Other holders of the original are
  /// untouched. The copy starts with cold memos; edit it before reading its
  /// derived values, and call Block::InvalidateCaches() on the owning block.
  TransactionEnvelope& Mutable(std::size_t i);

 private:
  std::vector<EnvelopePtr> envelopes_;
};

struct Block {
  BlockHeader header;
  EnvelopeList transactions;
  BlockMetadata metadata;

  /// Computes the Merkle root over the serialized transactions (each leaf
  /// streamed by TransactionEnvelope::LeafHash).
  [[nodiscard]] static crypto::Digest ComputeDataHash(const EnvelopeList& txs);

  /// ComputeDataHash over this block's transactions, memoized on the
  /// (shared, immutable) block object: every peer re-validates the same
  /// BlockPtr at append, so the Merkle tree is hashed once per block
  /// instead of once per peer. Make() fills header.data_hash from this
  /// memo, so an assembled block is hashed exactly once. A deserialized or
  /// copied block starts cold, so a tampered block is still caught on its
  /// first validation.
  [[nodiscard]] const crypto::Digest& DataHash() const;

  /// Builds a block from `txs` chained onto `prev` (null for genesis).
  static Block Make(std::uint64_t number, const crypto::Digest* prev_hash,
                    EnvelopeList txs);

  template <typename Sink>
  void Encode(Sink& out) const {
    out.Nested(header);
    out.U32(static_cast<std::uint32_t>(transactions.size()));
    for (const auto& tx : transactions) out.Nested(tx);
    out.Nested(metadata);
  }
  /// Fresh canonical bytes. The simulation never builds them; WireSize()
  /// gives their size from the parts.
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<Block> Deserialize(BytesView data);
  /// Serialize().size(), from the part sizes.
  [[nodiscard]] std::size_t WireSize() const;

  [[nodiscard]] std::size_t TxCount() const { return transactions.size(); }

  /// Drops the block-level data-hash memo. Callers that swap an envelope
  /// in (EnvelopeList::Mutable) must call this; shared envelopes are never
  /// mutated in place, so their own memos stay valid.
  void InvalidateCaches() const;

 private:
  CachedValue<crypto::Digest> data_hash_cache_;
};

using BlockPtr = std::shared_ptr<const Block>;

}  // namespace fabricsim::proto
