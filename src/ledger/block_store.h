// Append-only block storage with a transaction-id index.
//
// Mirrors Fabric's file-based block store: blocks are retrievable by number,
// transactions by id, and the committer consults the tx-id index for
// duplicate-transaction detection.
//
// Retention: by default every block is kept (the real block store is disk-
// backed and effectively unbounded, but here blocks live in RSS, which makes
// million-transaction soak runs infeasible). SetRetention(n) keeps only the
// newest n blocks in memory — older blocks and their tx-index entries are
// pruned, so duplicate detection's horizon shrinks to the retained window.
// That is safe whenever client resubmission of old tx ids is bounded (every
// non-chaos run), and the soak bench relies on it for flat memory, for any
// key space: key history is built on demand from the resident blocks (see
// ledger/history_index.h), so nothing outside the store keeps a pruned
// block's envelopes alive.
//
// Stored blocks are immutable: BlockPtr is shared_ptr<const Block>, and no
// holder may edit a block (or swap its envelopes) after Append. The tx-id
// index relies on it: a flat open-addressing index (ledger/flat_index.h)
// whose slots hold each id's hash and (block, position), confirmed against
// the tx id inside the resident block. A miss — what HasTransaction returns
// for almost every fresh id — touches the slot array and no envelope.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ledger/flat_index.h"
#include "proto/block.h"

namespace fabricsim::ledger {

/// Location of a transaction inside the chain.
struct TxLocation {
  std::uint64_t block_num = 0;
  std::uint32_t tx_index = 0;
};

class BlockStore {
 public:
  /// Appends a block with its per-transaction validation codes (the
  /// committer fills the metadata; storing the codes beside the shared
  /// immutable block avoids deep-copying it on every peer). The caller
  /// (Blockchain) is responsible for chain integrity; the store only
  /// indexes.
  void Append(proto::BlockPtr block,
              std::vector<proto::ValidationCode> codes = {});

  /// Keeps only the newest `keep_blocks` blocks in memory (0 = keep all,
  /// the default). Takes effect on the next Append.
  void SetRetention(std::uint64_t keep_blocks) { keep_blocks_ = keep_blocks; }
  [[nodiscard]] std::uint64_t Retention() const { return keep_blocks_; }

  /// Number of blocks appended ever (== next block number). Pruned blocks
  /// still count: height is chain position, not residency.
  [[nodiscard]] std::uint64_t Height() const {
    return first_block_num_ + blocks_.size();
  }

  /// Oldest block number still resident (0 until pruning starts).
  [[nodiscard]] std::uint64_t FirstBlockNumber() const {
    return first_block_num_;
  }

  /// Blocks currently resident in memory.
  [[nodiscard]] std::size_t ResidentBlocks() const { return blocks_.size(); }

  /// Block by number, or nullptr if out of range or pruned.
  [[nodiscard]] proto::BlockPtr GetBlock(std::uint64_t number) const;

  [[nodiscard]] proto::BlockPtr LastBlock() const;

  /// True if a transaction with this id has been stored (valid or not —
  /// Fabric records invalid transactions too and rejects id reuse). Under
  /// retention, exactly the transactions in resident blocks are visible.
  [[nodiscard]] bool HasTransaction(std::string_view tx_id) const;

  /// Newest resident occurrence of the id.
  [[nodiscard]] std::optional<TxLocation> FindTransaction(
      std::string_view tx_id) const;

  /// Validation codes recorded when block `number` was committed (empty for
  /// blocks appended without codes, e.g. on the orderer side, or pruned).
  [[nodiscard]] const std::vector<proto::ValidationCode>& CodesFor(
      std::uint64_t number) const;

  /// Total transactions appended ever (pruned blocks included).
  [[nodiscard]] std::uint64_t TxCount() const { return total_txs_; }

  /// Total serialized bytes appended ever (storage-size accounting; not
  /// reduced by pruning — it models cumulative disk writes).
  [[nodiscard]] std::uint64_t StoredBytes() const { return stored_bytes_; }

 private:
  // An index slot's payload: the low 32 bits of the block number (resident
  // blocks span far fewer than 2^32 numbers, so they identify the block)
  // and the position inside it.
  struct TxSlot {
    std::uint32_t block_lo;
    std::uint32_t tx_index;
  };

  /// Position in blocks_ of the slot's block.
  [[nodiscard]] std::size_t OffsetOf(TxSlot slot) const {
    return static_cast<std::uint32_t>(
        slot.block_lo - static_cast<std::uint32_t>(first_block_num_));
  }
  /// Confirms an index hit: is the transaction at a slot's location this id?
  [[nodiscard]] auto IdIs(std::string_view tx_id) const {
    return [this, tx_id](TxSlot slot) {
      return blocks_[OffsetOf(slot)]->transactions[slot.tx_index].tx_id ==
             tx_id;
    };
  }
  void PruneFront();

  std::deque<proto::BlockPtr> blocks_;
  std::deque<std::vector<proto::ValidationCode>> codes_;
  FlatIndex<TxSlot> tx_index_;
  std::uint64_t first_block_num_ = 0;
  std::uint64_t keep_blocks_ = 0;  // 0 = unbounded
  std::uint64_t total_txs_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace fabricsim::ledger
