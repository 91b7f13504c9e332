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
// non-chaos run), and the soak bench relies on it for flat memory. Pruning
// frees a block's envelopes only once no history entry shares them (see
// ledger/history_index.h), so memory stays flat only when the key space is
// bounded or the per-key history cap drops old writes.
//
// Stored blocks are immutable: BlockPtr is shared_ptr<const Block>, and no
// holder may edit a block (or swap its envelopes) after Append. The tx-id
// index relies on it — its keys view the tx ids inside the resident blocks'
// envelopes rather than copying them.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

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
  void PruneFront();

  std::deque<proto::BlockPtr> blocks_;
  std::deque<std::vector<proto::ValidationCode>> codes_;
  std::unordered_map<std::string_view, TxLocation> tx_index_;
  std::uint64_t first_block_num_ = 0;
  std::uint64_t keep_blocks_ = 0;  // 0 = unbounded
  std::uint64_t total_txs_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace fabricsim::ledger
