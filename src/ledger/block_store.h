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
// One log per channel. A BlockStore is a view of a BlockLog: the log holds
// the blocks, their validation codes and the tx-id index; the view holds
// its own height, retention and running totals, and answers every query as
// of its own window [FirstBlockNumber(), Height()). A standalone store owns
// a private log. The stores of the peers of one channel are built on one
// log: every honest peer commits the same blocks with the same codes,
// so the first view to reach a height appends the block to the log, and a
// view that arrives later only advances over it (Follow). The store never
// compares blocks: its owner (peer::Committer) decides whether it follows
// the logged block, and moves a view that diverges onto a private log
// holding a copy of its window (Unshare).
//
// The log's view table is the channel's one record of committer positions:
// each view's window start and height. The log drops a block only when it
// lies below every view's window, and OldestHeight() — the lowest view
// height — bounds what the channel keeps beside the log for the views
// behind its head (peer::ChannelState: superseded state versions and the
// verdicts of heights not every view has committed).
//
// Stored blocks are immutable: BlockPtr is shared_ptr<const Block>, and no
// holder may edit a block (or swap its envelopes) after Append. The tx-id
// index relies on it: a flat open-addressing index (ledger/flat_index.h)
// whose slots hold each id's hash and (block, position), one slot per
// occurrence, confirmed against the tx id inside the logged block. A miss —
// what HasTransaction returns for almost every fresh id — touches the slot
// array and no envelope.
#pragma once

#include <deque>
#include <memory>
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

/// A stored block's validation codes, shared by every view of its log and
/// by the commit events that report them.
using CodesPtr = std::shared_ptr<const std::vector<proto::ValidationCode>>;

/// The blocks of one channel, shared by the BlockStore views of its peers.
/// Only BlockStore reads or writes it.
class BlockLog {
 public:
  /// Number of blocks appended ever (== the next block number).
  [[nodiscard]] std::uint64_t Height() const { return first_ + entries_.size(); }
  /// Blocks currently held.
  [[nodiscard]] std::size_t ResidentBlocks() const { return entries_.size(); }
  /// Index entries currently held (one per transaction of each held block).
  [[nodiscard]] std::size_t IndexedTransactions() const {
    return index_.Size();
  }
  /// The lowest height of the views reading the log (kNoView with none).
  [[nodiscard]] std::uint64_t OldestHeight() const { return oldest_; }
  static constexpr std::uint64_t kNoView = ~std::uint64_t{0};

 private:
  friend class BlockStore;
  using ViewId = std::size_t;

  struct View {
    std::uint64_t first;   // window start
    std::uint64_t height;  // blocks the view has committed
  };

  struct Entry {
    proto::BlockPtr block;
    CodesPtr codes;  // never null
    std::size_t wire_size = 0;
  };
  // An index slot's payload: the low 32 bits of the block number (held
  // blocks span far fewer than 2^32 numbers, so they identify the block)
  // and the position inside it.
  struct TxSlot {
    std::uint32_t block_lo;
    std::uint32_t tx_index;
  };

  [[nodiscard]] const Entry& At(std::uint64_t number) const {
    return entries_[static_cast<std::size_t>(number - first_)];
  }
  /// Block number of a slot's block.
  [[nodiscard]] std::uint64_t BlockOf(TxSlot slot) const {
    return first_ + static_cast<std::uint32_t>(
                        slot.block_lo - static_cast<std::uint32_t>(first_));
  }
  [[nodiscard]] const std::string& IdAt(TxSlot slot) const {
    return At(BlockOf(slot)).block->transactions[slot.tx_index].tx_id;
  }
  void Push(Entry entry);
  [[nodiscard]] ViewId Join(View view);
  /// Records where a view is, then drops what no view can read.
  void Move(ViewId id, View view);
  void Leave(ViewId id);
  void DropUnread();

  std::deque<Entry> entries_;
  FlatIndex<TxSlot> index_;
  std::uint64_t first_ = 0;
  std::vector<std::optional<View>> views_;  // by id
  std::uint64_t oldest_ = kNoView;          // lowest view height
};

class BlockStore {
 public:
  /// A standalone store on a private log.
  BlockStore();
  /// A view of `log`, the channel's shared log, from height 0.
  explicit BlockStore(std::shared_ptr<BlockLog> log);
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Appends a block with its per-transaction validation codes (the
  /// committer fills the metadata; storing the codes beside the shared
  /// immutable block avoids deep-copying it on every peer). The caller
  /// (Blockchain) is responsible for chain integrity; the store only
  /// indexes. Throws std::logic_error when the log holds a block at this
  /// view's height: a view that diverges from its log Unshares first.
  void Append(proto::BlockPtr block,
              std::vector<proto::ValidationCode> codes = {});

  /// Advances this view over the block its log holds at Height(): the
  /// caller has established that it is the block, with the codes, it would
  /// append. False, changing nothing, when the log holds no block there.
  bool Follow();

  /// Keeps only the newest `keep_blocks` blocks in memory (0 = keep all,
  /// the default). Takes effect on the next Append.
  void SetRetention(std::uint64_t keep_blocks) { keep_blocks_ = keep_blocks; }
  [[nodiscard]] std::uint64_t Retention() const { return keep_blocks_; }

  /// Continues on a private log holding a copy of this view's window. A
  /// no-op when the log is this store's own already.
  void Unshare();
  /// True while the log is not this store's own: another view reads it, or
  /// it holds blocks above this view that another view appended.
  [[nodiscard]] bool Shared() const;
  /// The log this store views.
  [[nodiscard]] const std::shared_ptr<BlockLog>& Log() const { return log_; }

  /// Number of blocks appended ever (== next block number). Pruned blocks
  /// still count: height is chain position, not residency.
  [[nodiscard]] std::uint64_t Height() const { return height_; }

  /// Oldest block number still resident (0 until pruning starts).
  [[nodiscard]] std::uint64_t FirstBlockNumber() const { return first_; }

  /// Blocks currently resident in memory.
  [[nodiscard]] std::size_t ResidentBlocks() const {
    return static_cast<std::size_t>(height_ - first_);
  }

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
  /// The same codes, shared (null if out of range or pruned).
  [[nodiscard]] CodesPtr SharedCodesFor(std::uint64_t number) const;

  /// Total transactions appended ever (pruned blocks included).
  [[nodiscard]] std::uint64_t TxCount() const { return total_txs_; }

  /// Total serialized bytes appended ever (storage-size accounting; not
  /// reduced by pruning — it models cumulative disk writes).
  [[nodiscard]] std::uint64_t StoredBytes() const { return stored_bytes_; }

 private:
  /// Counts the logged block at Height() into this view and moves past it.
  void Advance();
  [[nodiscard]] bool Resident(std::uint64_t number) const {
    return number >= first_ && number < height_;
  }
  /// Confirms an index hit: is the transaction at a slot this id, inside
  /// this view's window?
  [[nodiscard]] auto VisibleIdIs(std::string_view tx_id) const {
    return [this, tx_id](BlockLog::TxSlot slot) {
      return Resident(log_->BlockOf(slot)) && log_->IdAt(slot) == tx_id;
    };
  }

  std::shared_ptr<BlockLog> log_;
  BlockLog::ViewId view_ = 0;
  std::uint64_t height_ = 0;
  std::uint64_t first_ = 0;        // window start
  std::uint64_t keep_blocks_ = 0;  // 0 = unbounded
  std::uint64_t total_txs_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace fabricsim::ledger
