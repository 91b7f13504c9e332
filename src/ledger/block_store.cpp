#include "ledger/block_store.h"

namespace fabricsim::ledger {

void BlockStore::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  const auto num_lo = static_cast<std::uint32_t>(Height());
  total_txs_ += block->transactions.size();
  stored_bytes_ += block->WireSize();
  blocks_.push_back(std::move(block));
  codes_.push_back(std::move(codes));
  // Indexed once resident, so an id repeated inside this block confirms
  // against its earlier occurrence.
  const proto::EnvelopeList& txs = blocks_.back()->transactions;
  for (std::uint32_t i = 0; i < txs.size(); ++i) {
    const std::string_view id = txs[i].tx_id;
    const std::uint64_t hash = HashKey(id);
    const TxSlot slot{num_lo, i};
    if (TxSlot* newest = tx_index_.Find(hash, IdIs(id))) {
      // A resubmitted id: re-point the entry at this newest occurrence. It
      // is pruned last, so the id stays visible while any occurrence is
      // resident.
      *newest = slot;
    } else {
      tx_index_.Insert(hash, slot);
    }
  }
  PruneFront();
}

void BlockStore::PruneFront() {
  if (keep_blocks_ == 0) return;
  while (blocks_.size() > keep_blocks_) {
    const auto first_lo = static_cast<std::uint32_t>(first_block_num_);
    const proto::EnvelopeList& txs = blocks_.front()->transactions;
    for (std::uint32_t i = 0; i < txs.size(); ++i) {
      // Only an entry that points here goes: a resubmitted tx id may have
      // landed again in a newer (retained) block, whose entry must survive.
      tx_index_.Erase(HashKey(txs[i].tx_id), [first_lo, i](TxSlot slot) {
        return slot.block_lo == first_lo && slot.tx_index == i;
      });
    }
    blocks_.pop_front();
    codes_.pop_front();
    ++first_block_num_;
  }
}

const std::vector<proto::ValidationCode>& BlockStore::CodesFor(
    std::uint64_t number) const {
  static const std::vector<proto::ValidationCode> kEmpty;
  if (number < first_block_num_ || number >= Height()) return kEmpty;
  return codes_[static_cast<std::size_t>(number - first_block_num_)];
}

proto::BlockPtr BlockStore::GetBlock(std::uint64_t number) const {
  if (number < first_block_num_ || number >= Height()) return nullptr;
  return blocks_[static_cast<std::size_t>(number - first_block_num_)];
}

proto::BlockPtr BlockStore::LastBlock() const {
  return blocks_.empty() ? nullptr : blocks_.back();
}

bool BlockStore::HasTransaction(std::string_view tx_id) const {
  return tx_index_.Find(HashKey(tx_id), IdIs(tx_id)) != nullptr;
}

std::optional<TxLocation> BlockStore::FindTransaction(
    std::string_view tx_id) const {
  const TxSlot* slot = tx_index_.Find(HashKey(tx_id), IdIs(tx_id));
  if (slot == nullptr) return std::nullopt;
  return TxLocation{first_block_num_ + OffsetOf(*slot), slot->tx_index};
}

}  // namespace fabricsim::ledger
