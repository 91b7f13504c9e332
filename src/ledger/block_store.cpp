#include "ledger/block_store.h"

namespace fabricsim::ledger {

void BlockStore::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  const std::uint64_t num = Height();
  for (std::size_t i = 0; i < block->transactions.size(); ++i) {
    const std::string_view id = block->transactions[i].tx_id;
    const TxLocation loc{num, static_cast<std::uint32_t>(i)};
    auto [it, inserted] = tx_index_.try_emplace(id, loc);
    if (inserted) continue;
    // A resubmitted id: re-point the entry, key view included, at this
    // newest occurrence. It is pruned last, so the id stays visible while
    // any occurrence is resident.
    auto node = tx_index_.extract(it);
    node.key() = id;
    node.mapped() = loc;
    tx_index_.insert(std::move(node));
  }
  total_txs_ += block->transactions.size();
  stored_bytes_ += block->WireSize();
  blocks_.push_back(std::move(block));
  codes_.push_back(std::move(codes));
  PruneFront();
}

void BlockStore::PruneFront() {
  if (keep_blocks_ == 0) return;
  while (blocks_.size() > keep_blocks_) {
    const proto::BlockPtr& oldest = blocks_.front();
    for (const auto& tx : oldest->transactions) {
      auto it = tx_index_.find(tx.tx_id);
      // Guard the block number: a resubmitted tx id may have landed again in
      // a newer (retained) block, whose index entry must survive.
      if (it != tx_index_.end() && it->second.block_num == first_block_num_) {
        tx_index_.erase(it);
      }
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
  return tx_index_.count(tx_id) != 0;
}

std::optional<TxLocation> BlockStore::FindTransaction(
    std::string_view tx_id) const {
  auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace fabricsim::ledger
