#include "ledger/block_store.h"

#include <algorithm>
#include <stdexcept>

namespace fabricsim::ledger {

namespace {

CodesPtr ShareCodes(std::vector<proto::ValidationCode> codes) {
  // Blocks stored without codes (the orderer side, genesis) share one empty
  // list instead of allocating one each.
  static const CodesPtr kNone =
      std::make_shared<const std::vector<proto::ValidationCode>>();
  if (codes.empty()) return kNone;
  return std::make_shared<const std::vector<proto::ValidationCode>>(
      std::move(codes));
}

}  // namespace

// --- BlockLog ---------------------------------------------------------------

void BlockLog::Push(Entry entry) {
  const auto num_lo = static_cast<std::uint32_t>(Height());
  entries_.push_back(std::move(entry));
  // Every occurrence gets its own slot, so a view whose window holds only
  // an older occurrence of a resubmitted id still finds it.
  const proto::EnvelopeList& txs = entries_.back().block->transactions;
  for (std::uint32_t i = 0; i < txs.size(); ++i) {
    index_.Insert(HashKey(txs[i].tx_id), TxSlot{num_lo, i});
  }
}

BlockLog::ViewId BlockLog::Join(View view) {
  ViewId id = 0;
  while (id < views_.size() && views_[id]) ++id;
  if (id == views_.size()) views_.emplace_back();
  views_[id] = view;
  DropUnread();
  return id;
}

void BlockLog::Move(ViewId id, View view) {
  views_[id] = view;
  DropUnread();
}

void BlockLog::Leave(ViewId id) {
  views_[id].reset();
  DropUnread();
}

void BlockLog::DropUnread() {
  std::uint64_t lowest_first = kNoView;
  oldest_ = kNoView;
  for (const auto& v : views_) {
    if (!v) continue;
    lowest_first = std::min(lowest_first, v->first);
    oldest_ = std::min(oldest_, v->height);
  }
  if (oldest_ == kNoView) return;  // nobody reads the log; keep it as it is
  while (!entries_.empty() && first_ < lowest_first) {
    const auto first_lo = static_cast<std::uint32_t>(first_);
    const proto::EnvelopeList& txs = entries_.front().block->transactions;
    for (std::uint32_t i = 0; i < txs.size(); ++i) {
      index_.Erase(HashKey(txs[i].tx_id), [first_lo, i](TxSlot slot) {
        return slot.block_lo == first_lo && slot.tx_index == i;
      });
    }
    entries_.pop_front();
    ++first_;
  }
}

// --- BlockStore -------------------------------------------------------------

BlockStore::BlockStore() : log_(std::make_shared<BlockLog>()) {
  view_ = log_->Join({0, 0});
}

BlockStore::~BlockStore() { log_->Leave(view_); }

void BlockStore::Share(std::shared_ptr<BlockLog> log) {
  if (log == nullptr || height_ != 0) return;
  log_->Leave(view_);
  log_ = std::move(log);
  view_ = log_->Join({first_, height_});
}

bool BlockStore::Shared() const {
  return log_->Height() != height_ ||
         std::count_if(log_->views_.begin(), log_->views_.end(),
                       [](const auto& v) { return v.has_value(); }) > 1;
}

void BlockStore::Unshare() {
  if (!Shared()) return;
  auto own = std::make_shared<BlockLog>();
  own->first_ = first_;
  for (std::uint64_t n = first_; n < height_; ++n) own->Push(log_->At(n));
  log_->Leave(view_);
  log_ = std::move(own);
  view_ = log_->Join({first_, height_});
}

void BlockStore::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  if (log_->Height() != height_) {
    throw std::logic_error("BlockStore::Append below its log's head");
  }
  const std::size_t wire_size = block->WireSize();
  log_->Push({std::move(block), ShareCodes(std::move(codes)), wire_size});
  Advance();
}

bool BlockStore::Follow() {
  if (height_ < log_->first_ || height_ >= log_->Height()) return false;
  Advance();
  return true;
}

void BlockStore::Advance() {
  const BlockLog::Entry& entry = log_->At(height_);
  total_txs_ += entry.block->transactions.size();
  stored_bytes_ += entry.wire_size;
  ++height_;
  if (keep_blocks_ > 0 && height_ - first_ > keep_blocks_) {
    first_ = height_ - keep_blocks_;
  }
  log_->Move(view_, {first_, height_});
}

const std::vector<proto::ValidationCode>& BlockStore::CodesFor(
    std::uint64_t number) const {
  static const std::vector<proto::ValidationCode> kEmpty;
  if (!Resident(number)) return kEmpty;
  return *log_->At(number).codes;
}

CodesPtr BlockStore::SharedCodesFor(std::uint64_t number) const {
  if (!Resident(number)) return nullptr;
  return log_->At(number).codes;
}

proto::BlockPtr BlockStore::GetBlock(std::uint64_t number) const {
  if (!Resident(number)) return nullptr;
  return log_->At(number).block;
}

proto::BlockPtr BlockStore::LastBlock() const {
  return height_ > first_ ? GetBlock(height_ - 1) : nullptr;
}

bool BlockStore::HasTransaction(std::string_view tx_id) const {
  return log_->index_.Find(HashKey(tx_id), VisibleIdIs(tx_id)) != nullptr;
}

std::optional<TxLocation> BlockStore::FindTransaction(
    std::string_view tx_id) const {
  // Every occurrence has its own slot; the newest visible one wins. The
  // predicate never confirms, so the probe visits the whole cluster.
  std::optional<TxLocation> newest;
  const auto visible = VisibleIdIs(tx_id);
  (void)log_->index_.Find(HashKey(tx_id), [&](BlockLog::TxSlot slot) {
    if (visible(slot)) {
      const TxLocation at{log_->BlockOf(slot), slot.tx_index};
      if (!newest || at.block_num > newest->block_num ||
          (at.block_num == newest->block_num &&
           at.tx_index > newest->tx_index)) {
        newest = at;
      }
    }
    return false;
  });
  return newest;
}

}  // namespace fabricsim::ledger
