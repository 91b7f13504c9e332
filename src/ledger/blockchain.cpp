#include "ledger/blockchain.h"

namespace fabricsim::ledger {

crypto::Digest Blockchain::TipHash() const {
  auto last = store_.LastBlock();
  if (!last) return crypto::Digest{};
  return last->header.Hash();
}

bool Blockchain::ValidateLinkage(const proto::Block& block,
                                 std::string* reason) const {
  if (block.header.number != store_.Height()) {
    if (reason) *reason = "non-sequential block number";
    return false;
  }
  if (block.header.previous_hash != TipHash()) {
    if (reason) *reason = "previous-hash mismatch";
    return false;
  }
  if (!data_hash_check_disabled_ &&
      block.header.data_hash != block.DataHash()) {
    if (reason) *reason = "data-hash mismatch";
    return false;
  }
  return true;
}

bool Blockchain::Append(proto::BlockPtr block,
                        std::vector<proto::ValidationCode> codes) {
  if (!ValidateLinkage(*block)) return false;
  store_.Append(std::move(block), std::move(codes));
  return true;
}

bool Blockchain::Follow(const proto::Block& block) {
  return ValidateLinkage(block) && store_.Follow();
}

ChainCheck Blockchain::Audit() const {
  ChainCheck out;
  crypto::Digest prev{};
  std::uint64_t start = store_.FirstBlockNumber();
  if (start > 0) {
    // Pruned prefix: anchor on the oldest resident block's own header hash
    // and verify linkage from its successor onward.
    const auto anchor = store_.GetBlock(start);
    if (!anchor) return out;  // fully pruned; nothing auditable
    if (anchor->header.data_hash != anchor->DataHash()) {
      return {false, start, "data-hash mismatch"};
    }
    prev = anchor->header.Hash();
    ++start;
  }
  for (std::uint64_t n = start; n < store_.Height(); ++n) {
    const auto block = store_.GetBlock(n);
    if (block->header.number != n) {
      return {false, n, "block number mismatch"};
    }
    if (block->header.previous_hash != prev) {
      return {false, n, "previous-hash mismatch"};
    }
    if (block->header.data_hash != block->DataHash()) {
      return {false, n, "data-hash mismatch"};
    }
    prev = block->header.Hash();
  }
  return out;
}

}  // namespace fabricsim::ledger
