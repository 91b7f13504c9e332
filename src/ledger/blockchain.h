// Hash-chained blockchain wrapper around the block store.
//
// Enforces that appended blocks link correctly (number sequential, previous
// hash matches the tip's header hash, data hash matches the transactions)
// and can audit the full chain — the immutability property tests rely on it.
#pragma once

#include <string>

#include "ledger/block_store.h"

namespace fabricsim::ledger {

/// Outcome of a chain-integrity check.
struct ChainCheck {
  bool ok = true;
  std::uint64_t bad_block = 0;
  std::string reason;
};

class Blockchain {
 public:
  /// A standalone chain on a private block log.
  Blockchain() = default;
  /// A chain whose store is a view of `log`, its channel's block log.
  explicit Blockchain(std::shared_ptr<BlockLog> log) : store_(std::move(log)) {}

  /// Validates the block's linkage and appends it (with the committer's
  /// per-transaction validation codes, if any).
  /// Returns false (and stores nothing) if linkage or data hash is wrong.
  bool Append(proto::BlockPtr block,
              std::vector<proto::ValidationCode> codes = {});

  /// Validates `block`'s linkage and advances over the block the store's
  /// shared log holds at this height, which the caller has established is
  /// `block` with the codes it would store (see BlockStore::Follow).
  /// Returns false (and stores nothing) if linkage is wrong or the log
  /// holds no block there.
  bool Follow(const proto::Block& block);

  [[nodiscard]] std::uint64_t Height() const { return store_.Height(); }
  [[nodiscard]] const BlockStore& Store() const { return store_; }
  [[nodiscard]] BlockStore& MutableStore() { return store_; }

  /// Hash of the current tip's header (all-zero before genesis).
  [[nodiscard]] crypto::Digest TipHash() const;

  /// Walks the resident chain re-checking every link and data hash. Under
  /// retention the audit starts at the first block whose predecessor is
  /// still resident (linkage of the oldest resident block has no anchor).
  [[nodiscard]] ChainCheck Audit() const;

  /// Validates linkage of `block` against the current tip without appending.
  [[nodiscard]] bool ValidateLinkage(const proto::Block& block,
                                     std::string* reason = nullptr) const;

  /// Failpoint: skip ValidateLinkage's data-hash arm (number and
  /// previous-hash stay enforced) so tamper-block drills can land a forged
  /// payload on the ledger and show the no-forged-commit invariant fire.
  /// Audit() is unaffected. Never set in production runs.
  void SetDataHashCheckDisabled(bool disabled) {
    data_hash_check_disabled_ = disabled;
  }

 private:
  BlockStore store_;
  bool data_hash_check_disabled_ = false;  // failpoint
};

}  // namespace fabricsim::ledger
