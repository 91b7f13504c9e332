// MVCC read/write-conflict validation (Fabric's "MVCC check").
//
// For each transaction of a block, in order, every recorded read version
// must equal the key's current committed version — where "current" includes
// writes of *earlier valid transactions in the same block* (Fabric applies
// an in-block pending view). Valid transactions then bump their write keys'
// versions to (block number, tx index).
#pragma once

#include <vector>

#include "ledger/state_db.h"
#include "proto/block.h"

namespace fabricsim::ledger {

/// Result of validating one block.
struct MvccResult {
  std::vector<proto::ValidationCode> codes;  // one per transaction
  std::size_t valid_count = 0;
  std::size_t conflict_count = 0;
};

class MvccValidator {
 public:
  /// Validates the block's transactions against `state`. Transactions
  /// already flagged invalid in `precomputed` (e.g. by VSCC) keep their code
  /// and do not apply writes. Does not mutate `state`.
  [[nodiscard]] static MvccResult Validate(
      const proto::Block& block, const StateDb& state,
      const std::vector<proto::ValidationCode>* precomputed = nullptr);

  /// Applies the writes of all VALID transactions of `block` (per `codes`)
  /// to `state` and bumps the state height. Call after Validate.
  static void Commit(const proto::Block& block,
                     const std::vector<proto::ValidationCode>& codes,
                     StateDb& state);
};

}  // namespace fabricsim::ledger
