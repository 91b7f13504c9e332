// Key-history index (Fabric's history database).
//
// Records, per (namespace, key), the chronological list of valid
// transactions that wrote it, enabling GetHistoryForKey-style queries and
// giving tests an independent record to cross-check MVCC against.
//
// Built on demand: BuildHistory replays a block store's resident blocks and
// their validation codes, so no peer pays for an index while it commits
// (Fabric's history database is optional too). Under block retention the
// history covers resident blocks only, and the store alone decides which
// envelopes stay alive.
//
// Entries share the committed block's envelope instead of copying its tx id
// and value: each one holds the envelope and points at its write.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ledger/state_db.h"
#include "proto/block.h"

namespace fabricsim::ledger {

class BlockStore;

/// One historical modification of a key.
struct KeyModification {
  std::uint64_t block_num = 0;
  std::uint32_t tx_index = 0;
  proto::EnvelopePtr tx;                 // the writing transaction
  const proto::KVWrite* write = nullptr;  // inside *tx

  [[nodiscard]] const std::string& tx_id() const { return tx->tx_id; }
  [[nodiscard]] const proto::Bytes& value() const { return write->value; }
  [[nodiscard]] bool is_delete() const { return write->is_delete; }
};

class HistoryIndex {
 public:
  /// Indexes the writes of all VALID transactions in `block`.
  /// Outside BuildHistory, perfbench's ledger replay is its only reader.
  void IndexBlock(const proto::Block& block,
                  const std::vector<proto::ValidationCode>& codes);

  /// Keeps only the newest `cap` modifications per key (0 = keep all, the
  /// default). Perfbench's ledger replay is its only reader.
  void SetPerKeyCap(std::size_t cap) { per_key_cap_ = cap; }

  /// History of a key, oldest retained first. Empty if never written.
  [[nodiscard]] const std::vector<KeyModification>& HistoryFor(
      std::string_view ns, std::string_view key) const;

  /// Number of keys with a history, across all namespaces.
  [[nodiscard]] std::size_t TrackedKeys() const;

 private:
  StringMap<StringMap<std::vector<KeyModification>>> index_;  // ns -> key
  std::size_t per_key_cap_ = 0;
  static const std::vector<KeyModification> kEmpty;
};

/// The history of every key written by a valid transaction in `store`'s
/// resident blocks, oldest first. Under retention, writes in pruned blocks
/// are gone.
[[nodiscard]] HistoryIndex BuildHistory(const BlockStore& store);

}  // namespace fabricsim::ledger
