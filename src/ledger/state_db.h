// Versioned world-state database (Fabric's LevelDB state database model).
//
// Every key holds a value plus the height-based version (block number,
// tx index) of the transaction that last wrote it. The endorser reads
// versions during simulation; the committer compares them during MVCC
// validation and bumps them at commit.
//
// Each namespace stores its entries (key, versioned value) in a deque and
// finds them through a flat open-addressing index (ledger/flat_index.h)
// whose slots hold the key's hash and the entry's position: the hot path —
// point reads in endorsement and MVCC, writes at commit — is O(1), probes
// without building a string, and allocates per chunk of entries rather
// than per key. Ordered range scans (GetStateByRange) are served by the
// namespace's own sorted position index, built lazily on first scan and
// invalidated only when that namespace's key *set* changes (new key,
// delete); overwrites keep it warm.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ledger/flat_index.h"
#include "proto/bytes.h"
#include "proto/rwset.h"

namespace fabricsim::ledger {

/// A value with its version, as stored.
struct VersionedValue {
  proto::Bytes value;
  proto::KeyVersion version;
};

/// In-memory versioned KV store, namespaced by chaincode.
class StateDb {
 public:
  /// Reads a key. Returns nullopt if absent (or deleted).
  [[nodiscard]] std::optional<VersionedValue> Get(std::string_view ns,
                                                  std::string_view key) const;

  /// Version-only read (what MVCC needs; cheaper than copying the value).
  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const;

  /// Writes a key at `version`.
  void Put(const std::string& ns, const std::string& key, proto::Bytes value,
           proto::KeyVersion version);

  /// Deletes a key. A no-op for an unknown namespace or key.
  void Delete(std::string_view ns, std::string_view key);

  /// Applies all writes of one transaction's rwset at `version`.
  void ApplyRwSet(const proto::TxReadWriteSet& rwset,
                  proto::KeyVersion version);

  /// Ordered range scan within a namespace: keys in [start_key, end_key)
  /// (an empty end_key means "to the end of the namespace"), with values
  /// and versions, in key order — Fabric's GetStateByRange.
  [[nodiscard]] std::vector<std::pair<std::string, VersionedValue>> GetRange(
      std::string_view ns, std::string_view start_key,
      std::string_view end_key) const;

  /// Number of live keys across all namespaces.
  [[nodiscard]] std::size_t KeyCount() const;

  /// Height of the last committed block (for recovery checks); updated by
  /// the committer via SetHeight.
  [[nodiscard]] std::uint64_t Height() const { return height_; }
  void SetHeight(std::uint64_t h) { height_ = h; }

 private:
  // One chaincode's keys. Erase moves the last entry into the hole, so
  // positions stay dense; the range index holds positions, which overwrites
  // keep valid. The deque is created on the first insert, so an empty
  // namespace allocates nothing.
  struct Namespace {
    using Entry = std::pair<std::string, VersionedValue>;

    /// Confirms an index hit: is the entry at a position this key's?
    [[nodiscard]] auto KeyIs(std::string_view key) const {
      return [this, key](std::uint32_t i) {
        return (*entries)[i].first == key;
      };
    }
    [[nodiscard]] const VersionedValue* Find(std::string_view key) const;

    std::optional<std::deque<Entry>> entries;
    FlatIndex<std::uint32_t> index;  // key hash -> entry position
    mutable std::vector<std::uint32_t> sorted;  // by key, when sorted_valid
    mutable bool sorted_valid = false;
  };

  [[nodiscard]] const Namespace* Find(std::string_view ns) const;
  static void PutIn(Namespace& space, const std::string& key,
                    proto::Bytes value, proto::KeyVersion version);
  static void EraseFrom(Namespace& space, std::string_view key);
  [[nodiscard]] const VersionedValue* Lookup(std::string_view ns,
                                             std::string_view key) const;
  static const std::vector<std::uint32_t>& Sorted(const Namespace& space);

  proto::StringMap<Namespace> namespaces_;
  std::uint64_t height_ = 0;
};

}  // namespace fabricsim::ledger
