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
//
// Reads as of a height. One store can serve several readers that commit
// the same blocks at different times (the peers of one channel). A version
// written by block b is visible at height h iff b < h; genesis seeds
// (version {0,0}) are visible at every height. The store keeps no record of
// its readers: its owner tells it the lowest reader height through
// Collect(oldest). While that height is at or below a write's block, the
// write keeps the version it supersedes, and a delete leaves a tombstone,
// so a reader behind it still sees the state as of its own height; each
// Collect drops the versions no reader at or above `oldest` can see any
// more. A store that is never collected — standalone use — has no reader
// behind its head: writes overwrite and delete in place, exactly as a
// single-reader store.
#pragma once

#include <algorithm>
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
  /// The height that sees every version: reads "at the head".
  static constexpr std::uint64_t kHead = ~std::uint64_t{0};

  /// Reads a key as of `height`. Returns nullopt if absent (or deleted).
  [[nodiscard]] std::optional<VersionedValue> Get(
      std::string_view ns, std::string_view key,
      std::uint64_t height = kHead) const;

  /// Version-only read (what MVCC needs; cheaper than copying the value).
  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key,
      std::uint64_t height = kHead) const;

  /// Writes a key at `version`.
  void Put(const std::string& ns, const std::string& key, proto::Bytes value,
           proto::KeyVersion version);

  /// Deletes a key; `version` dates the delete for readers behind it. A
  /// no-op for an unknown namespace or key.
  void Delete(std::string_view ns, std::string_view key,
              proto::KeyVersion version = {});

  /// Applies all writes of one transaction's rwset at `version`.
  void ApplyRwSet(const proto::TxReadWriteSet& rwset,
                  proto::KeyVersion version);

  /// Ordered range scan within a namespace as of `height`: keys in
  /// [start_key, end_key) (an empty end_key means "to the end of the
  /// namespace"), with values and versions, in key order — Fabric's
  /// GetStateByRange.
  [[nodiscard]] std::vector<std::pair<std::string, VersionedValue>> GetRange(
      std::string_view ns, std::string_view start_key,
      std::string_view end_key, std::uint64_t height = kHead) const;

  /// Calls fn(key, versioned value) for each key GetRange would return,
  /// without copying either.
  template <typename Fn>
  void ForEachInRange(std::string_view ns, std::string_view start_key,
                      std::string_view end_key, std::uint64_t height,
                      Fn&& fn) const;

  /// Number of live keys across all namespaces, as of `height`.
  [[nodiscard]] std::size_t KeyCount(std::uint64_t height = kHead) const;

  /// Height of the last committed block (for recovery checks); updated by
  /// the committer via SetHeight.
  [[nodiscard]] std::uint64_t Height() const { return height_; }
  void SetHeight(std::uint64_t h) { height_ = h; }

  /// Sets the lowest height any reader reads at, then drops the versions
  /// no reader at or above it can see. Reads below it may miss versions
  /// that were dropped.
  void Collect(std::uint64_t oldest);
  /// Superseded versions and tombstones held for readers behind the head.
  [[nodiscard]] std::size_t RetainedVersions() const;

  /// A standalone copy of the state as of `height`: live keys only, no
  /// retained versions; its Height() is `height` (or this store's height,
  /// if lower).
  [[nodiscard]] StateDb Snapshot(std::uint64_t height) const;

 private:
  /// One version of a key; a tombstone records a delete.
  struct Version {
    VersionedValue vv;
    bool deleted = false;
  };
  /// A key with its newest version and, only while a reader is behind it,
  /// the versions that one superseded (newest first).
  struct Entry {
    std::string key;
    Version newest;
    std::vector<Version> older;
  };

  // One chaincode's keys. Erase moves the last entry into the hole, so
  // positions stay dense; the range index holds positions, which overwrites
  // keep valid. The entries deque is created on the first insert.
  struct Namespace {
    /// Confirms an index hit: is the entry at a position this key's?
    [[nodiscard]] auto KeyIs(std::string_view key) const {
      return [this, key](std::uint32_t i) { return (*entries)[i].key == key; };
    }
    [[nodiscard]] const Entry* Find(std::string_view key) const;

    std::optional<std::deque<Entry>> entries;
    FlatIndex<std::uint32_t> index;  // key hash -> entry position
    std::size_t tombstones = 0;      // entries whose newest is a delete
    // Keys whose older versions await collection, with the block of the
    // write that superseded them (non-decreasing, as commits are).
    std::deque<std::pair<std::uint64_t, std::string>> retained;
    mutable std::vector<std::uint32_t> sorted;  // by key, when sorted_valid
    mutable bool sorted_valid = false;
  };

  /// A version written by block b is visible at height h iff b < h;
  /// genesis seeds always are.
  static bool Visible(const proto::KeyVersion& v, std::uint64_t height) {
    return v.block_num < height || v.block_num == 0;
  }
  /// The version of `e` a reader at `height` sees, or nullptr.
  static const Version* AsOf(const Entry& e, std::uint64_t height);
  /// True while some reader cannot see a write of `block`.
  [[nodiscard]] bool Lagging(std::uint64_t block) const {
    return oldest_ <= block;
  }

  [[nodiscard]] const Namespace* Find(std::string_view ns) const;
  void PutIn(Namespace& space, const std::string& key, proto::Bytes value,
             proto::KeyVersion version);
  void EraseFrom(Namespace& space, std::string_view key,
                 proto::KeyVersion version);
  static void RemoveEntry(Namespace& space, std::uint32_t pos);
  /// Keeps `e.newest` for the readers behind a write at `version` and queues
  /// the key for collection.
  static void Supersede(Namespace& space, Entry& e,
                        proto::KeyVersion version);
  void Prune(Namespace& space, std::string_view key);
  [[nodiscard]] const VersionedValue* Lookup(std::string_view ns,
                                             std::string_view key,
                                             std::uint64_t height) const;
  static const std::vector<std::uint32_t>& Sorted(const Namespace& space);

  proto::StringMap<Namespace> namespaces_;
  std::uint64_t height_ = 0;
  std::uint64_t oldest_ = kHead;  // the lowest reader height, see Collect
};

/// A StateDb read as of one height: what a peer at that height sees. Reads
/// at the head by default, so a StateDb converts to its own view.
class StateView {
 public:
  StateView(const StateDb& db,  // NOLINT(google-explicit-constructor)
            std::uint64_t height = StateDb::kHead)
      : db_(&db), height_(height) {}

  [[nodiscard]] std::optional<VersionedValue> Get(std::string_view ns,
                                                  std::string_view key) const {
    return db_->Get(ns, key, height_);
  }
  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const {
    return db_->GetVersion(ns, key, height_);
  }
  [[nodiscard]] std::vector<std::pair<std::string, VersionedValue>> GetRange(
      std::string_view ns, std::string_view start_key,
      std::string_view end_key) const {
    return db_->GetRange(ns, start_key, end_key, height_);
  }
  [[nodiscard]] std::size_t KeyCount() const { return db_->KeyCount(height_); }
  [[nodiscard]] std::uint64_t Height() const { return height_; }

  /// A standalone copy of what this view sees.
  operator StateDb() const {  // NOLINT(google-explicit-constructor)
    return db_->Snapshot(height_);
  }

 private:
  const StateDb* db_;
  std::uint64_t height_;
};

template <typename Fn>
void StateDb::ForEachInRange(std::string_view ns, std::string_view start_key,
                             std::string_view end_key, std::uint64_t height,
                             Fn&& fn) const {
  const Namespace* space = Find(ns);
  if (space == nullptr || space->index.Size() == 0) return;
  const auto& entries = *space->entries;
  const auto& sorted = Sorted(*space);
  auto it = std::lower_bound(sorted.begin(), sorted.end(), start_key,
                             [&](std::uint32_t i, std::string_view k) {
                               return entries[i].key < k;
                             });
  for (; it != sorted.end(); ++it) {
    const Entry& e = entries[*it];
    if (!end_key.empty() && e.key >= end_key) break;
    const Version* v = AsOf(e, height);
    if (v != nullptr && !v->deleted) fn(e.key, v->vv);
  }
}

}  // namespace fabricsim::ledger
