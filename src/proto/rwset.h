// Read/write sets (Fabric's kvrwset).
//
// During simulation (the execute phase) a chaincode records every key it
// read, with the version it observed, and every key it wrote. The committer
// later re-checks read versions against current state (MVCC validation).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "proto/bytes.h"

namespace fabricsim::proto {

/// Fabric versions state by (block number, tx index within block).
struct KeyVersion {
  std::uint64_t block_num = 0;
  std::uint32_t tx_num = 0;

  bool operator==(const KeyVersion&) const = default;
  auto operator<=>(const KeyVersion&) const = default;
};

/// A recorded read: the version is empty if the key did not exist.
struct KVRead {
  std::string key;
  std::optional<KeyVersion> version;

  bool operator==(const KVRead&) const = default;
};

/// A recorded write (or delete).
struct KVWrite {
  std::string key;
  Bytes value;
  bool is_delete = false;

  bool operator==(const KVWrite&) const = default;
};

/// A recorded range query (Fabric's range query info): the scanned
/// interval plus a digest of the (key, version) result sequence. The
/// committer re-executes the range at validation time and compares digests
/// — a mismatch is a phantom read (insert/delete/update within the range).
struct RangeRead {
  std::string start_key;
  std::string end_key;  // empty = to the end of the namespace
  crypto::Digest result_digest{};

  bool operator==(const RangeRead&) const = default;

  /// Canonical digest of an ordered (key, version) result sequence.
  static crypto::Digest HashResults(
      const std::vector<std::pair<std::string, KeyVersion>>& results);
};

/// The read/write set of one chaincode invocation within one namespace.
struct NsReadWriteSet {
  std::string ns;  // chaincode name
  std::vector<KVRead> reads;
  std::vector<RangeRead> range_reads;
  std::vector<KVWrite> writes;

  bool operator==(const NsReadWriteSet&) const = default;
};

/// A transaction's full simulation result.
struct TxReadWriteSet {
  std::vector<NsReadWriteSet> ns_rwsets;

  bool operator==(const TxReadWriteSet&) const = default;

  /// Writes the canonical encoding to `out` (see proto/bytes.h).
  template <typename Sink>
  void Encode(Sink& out) const;
  [[nodiscard]] Bytes Serialize() const { return EncodedBytes(*this); }
  static std::optional<TxReadWriteSet> Deserialize(BytesView data);

  /// Total number of reads / writes across namespaces.
  [[nodiscard]] std::size_t ReadCount() const;
  [[nodiscard]] std::size_t WriteCount() const;
};

/// Builder used by the chaincode shim: records reads/writes in order and
/// deduplicates (read-your-writes returns the pending write; later reads of
/// the same key do not add duplicate entries, matching Fabric's simulator).
class RwSetBuilder {
 public:
  explicit RwSetBuilder(std::string ns);

  /// Records a read of `key` at `version` (nullopt = key absent).
  void AddRead(const std::string& key, std::optional<KeyVersion> version);

  /// Records a range query over [start_key, end_key) with its results.
  void AddRangeRead(
      const std::string& start_key, const std::string& end_key,
      const std::vector<std::pair<std::string, KeyVersion>>& results);

  /// Records a write.
  void AddWrite(const std::string& key, Bytes value);

  /// Records a delete.
  void AddDelete(const std::string& key);

  /// If `key` was already written in this simulation, returns that pending
  /// value (nullopt value inside the optional means "deleted").
  [[nodiscard]] const KVWrite* PendingWrite(const std::string& key) const;

  /// True if `key` was already read.
  [[nodiscard]] bool HasRead(const std::string& key) const;

  [[nodiscard]] TxReadWriteSet Build() &&;

 private:
  NsReadWriteSet set_;
};

}  // namespace fabricsim::proto
