// Merkle tree over transaction payloads.
//
// Fabric's block data hash is computed over the serialized transaction list;
// v1.x uses a flat hash, but the block metadata design anticipates Merkle
// aggregation. We provide a real binary Merkle tree (duplicate-last-leaf for
// odd levels, as in Bitcoin) and use its root as the block data hash, plus
// audit-path generation/verification so tests can check inclusion proofs.
#pragma once

#include <cstddef>
#include <vector>

#include "crypto/sha256.h"
#include "proto/bytes.h"

namespace fabricsim::crypto {

/// One step of an audit path: a sibling digest plus its side.
struct MerkleStep {
  Digest sibling{};
  bool sibling_on_left = false;
};

using MerklePath = std::vector<MerkleStep>;

/// Immutable Merkle tree built over a list of leaf payloads.
class MerkleTree {
 public:
  /// Builds the tree. An empty leaf list yields the hash of the empty string
  /// as root (matching an empty block's data hash).
  explicit MerkleTree(const std::vector<proto::Bytes>& leaves);

  /// Builds the tree over leaf digests already hashed with HashLeaf, so a
  /// caller that can stream each leaf's parts never concatenates them.
  static MerkleTree FromLeafDigests(std::vector<Digest> leaf_digests);

  [[nodiscard]] const Digest& Root() const { return root_; }
  [[nodiscard]] std::size_t LeafCount() const { return leaf_count_; }

  /// Audit path for leaf `index`. Precondition: index < LeafCount().
  [[nodiscard]] MerklePath PathFor(std::size_t index) const;

  /// Verifies that `leaf` at the position implied by `path` hashes to `root`.
  static bool Verify(const proto::Bytes& leaf, const MerklePath& path,
                     const Digest& root);

  /// Hashes a leaf payload (domain-separated from interior nodes).
  static Digest HashLeaf(proto::BytesView payload);

  /// A hasher that has absorbed the leaf tag: feeding it a payload and
  /// finalizing yields HashLeaf(payload), for payloads streamed in pieces.
  static Sha256 LeafHasher();

  /// Hashes two child digests into a parent (domain-separated).
  static Digest HashInterior(const Digest& left, const Digest& right);

 private:
  struct LeafDigests {};
  MerkleTree(LeafDigests, std::vector<Digest> leaf_digests);

  std::size_t leaf_count_ = 0;
  // levels_[0] = leaf digests, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
};

}  // namespace fabricsim::crypto
