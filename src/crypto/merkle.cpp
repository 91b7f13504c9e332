#include "crypto/merkle.h"

namespace fabricsim::crypto {
namespace {
constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInteriorTag = 0x01;

std::vector<Digest> HashLeaves(const std::vector<proto::Bytes>& leaves) {
  std::vector<Digest> digests;
  digests.reserve(leaves.size());
  for (const auto& leaf : leaves) digests.push_back(MerkleTree::HashLeaf(leaf));
  return digests;
}
}  // namespace

Digest MerkleTree::HashLeaf(proto::BytesView payload) {
  Sha256 h = LeafHasher();
  h.Update(payload);
  return h.Finalize();
}

Sha256 MerkleTree::LeafHasher() {
  Sha256 h;
  h.Update(proto::BytesView(&kLeafTag, 1));
  return h;
}

Digest MerkleTree::HashInterior(const Digest& left, const Digest& right) {
  Sha256 h;
  h.Update(proto::BytesView(&kInteriorTag, 1));
  h.Update(proto::BytesView(left.data(), left.size()));
  h.Update(proto::BytesView(right.data(), right.size()));
  return h.Finalize();
}

MerkleTree::MerkleTree(const std::vector<proto::Bytes>& leaves)
    : MerkleTree(LeafDigests{}, HashLeaves(leaves)) {}

MerkleTree MerkleTree::FromLeafDigests(std::vector<Digest> leaf_digests) {
  return MerkleTree(LeafDigests{}, std::move(leaf_digests));
}

MerkleTree::MerkleTree(LeafDigests, std::vector<Digest> leaf_digests) {
  leaf_count_ = leaf_digests.size();
  if (leaf_digests.empty()) {
    root_ = Hash(proto::BytesView{});
    return;
  }
  levels_.push_back(std::move(leaf_digests));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      const Digest& left = prev[i];
      const Digest& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(HashInterior(left, right));
    }
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

MerklePath MerkleTree::PathFor(std::size_t index) const {
  MerklePath path;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& nodes = levels_[lvl];
    const std::size_t sibling =
        (index % 2 == 0) ? (index + 1 < nodes.size() ? index + 1 : index)
                         : index - 1;
    MerkleStep step;
    step.sibling = nodes[sibling];
    step.sibling_on_left = (index % 2 == 1);
    path.push_back(step);
    index /= 2;
  }
  return path;
}

bool MerkleTree::Verify(const proto::Bytes& leaf, const MerklePath& path,
                        const Digest& root) {
  Digest acc = HashLeaf(leaf);
  for (const auto& step : path) {
    acc = step.sibling_on_left ? HashInterior(step.sibling, acc)
                               : HashInterior(acc, step.sibling);
  }
  return acc == root;
}

}  // namespace fabricsim::crypto
