// Endorsement policy AST.
//
// Policies are Boolean expressions over principals, as in Fabric:
//   OR('Org1MSP.peer','Org2MSP.peer')
//   AND('Org1MSP.peer','Org2MSP.peer')
//   OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')
// AND(...) = OutOf(n, ...), OR(...) = OutOf(1, ...).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/identity.h"

namespace fabricsim::policy {

enum class NodeKind : std::uint8_t { kPrincipal, kOutOf };

/// One node of the policy expression tree.
struct Node {
  NodeKind kind = NodeKind::kPrincipal;
  crypto::Principal principal;            // when kind == kPrincipal
  int threshold = 0;                      // when kind == kOutOf
  std::vector<std::unique_ptr<Node>> children;

  [[nodiscard]] std::unique_ptr<Node> Clone() const;
};

/// An immutable endorsement policy.
class EndorsementPolicy {
 public:
  /// Builds a policy from an expression tree (root must be non-null).
  explicit EndorsementPolicy(std::unique_ptr<Node> root);

  EndorsementPolicy(const EndorsementPolicy& other);
  EndorsementPolicy& operator=(const EndorsementPolicy& other);
  EndorsementPolicy(EndorsementPolicy&&) noexcept = default;
  EndorsementPolicy& operator=(EndorsementPolicy&&) noexcept = default;

  [[nodiscard]] const Node& Root() const { return *root_; }

  /// Canonical text form (normalized to OutOf where not pure AND/OR).
  [[nodiscard]] std::string ToString() const;

  /// Minimum number of endorsements that can satisfy the policy.
  [[nodiscard]] int MinEndorsements() const { return min_endorsements_; }

  /// Number of nodes in the expression tree (bounds the evaluator's stack).
  [[nodiscard]] std::size_t NodeCount() const { return node_count_; }

  /// All principals mentioned (with duplicates removed, in first-seen order).
  [[nodiscard]] std::vector<crypto::Principal> Principals() const;

  // --- convenience constructors -------------------------------------------

  /// OR over n copies of `p` distributed across orgs org1..orgN — the
  /// paper's "ORn": any one of the n target peers endorses.
  static EndorsementPolicy AnyOf(const std::vector<crypto::Principal>& ps);

  /// AND over the given principals — the paper's "ANDx".
  static EndorsementPolicy AllOf(const std::vector<crypto::Principal>& ps);

  /// OutOf(k, ps...).
  static EndorsementPolicy KOutOf(int k,
                                  const std::vector<crypto::Principal>& ps);

 private:
  std::unique_ptr<Node> root_;
  int min_endorsements_ = 0;
  std::size_t node_count_ = 0;
};

}  // namespace fabricsim::policy
