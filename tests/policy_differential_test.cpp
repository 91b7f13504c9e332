// Differential test of the endorsement-policy evaluator: the in-place search
// in policy/evaluator.cpp against the straightforward recursive evaluator it
// replaced (kept here as the reference), over random policies and signer
// sets. Verdicts of Satisfied and SatisfiedPrefix must agree, and
// PlanEndorsers must return the identical vector at every rotation — the
// client's choice of endorsers, and so every simulated run, depends on it.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/evaluator.h"
#include "policy/policy.h"
#include "sim/rng.h"

namespace fabricsim::policy {
namespace {

using crypto::Principal;
using crypto::Role;

// --- reference evaluator ---------------------------------------------------

bool RefMatches(const Principal& signer, const Principal& wanted) {
  if (signer.msp_id != wanted.msp_id) return false;
  return signer.role == wanted.role || signer.role == Role::kAdmin;
}

// Backtracking over a goal list copied at every step; OutOf goals expand
// into each k-combination of their children, rotated.
class RefSat {
 public:
  RefSat(const std::vector<Principal>& signers, std::size_t rotation)
      : signers_(signers), rotation_(rotation) {}

  bool Solve(std::vector<const Node*> goals, std::vector<bool>& used,
             std::vector<std::size_t>* chosen) {
    if (goals.empty()) return true;
    const Node* goal = goals.back();
    goals.pop_back();
    if (goal->kind == NodeKind::kPrincipal) {
      const std::size_t n = signers_.size();
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t i = (t + rotation_) % n;
        if (used[i] || !RefMatches(signers_[i], goal->principal)) continue;
        used[i] = true;
        if (chosen) chosen->push_back(i);
        if (Solve(goals, used, chosen)) return true;
        if (chosen) chosen->pop_back();
        used[i] = false;
      }
      return false;
    }
    std::vector<int> combo;
    return TryCombos(*goal, 0, goal->threshold,
                     static_cast<int>(goal->children.size()), combo, goals,
                     used, chosen);
  }

 private:
  bool TryCombos(const Node& node, int start, int remaining, int total,
                 std::vector<int>& combo, std::vector<const Node*>& goals,
                 std::vector<bool>& used, std::vector<std::size_t>* chosen) {
    if (remaining == 0) {
      std::vector<const Node*> next = goals;
      for (int idx : combo) {
        const int rotated =
            (idx + static_cast<int>(rotation_ % static_cast<std::size_t>(total))) %
            total;
        next.push_back(node.children[static_cast<std::size_t>(rotated)].get());
      }
      return Solve(std::move(next), used, chosen);
    }
    for (int i = start; i <= total - remaining; ++i) {
      combo.push_back(i);
      if (TryCombos(node, i + 1, remaining - 1, total, combo, goals, used,
                    chosen)) {
        return true;
      }
      combo.pop_back();
    }
    return false;
  }

  const std::vector<Principal>& signers_;
  std::size_t rotation_;
};

bool RefSatisfied(const EndorsementPolicy& policy,
                  const std::vector<Principal>& signers) {
  if (signers.empty()) return false;
  std::vector<bool> used(signers.size(), false);
  return RefSat(signers, 0).Solve({&policy.Root()}, used, nullptr);
}

std::optional<std::size_t> RefSatisfiedPrefix(
    const EndorsementPolicy& policy, const std::vector<Principal>& signers) {
  if (!RefSatisfied(policy, signers)) return std::nullopt;
  const auto min_k =
      static_cast<std::size_t>(std::max(policy.MinEndorsements(), 1));
  for (std::size_t k = min_k; k < signers.size(); ++k) {
    const std::vector<Principal> prefix(
        signers.begin(), signers.begin() + static_cast<std::ptrdiff_t>(k));
    if (RefSatisfied(policy, prefix)) return k;
  }
  return signers.size();
}

std::optional<std::vector<std::size_t>> RefPlanEndorsers(
    const EndorsementPolicy& policy, const std::vector<Principal>& candidates,
    std::size_t rotation) {
  if (candidates.empty()) return std::nullopt;
  std::vector<bool> used(candidates.size(), false);
  std::vector<std::size_t> chosen;
  if (!RefSat(candidates, rotation).Solve({&policy.Root()}, used, &chosen)) {
    return std::nullopt;
  }
  std::sort(chosen.begin(), chosen.end());
  chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
  return chosen;
}

// --- random inputs ---------------------------------------------------------

Role RandomRole(sim::Rng& rng) {
  static constexpr Role kRoles[] = {Role::kPeer, Role::kPeer, Role::kAdmin,
                                    Role::kClient};
  return kRoles[rng.NextBelow(4)];
}

Principal RandomPrincipal(sim::Rng& rng, int orgs) {
  return {"Org" + std::to_string(rng.NextBelow(static_cast<std::uint64_t>(orgs))),
          RandomRole(rng)};
}

std::unique_ptr<Node> Leaf(Principal p) {
  auto n = std::make_unique<Node>();
  n->kind = NodeKind::kPrincipal;
  n->principal = std::move(p);
  return n;
}

// Nested OutOf over a few orgs, so principals repeat across branches.
std::unique_ptr<Node> RandomNode(sim::Rng& rng, int depth) {
  if (depth == 0 || rng.NextBool(0.4)) return Leaf(RandomPrincipal(rng, 4));
  auto n = std::make_unique<Node>();
  n->kind = NodeKind::kOutOf;
  const int width = static_cast<int>(rng.NextInRange(1, depth == 3 ? 4 : 3));
  for (int i = 0; i < width; ++i) n->children.push_back(RandomNode(rng, depth - 1));
  n->threshold = static_cast<int>(rng.NextInRange(1, width));
  return n;
}

std::vector<Principal> RandomSigners(sim::Rng& rng, int max_count, int orgs) {
  std::vector<Principal> out(rng.NextBelow(static_cast<std::uint64_t>(max_count) + 1));
  for (auto& p : out) p = RandomPrincipal(rng, orgs);
  return out;
}

void ExpectSameVerdicts(const EndorsementPolicy& policy,
                        const std::vector<Principal>& signers,
                        std::size_t rotations) {
  ASSERT_EQ(Satisfied(policy, signers), RefSatisfied(policy, signers))
      << policy.ToString();
  ASSERT_EQ(SatisfiedPrefix(policy, signers),
            RefSatisfiedPrefix(policy, signers))
      << policy.ToString();
  for (std::size_t rot = 0; rot < rotations; ++rot) {
    ASSERT_EQ(PlanEndorsers(policy, signers, rot),
              RefPlanEndorsers(policy, signers, rot))
        << policy.ToString() << " rotation " << rot;
  }
}

TEST(PolicyDifferential, RandomNestedPoliciesAgreeWithTheReference) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 600; ++trial) {
    const EndorsementPolicy policy(RandomNode(rng, 3));
    const auto signers = RandomSigners(rng, 7, 4);
    ExpectSameVerdicts(policy, signers, signers.size() + 2);
  }
}

// More than 64 children and more than 64 candidates: the goal stack spills
// from inline storage to the heap, the signer bitmask spans several words,
// and past 256 candidates it spills too.
std::unique_ptr<Node> WideOutOf(int threshold, int width) {
  auto n = std::make_unique<Node>();
  n->kind = NodeKind::kOutOf;
  n->threshold = threshold;
  for (int i = 0; i < width; ++i) {
    n->children.push_back(Leaf({"Org" + std::to_string(i), Role::kPeer}));
  }
  return n;
}

TEST(PolicyDifferential, WidePoliciesAndCandidateSetsAgreeWithTheReference) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int width = static_cast<int>(rng.NextInRange(65, 80));
    const int threshold = static_cast<int>(rng.NextInRange(1, 2));
    const EndorsementPolicy policy(WideOutOf(threshold, width));
    std::vector<Principal> signers(trial % 5 == 0 ? 257 + rng.NextBelow(40)
                                                  : rng.NextBelow(101));
    for (auto& p : signers) p = RandomPrincipal(rng, 160);
    ExpectSameVerdicts(policy, signers, signers.size() + 1);
  }
}

TEST(PolicyDifferential, WideAndOverShuffledCandidatesAgreesWithTheReference) {
  sim::Rng rng(11);
  const int width = 70;
  for (int trial = 0; trial < 6; ++trial) {
    const EndorsementPolicy policy(WideOutOf(width, width));
    std::vector<Principal> signers;
    for (int i = 0; i < width + 10; ++i) {
      signers.push_back({"Org" + std::to_string(i % (width + 5)), Role::kPeer});
    }
    for (std::size_t i = signers.size() - 1; i > 0; --i) {
      std::swap(signers[i], signers[rng.NextBelow(i + 1)]);
    }
    if (trial % 2 == 1) signers.erase(signers.begin() + trial);  // may miss one
    ExpectSameVerdicts(policy, signers, 5);
  }
}

}  // namespace
}  // namespace fabricsim::policy
