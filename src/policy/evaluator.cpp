#include "policy/evaluator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>

namespace fabricsim::policy {
namespace {

bool IdentityMatches(const crypto::Principal& signer,
                     const crypto::Principal& wanted) {
  if (signer.msp_id != wanted.msp_id) return false;
  return signer.role == wanted.role || signer.role == crypto::Role::kAdmin;
}

// A zeroed array of a size fixed at construction: inline up to N elements,
// one heap block beyond that (wider than any paper policy or signer set).
template <typename T, std::size_t N>
class SmallArray {
 public:
  explicit SmallArray(std::size_t n)
      : data_(n <= N ? inline_.data()
                     : (heap_ = std::make_unique<T[]>(n)).get()) {}
  SmallArray(const SmallArray&) = delete;
  SmallArray& operator=(const SmallArray&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::array<T, N> inline_{};
  std::unique_ptr<T[]> heap_;
  T* data_;
};

// Backtracking satisfaction over one stack of pending goals, searched in
// place. Each goal is a policy node; the top one is taken first. A
// principal goal claims an unused signer (a bit in `used_`); an OutOf goal
// is replaced by each k-combination of its children in turn. A failed
// branch restores the stack slots it overwrote, so nothing is copied.
class Sat {
 public:
  Sat(const EndorsementPolicy& policy, const crypto::Principal* signers,
      std::size_t n, std::size_t rotation)
      : signers_(signers),
        n_(n),
        rotation_(rotation),
        goals_(policy.NodeCount()),
        used_((n + 63) / 64) {
    goals_[0] = &policy.Root();
  }

  bool Solve() { return Solve(1); }

  [[nodiscard]] bool Used(std::size_t i) const {
    return ((used_[i / 64] >> (i % 64)) & 1U) != 0;
  }

  [[nodiscard]] std::size_t UsedCount() const {
    std::size_t count = 0;
    for (std::size_t w = 0; w < (n_ + 63) / 64; ++w) {
      count += static_cast<std::size_t>(std::popcount(used_[w]));
    }
    return count;
  }

 private:
  // Satisfies goals_[0, depth). On failure goals_[0, depth) is as it was.
  bool Solve(std::size_t depth) {
    if (depth == 0) return true;
    const Node* goal = goals_[depth - 1];
    const bool ok = goal->kind == NodeKind::kPrincipal
                        ? Claim(*goal, depth - 1)
                        : Combos(*goal, 0, goal->threshold, depth - 1);
    if (!ok) goals_[depth - 1] = goal;  // the children overwrote its slot
    return ok;
  }

  // Tries each unused matching signer, starting at the rotation, for the
  // principal goal, then solves the `rest` goals below it.
  bool Claim(const Node& goal, std::size_t rest) {
    for (std::size_t t = 0; t < n_; ++t) {
      const std::size_t i = (t + rotation_) % n_;
      if (Used(i) || !IdentityMatches(signers_[i], goal.principal)) continue;
      Flip(i);
      if (Solve(rest)) return true;
      Flip(i);
    }
    return false;
  }

  // Writes each `remaining`-combination of node's children with indices >=
  // `start` (lexicographic, rotated so equivalent plans spread load) to
  // goals_[pos...], the first child lowest, and solves the stack.
  bool Combos(const Node& node, int start, int remaining, std::size_t pos) {
    if (remaining == 0) return Solve(pos);
    const auto total = static_cast<int>(node.children.size());
    if (total == 0 || remaining < 0) return false;
    const int shift =
        static_cast<int>(rotation_ % static_cast<std::size_t>(total));
    for (int i = start; i <= total - remaining; ++i) {
      goals_[pos] =
          node.children[static_cast<std::size_t>((i + shift) % total)].get();
      if (Combos(node, i + 1, remaining - 1, pos + 1)) return true;
    }
    return false;
  }

  void Flip(std::size_t i) { used_[i / 64] ^= std::uint64_t{1} << (i % 64); }

  const crypto::Principal* signers_;
  std::size_t n_;
  std::size_t rotation_;
  // Every node is on the stack at most once along a search path, so the
  // policy's node count bounds its depth.
  SmallArray<const Node*, 32> goals_;
  SmallArray<std::uint64_t, 4> used_;
};

// True if the first `n` of `signers` satisfy `policy`.
bool SatisfiedBy(const EndorsementPolicy& policy,
                 const crypto::Principal* signers, std::size_t n) {
  if (n == 0) return false;
  return Sat(policy, signers, n, 0).Solve();
}

}  // namespace

bool Satisfied(const EndorsementPolicy& policy,
               const std::vector<crypto::Principal>& signers) {
  return SatisfiedBy(policy, signers.data(), signers.size());
}

std::optional<std::size_t> SatisfiedPrefix(
    const EndorsementPolicy& policy,
    const std::vector<crypto::Principal>& signers) {
  if (!Satisfied(policy, signers)) return std::nullopt;
  // Policies are small; grow the prefix from the cheapest possible
  // satisfying size. Satisfaction is exact, so the first k that passes is
  // the minimal one.
  const auto min_k =
      static_cast<std::size_t>(std::max(policy.MinEndorsements(), 1));
  for (std::size_t k = min_k; k < signers.size(); ++k) {
    if (SatisfiedBy(policy, signers.data(), k)) return k;
  }
  return signers.size();
}

std::optional<std::vector<std::size_t>> PlanEndorsers(
    const EndorsementPolicy& policy,
    const std::vector<crypto::Principal>& candidates, std::size_t rotation) {
  if (candidates.empty()) return std::nullopt;
  Sat sat(policy, candidates.data(), candidates.size(), rotation);
  if (!sat.Solve()) return std::nullopt;
  // The plan is exactly the claimed signers, in index order.
  std::vector<std::size_t> chosen;
  chosen.reserve(sat.UsedCount());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (sat.Used(i)) chosen.push_back(i);
  }
  return chosen;
}

}  // namespace fabricsim::policy
