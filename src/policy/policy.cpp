#include "policy/policy.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace fabricsim::policy {

std::unique_ptr<Node> Node::Clone() const {
  auto out = std::make_unique<Node>();
  out->kind = kind;
  out->principal = principal;
  out->threshold = threshold;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

namespace {

int MinEndorse(const Node& n);
std::size_t CountNodes(const Node& n);

}  // namespace

EndorsementPolicy::EndorsementPolicy(std::unique_ptr<Node> root)
    : root_(std::move(root)) {
  if (!root_) throw std::invalid_argument("policy root must be non-null");
  min_endorsements_ = MinEndorse(*root_);
  node_count_ = CountNodes(*root_);
}

EndorsementPolicy::EndorsementPolicy(const EndorsementPolicy& other)
    : root_(other.root_->Clone()),
      min_endorsements_(other.min_endorsements_),
      node_count_(other.node_count_) {}

EndorsementPolicy& EndorsementPolicy::operator=(
    const EndorsementPolicy& other) {
  if (this != &other) {
    root_ = other.root_->Clone();
    min_endorsements_ = other.min_endorsements_;
    node_count_ = other.node_count_;
  }
  return *this;
}

namespace {

void Print(const Node& n, std::ostream& os) {
  if (n.kind == NodeKind::kPrincipal) {
    os << '\'' << n.principal.ToString() << '\'';
    return;
  }
  const int total = static_cast<int>(n.children.size());
  if (n.threshold == total) {
    os << "AND(";
  } else if (n.threshold == 1) {
    os << "OR(";
  } else {
    os << "OutOf(" << n.threshold << ',';
  }
  for (int i = 0; i < total; ++i) {
    if (i > 0) os << ',';
    Print(*n.children[static_cast<std::size_t>(i)], os);
  }
  os << ')';
}

int MinEndorse(const Node& n) {
  if (n.kind == NodeKind::kPrincipal) return 1;
  std::vector<int> costs;
  costs.reserve(n.children.size());
  for (const auto& c : n.children) costs.push_back(MinEndorse(*c));
  std::sort(costs.begin(), costs.end());
  int sum = 0;
  const int k = std::min<int>(n.threshold, static_cast<int>(costs.size()));
  for (int i = 0; i < k; ++i) sum += costs[static_cast<std::size_t>(i)];
  return sum;
}

std::size_t CountNodes(const Node& n) {
  std::size_t count = 1;
  for (const auto& c : n.children) count += CountNodes(*c);
  return count;
}

void Collect(const Node& n, std::vector<crypto::Principal>& out) {
  if (n.kind == NodeKind::kPrincipal) {
    if (std::find(out.begin(), out.end(), n.principal) == out.end()) {
      out.push_back(n.principal);
    }
    return;
  }
  for (const auto& c : n.children) Collect(*c, out);
}

std::unique_ptr<Node> MakeOutOf(int k,
                                const std::vector<crypto::Principal>& ps) {
  if (ps.empty()) throw std::invalid_argument("policy needs >= 1 principal");
  if (k < 1 || k > static_cast<int>(ps.size())) {
    throw std::invalid_argument("policy threshold out of range");
  }
  auto root = std::make_unique<Node>();
  root->kind = NodeKind::kOutOf;
  root->threshold = k;
  for (const auto& p : ps) {
    auto child = std::make_unique<Node>();
    child->kind = NodeKind::kPrincipal;
    child->principal = p;
    root->children.push_back(std::move(child));
  }
  return root;
}

}  // namespace

std::string EndorsementPolicy::ToString() const {
  std::ostringstream os;
  Print(*root_, os);
  return os.str();
}

std::vector<crypto::Principal> EndorsementPolicy::Principals() const {
  std::vector<crypto::Principal> out;
  Collect(*root_, out);
  return out;
}

EndorsementPolicy EndorsementPolicy::AnyOf(
    const std::vector<crypto::Principal>& ps) {
  return EndorsementPolicy(MakeOutOf(1, ps));
}

EndorsementPolicy EndorsementPolicy::AllOf(
    const std::vector<crypto::Principal>& ps) {
  return EndorsementPolicy(MakeOutOf(static_cast<int>(ps.size()), ps));
}

EndorsementPolicy EndorsementPolicy::KOutOf(
    int k, const std::vector<crypto::Principal>& ps) {
  return EndorsementPolicy(MakeOutOf(k, ps));
}

}  // namespace fabricsim::policy
