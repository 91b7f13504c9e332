// Endorsement-policy evaluation and endorsement planning.
//
// Evaluation answers VSCC's question: does this set of (already
// signature-verified) endorser principals satisfy the policy? Each endorser
// may be counted once, so AND('Org1MSP.peer','Org1MSP.peer') needs two
// distinct Org1 endorsers. Exact backtracking is used; policies are small.
// The search runs over one in-place goal stack and a signer bitmask, so
// Satisfied and SatisfiedPrefix allocate nothing for policies of up to 32
// nodes and up to 256 signers (and stay exact beyond).
//
// Planning answers the client SDK's question: which of the available
// endorsing peers should receive this proposal so that, if all respond, the
// policy is satisfied? A rotation parameter lets clients round-robin across
// equivalent choices (how the paper's workload balances OR policies).
#pragma once

#include <optional>
#include <vector>

#include "policy/policy.h"

namespace fabricsim::policy {

/// True if `signers` (by principal, each usable once) satisfies `policy`.
bool Satisfied(const EndorsementPolicy& policy,
               const std::vector<crypto::Principal>& signers);

/// Short-circuit support for VSCC (Thakkar-style validate-phase fix): the
/// smallest k such that the first k of `signers` satisfy `policy`, or
/// nullopt if even the full set cannot. Satisfaction is monotone in the
/// signer set — adding signers never unsatisfies — so checking only the
/// returned prefix yields the same verdict as checking everyone: a
/// committer may stop verifying endorsement signatures after k good ones
/// (satisfiable) or skip them all on nullopt (unsatisfiable).
std::optional<std::size_t> SatisfiedPrefix(
    const EndorsementPolicy& policy,
    const std::vector<crypto::Principal>& signers);

/// Chooses indices into `candidates` (each usable once) whose principals can
/// satisfy `policy`. Returns std::nullopt if impossible. Equivalent choices
/// are rotated by `rotation` for load balancing. Indices are sorted, unique.
std::optional<std::vector<std::size_t>> PlanEndorsers(
    const EndorsementPolicy& policy,
    const std::vector<crypto::Principal>& candidates, std::size_t rotation);

}  // namespace fabricsim::policy
