// Endorser: the execute phase of a peer (Fabric's endorser ProcessProposal).
//
// Performs the four §II checks — well-formed proposal, no replay, valid
// client signature, channel authorization — then simulates the chaincode
// against local committed state to produce the read/write set, and signs
// the response (ESCC).
#pragma once

#include <functional>

#include "chaincode/shim.h"
#include "crypto/ca.h"
#include "fabric/calibration.h"
#include "ledger/block_store.h"
#include "ledger/state_db.h"
#include "peer/peer_messages.h"

namespace fabricsim::peer {

/// Pure endorsement logic, independent of the simulation plumbing; PeerNode
/// wires it to the network and charges the CPU costs.
class Endorser {
 public:
  /// `state` returns the committed world state to simulate against (its
  /// peer's, as of the peer's height); `store` is the block store replays
  /// are screened against.
  Endorser(const crypto::Identity& identity, const crypto::MspRegistry& msps,
           const chaincode::Registry& chaincodes,
           std::function<ledger::StateView()> state,
           const ledger::BlockStore& store, std::string channel_id);

  /// Full ProcessProposal. Returns the response (success or a typed error).
  [[nodiscard]] proto::ProposalResponse Process(
      const proto::SignedProposal& signed_proposal) const;

  /// Nominal CPU cost of processing `sp` (checks + chaincode + ESCC).
  [[nodiscard]] sim::SimDuration CostOf(const proto::SignedProposal& sp,
                                        const fabric::Calibration& cal) const;

  [[nodiscard]] std::uint64_t Endorsed() const { return endorsed_; }
  [[nodiscard]] std::uint64_t Refused() const { return refused_; }

  /// Attack hook (forge-endorsement fault): corrupt the ESCC signature on
  /// every endorsement produced while set. The endorsement is otherwise
  /// well-formed — exactly what a compromised endorser key would emit — so
  /// it exercises the client-side verification and VSCC rejection paths.
  void SetForgeSignatures(bool on) { forge_signatures_ = on; }

 private:
  [[nodiscard]] proto::ProposalResponse Refuse(const std::string& tx_id,
                                               proto::EndorseStatus status) const;

  const crypto::Identity& identity_;
  const crypto::MspRegistry& msps_;
  const chaincode::Registry& chaincodes_;
  std::function<ledger::StateView()> state_;
  const ledger::BlockStore& store_;
  std::string channel_id_;
  mutable std::uint64_t endorsed_ = 0;
  mutable std::uint64_t refused_ = 0;
  bool forge_signatures_ = false;
};

}  // namespace fabricsim::peer
