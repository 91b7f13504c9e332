// Wire messages between clients and peers (endorsement RPCs and the commit
// event service).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ledger/block_store.h"
#include "proto/block.h"
#include "proto/proposal.h"
#include "proto/transaction.h"
#include "sim/network.h"

namespace fabricsim::peer {

/// Client -> endorsing peer: ProcessProposal RPC.
class EndorseRequestMsg final : public sim::Message {
 public:
  EndorseRequestMsg(std::shared_ptr<const proto::SignedProposal> proposal,
                    std::size_t wire_size, sim::SimTime sent_at = 0)
      : proposal_(std::move(proposal)),
        wire_size_(wire_size),
        sent_at_(sent_at) {}

  [[nodiscard]] const proto::SignedProposal& Proposal() const {
    return *proposal_;
  }
  [[nodiscard]] std::size_t WireSize() const override { return wire_size_; }
  [[nodiscard]] std::string TypeName() const override {
    return "EndorseRequest";
  }
  /// Send timestamp, for wire-time spans (0 when tracing is off).
  [[nodiscard]] sim::SimTime SentAt() const { return sent_at_; }

 private:
  std::shared_ptr<const proto::SignedProposal> proposal_;
  std::size_t wire_size_;
  sim::SimTime sent_at_;
};

/// Endorsing peer -> client: the proposal response.
class EndorseResponseMsg final : public sim::Message {
 public:
  EndorseResponseMsg(std::shared_ptr<const proto::ProposalResponse> response,
                     std::size_t wire_size, sim::SimTime sent_at = 0,
                     sim::SimDuration retry_after = 0)
      : response_(std::move(response)),
        wire_size_(wire_size),
        sent_at_(sent_at),
        retry_after_(retry_after) {}

  [[nodiscard]] const proto::ProposalResponse& Response() const {
    return *response_;
  }
  /// The response itself, shared: the client keeps it without copying.
  [[nodiscard]] const std::shared_ptr<const proto::ProposalResponse>&
  SharedResponse() const {
    return response_;
  }
  [[nodiscard]] std::size_t WireSize() const override { return wire_size_; }
  [[nodiscard]] std::string TypeName() const override {
    return "EndorseResponse";
  }
  /// Send timestamp, for wire-time spans (0 when tracing is off).
  [[nodiscard]] sim::SimTime SentAt() const { return sent_at_; }
  /// Advisory pause before retrying; set on SERVICE_UNAVAILABLE responses
  /// from an overloaded endorser.
  [[nodiscard]] sim::SimDuration RetryAfter() const { return retry_after_; }

 private:
  std::shared_ptr<const proto::ProposalResponse> response_;
  std::size_t wire_size_;
  sim::SimTime sent_at_;
  sim::SimDuration retry_after_;
};

/// Peer -> peer: anti-entropy pull (gossip state transfer). "Send me the
/// blocks of `channel_id` from `from_number` on."
class GossipPullMsg final : public sim::Message {
 public:
  std::string channel_id;
  std::uint64_t from_number = 0;

  [[nodiscard]] std::size_t WireSize() const override {
    return 32 + channel_id.size();
  }
  [[nodiscard]] std::string TypeName() const override { return "GossipPull"; }
};

/// Client -> peer: subscribe to commit events (Fabric's event hub).
class RegisterEventsMsg final : public sim::Message {
 public:
  [[nodiscard]] std::size_t WireSize() const override { return 64; }
  [[nodiscard]] std::string TypeName() const override {
    return "RegisterEvents";
  }
};

/// Peer -> subscribed clients: transactions of a committed block. Carries
/// the committed block and its stored codes, shared with the chain; on the
/// wire it is 72 bytes per transaction (id and code) plus a header.
class CommitEventMsg final : public sim::Message {
 public:
  CommitEventMsg(std::string channel_id, proto::BlockPtr block,
                 ledger::CodesPtr codes)
      : channel_id(std::move(channel_id)),
        block(std::move(block)),
        codes(std::move(codes)) {}

  std::string channel_id;
  proto::BlockPtr block;
  ledger::CodesPtr codes;  // one per transaction of `block`

  [[nodiscard]] std::size_t WireSize() const override {
    return 32 + codes->size() * 72;
  }
  [[nodiscard]] std::string TypeName() const override { return "CommitEvent"; }
};

}  // namespace fabricsim::peer
