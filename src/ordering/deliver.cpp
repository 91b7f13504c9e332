#include "ordering/deliver.h"

#include <algorithm>

namespace fabricsim::ordering {

BlockAssembler::BlockAssembler(const crypto::Identity& signer,
                               double hash_us_per_kib,
                               sim::SimDuration base_cpu)
    : signer_(signer), hash_us_per_kib_(hash_us_per_kib), base_cpu_(base_cpu) {}

AssembledBlock BlockAssembler::Assemble(const Batch& batch) {
  // The block shares the batch's envelopes: every OSN that cuts this batch
  // (three under Kafka) points at the clients' one copy of each transaction.
  auto block = std::make_shared<proto::Block>(proto::Block::Make(
      next_number_, next_number_ == 0 ? nullptr : &prev_hash_, batch));

  // Orderer signs the header; validation codes are filled by committers.
  block->metadata.orderer_cert = signer_.SerializedCert();
  block->metadata.orderer_signature = signer_.SignDigest(block->header.Hash());

  AssembledBlock out;
  out.wire_size = block->WireSize();
  out.cpu_cost =
      base_cpu_ + sim::FromMicros(hash_us_per_kib_ *
                                  static_cast<double>(out.wire_size) / 1024.0);
  prev_hash_ = block->header.Hash();
  ++next_number_;
  out.block = std::move(block);
  return out;
}

void DeliverService::Subscribe(sim::NodeId peer) {
  if (!IsSubscribed(peer)) subscribers_.push_back(peer);
}

bool DeliverService::IsSubscribed(sim::NodeId peer) const {
  return std::find(subscribers_.begin(), subscribers_.end(), peer) !=
         subscribers_.end();
}

void DeliverService::Deliver(const AssembledBlock& b) {
  for (sim::NodeId peer : subscribers_) DeliverTo(peer, b);
}

void DeliverService::DeliverTo(sim::NodeId peer, const AssembledBlock& b,
                               bool ack_requested) {
  net_.Send(self_, peer,
            std::make_shared<DeliverBlockMsg>(b.block, b.wire_size,
                                              channel_id_, net_.Now(),
                                              ack_requested));
}

}  // namespace fabricsim::ordering
