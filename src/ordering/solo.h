// Solo ordering service: a single OSN that cuts blocks locally.
//
// Fabric's development/test consenter — no fault tolerance (the paper's
// §III). Cuts on BatchSize immediately and arms a local BatchTimeout timer
// when the first message of a batch arrives.
#pragma once

#include "ordering/osn_base.h"

namespace fabricsim::ordering {

class SoloOrderer final : public OsnBase {
 public:
  SoloOrderer(sim::Environment& env, sim::Machine& machine,
              crypto::Identity identity, const fabric::Calibration& cal,
              BatchConfig batch, metrics::TxTracker* tracker,
              std::string channel_id = "mychannel");

 protected:
  AcceptResult AcceptEnvelope(const EnvelopePtr& env, std::size_t wire_size,
                              sim::NodeId origin) override;
  void OnOtherMessage(sim::NodeId from, const sim::MessagePtr& msg) override;

 private:
  void ArmTimerIfNeeded();
  void OnTimeout();
  void EmitBatch(Batch batch);

  BlockCutter cutter_;
  sim::EventId timer_ = 0;
};

}  // namespace fabricsim::ordering
