// Block cutter: the BatchSize / BatchTimeout logic every ordering service
// shares (Fabric's orderer/common/blockcutter).
//
// A batch is cut when any of:
//   - pending transaction count reaches BatchSize.MaxMessageCount,
//   - pending byte size would exceed PreferredMaxBytes,
//   - a message alone exceeds PreferredMaxBytes (cut as its own batch),
//   - BatchTimeout fires with pending transactions (the *caller* owns the
//     timer — Solo arms a local timer, Kafka/Raft use a TTC signal — and
//     calls Cut()).
#pragma once

#include <memory>
#include <vector>

#include "proto/transaction.h"
#include "sim/time.h"

namespace fabricsim::ordering {

using proto::EnvelopePtr;
using Batch = std::vector<EnvelopePtr>;

struct BatchConfig {
  std::uint32_t max_message_count = 100;        // the paper's BatchSize
  std::size_t preferred_max_bytes = 512 * 1024;
  std::size_t absolute_max_bytes = 10 * 1024 * 1024;
  sim::SimDuration batch_timeout = sim::FromSeconds(1);  // paper default
};

class BlockCutter {
 public:
  explicit BlockCutter(BatchConfig config) : config_(config) {}

  /// Result of offering one message to the cutter.
  struct OrderedResult {
    std::vector<Batch> batches;  // 0, 1, or 2 cut batches
    bool pending = false;        // messages remain buffered after this call
  };

  /// Offers one envelope (Fabric's Ordered()). `size_bytes` is the
  /// envelope's serialized size (passed in to avoid re-serializing).
  OrderedResult Ordered(EnvelopePtr env, std::size_t size_bytes);

  /// Cuts whatever is pending (BatchTimeout path). Empty if nothing pending.
  Batch Cut();

  [[nodiscard]] std::size_t PendingCount() const { return pending_.size(); }
  [[nodiscard]] std::size_t PendingBytes() const { return pending_bytes_; }
  /// Buffered envelopes awaiting a cut (admission bookkeeping on
  /// leadership change needs their tx ids).
  [[nodiscard]] const Batch& Pending() const { return pending_; }
  [[nodiscard]] const BatchConfig& Config() const { return config_; }

 private:
  BatchConfig config_;
  Batch pending_;
  std::size_t pending_bytes_ = 0;
};

}  // namespace fabricsim::ordering
