// Simulated switched Ethernet network.
//
// Models the paper's testbed: a 1 Gbps switched LAN with TLS on every
// connection. Each ordered pair of nodes has an independent link whose
// transfer time is propagation latency + serialization (size/bandwidth) +
// jitter. Serialization is modeled per sender NIC: a sender's outgoing
// messages share the NIC, so a burst queues behind itself, while messages
// from different senders do not interfere (switched network, full duplex).
//
// Fault injection (message loss and partitions) is built in so tests can
// exercise Raft/Kafka failure paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace fabricsim::sim {

/// Identifies a network endpoint (one per simulated process/machine role).
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Base class for all simulated wire messages. Concrete protocols subclass
/// this; receivers downcast with std::dynamic_pointer_cast.
class Message {
 public:
  virtual ~Message() = default;
  /// Payload size in bytes as it would appear on the wire (pre-TLS framing).
  [[nodiscard]] virtual std::size_t WireSize() const = 0;
  /// Human-readable type tag for logs.
  [[nodiscard]] virtual std::string TypeName() const = 0;
};

using MessagePtr = std::shared_ptr<const Message>;

/// Static link parameters.
struct NetworkConfig {
  SimDuration base_latency = FromMicros(180);  // LAN RTT/2 incl. kernel+TLS
  double jitter_fraction = 0.10;               // +/- uniform jitter on latency
  double bandwidth_bps = 1e9;                  // 1 Gbps
  std::size_t per_message_overhead_bytes = 120;  // TCP/IP + TLS record framing
  double loss_probability = 0.0;               // applied per message
};

/// The simulated network fabric connecting all nodes.
class Network {
 public:
  using Handler = std::function<void(NodeId from, MessagePtr msg)>;

  Network(Scheduler& sched, Rng rng, NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a new endpoint and returns its id.
  NodeId Register(std::string name, Handler handler);

  /// Replaces the handler for an existing endpoint (used when a node restarts).
  void SetHandler(NodeId id, Handler handler);

  /// Sends `msg` from `from` to `to`. Delivery is asynchronous via the
  /// receiver's handler; lost/partitioned messages vanish silently, like UDP.
  /// (Protocols that need reliability — all of ours — use timeouts/retries or
  /// run over an abstraction that retransmits.)
  void Send(NodeId from, NodeId to, MessagePtr msg);

  /// Self-sends are delivered with negligible loopback delay and no loss.
  /// Everything still goes through the scheduler, preserving asynchrony.

  /// Cuts connectivity between the two nodes, both directions.
  void Partition(NodeId a, NodeId b);

  /// Restores connectivity between the two nodes.
  void Heal(NodeId a, NodeId b);

  /// Heals all partitions.
  void HealAll();

  /// True if a->b traffic is currently blocked.
  [[nodiscard]] bool IsPartitioned(NodeId a, NodeId b) const;

  /// Marks a node as crashed: all traffic to/from it is dropped until revived.
  void Crash(NodeId id);
  void Revive(NodeId id);
  [[nodiscard]] bool IsCrashed(NodeId id) const;

  [[nodiscard]] const std::string& NameOf(NodeId id) const;
  [[nodiscard]] std::size_t NodeCount() const { return nodes_.size(); }

  /// Totals for reporting.
  [[nodiscard]] std::uint64_t MessagesSent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t MessagesDelivered() const {
    return messages_delivered_;
  }
  [[nodiscard]] std::uint64_t MessagesDropped() const {
    return messages_dropped_;
  }
  [[nodiscard]] std::uint64_t BytesSent() const { return bytes_sent_; }
  /// Wire bytes sent but not yet delivered or dropped at delivery. Send-time
  /// drops (crash/partition/loss) never enter the count.
  [[nodiscard]] std::uint64_t BytesInFlight() const {
    return bytes_in_flight_;
  }

  [[nodiscard]] const NetworkConfig& Config() const { return config_; }

  /// Adjusts the per-message loss probability at runtime (fault windows).
  /// Applies to messages sent after the call; in-flight messages are kept.
  void SetLossProbability(double p);

  /// Current simulated time (convenience for senders stamping messages).
  [[nodiscard]] SimTime Now() const { return sched_.Now(); }

  /// The scheduler lane of an endpoint (the lane active when it was
  /// registered — its machine's logical process).
  [[nodiscard]] int LaneOf(NodeId id) const {
    return nodes_.at(static_cast<std::size_t>(id)).lane;
  }

 private:
  struct Endpoint {
    std::string name;
    Handler handler;
    SimTime nic_free_at = 0;  // sender-side serialization queue
    bool crashed = false;
    int lane = Scheduler::kGlobalLane;
    // Per-destination sender-owned state, indexed by destination NodeId and
    // grown on first use.
    //
    // FIFO floor: connections are stream-oriented (gRPC over TCP), so
    // delivery within one directed pair never reorders even when latency
    // jitter would.
    std::vector<SimTime> last_to;
    // Per-directed-pair RNG streams for loss and jitter draws. Seeded from
    // (link_seed_base_, from, to) only, so the draw sequence on one link is
    // independent of traffic on every other link, so adding or removing a
    // message on one link never shifts another link's loss or jitter.
    std::vector<std::optional<Rng>> link_rng;
  };

  static std::uint64_t PairKey(NodeId a, NodeId b);
  Rng& LinkRng(Endpoint& src, NodeId from, NodeId to);

  Scheduler& sched_;
  Rng rng_;
  std::uint64_t link_seed_base_;
  NetworkConfig config_;
  std::vector<Endpoint> nodes_;
  std::unordered_set<std::uint64_t> partitions_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_in_flight_ = 0;
};

}  // namespace fabricsim::sim
