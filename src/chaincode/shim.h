// Chaincode shim: the interface user chaincode programs against, and the
// stub that records reads/writes during simulated execution on an endorser.
//
// In Fabric, user chaincode runs in a Docker container and talks to the peer
// over gRPC; GetState/PutState round-trip to the peer's state database. Here
// the chaincode runs in-process, the stub reads the endorser's world state
// (as of its peer's height) directly and records the rwset, and the
// Docker/gRPC round-trip appears as a per-invocation CPU cost (see
// ExecutionCost / calibration).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ledger/state_db.h"
#include "proto/proposal.h"
#include "proto/rwset.h"
#include "sim/time.h"

namespace fabricsim::chaincode {

/// The per-invocation view a chaincode gets: args plus recorded state access.
class ChaincodeStub {
 public:
  ChaincodeStub(ledger::StateView state, std::string ns,
                const proto::ChaincodeInvocation& invocation);

  [[nodiscard]] const std::string& Function() const;
  [[nodiscard]] const std::vector<proto::Bytes>& Args() const;
  [[nodiscard]] std::string ArgStr(std::size_t i) const;

  /// Reads a key, recording the read version. Read-your-writes: a key
  /// written earlier in this invocation returns the pending value without
  /// adding a read record (Fabric's simulator semantics).
  std::optional<proto::Bytes> GetState(const std::string& key);

  /// Ordered scan of committed keys in [start_key, end_key) (empty end =
  /// to the end of the namespace). Records range-query info in the rwset so
  /// the committer can detect phantoms. Pending (uncommitted) writes of
  /// this invocation are NOT visible to range scans, as in Fabric.
  std::vector<std::pair<std::string, proto::Bytes>> GetStateByRange(
      const std::string& start_key, const std::string& end_key);

  /// Writes a key (buffered until commit).
  void PutState(const std::string& key, proto::Bytes value);

  /// Deletes a key (buffered until commit).
  void DelState(const std::string& key);

  /// Extracts the recorded read/write set.
  [[nodiscard]] proto::TxReadWriteSet TakeRwSet() &&;

 private:
  ledger::StateView state_;
  const proto::ChaincodeInvocation& invocation_;
  std::string ns_;
  proto::RwSetBuilder builder_;
};

/// What an invocation returns.
struct Response {
  proto::EndorseStatus status = proto::EndorseStatus::kSuccess;
  proto::Bytes payload;
  std::string message;

  static Response Success(proto::Bytes payload = {});
  static Response Error(std::string message);
};

/// Base class for chaincodes.
class Chaincode {
 public:
  virtual ~Chaincode() = default;

  [[nodiscard]] virtual std::string Name() const = 0;

  /// Business logic; reads/writes via the stub.
  virtual Response Invoke(ChaincodeStub& stub) = 0;

  /// Nominal CPU cost of one invocation on the baseline machine, covering
  /// the Docker/gRPC round-trips and the chaincode's own work. Default is
  /// the calibrated constant for a trivial Go chaincode.
  [[nodiscard]] virtual sim::SimDuration ExecutionCost(
      const proto::ChaincodeInvocation& invocation) const;
};

/// Chaincodes installed on a peer, by name.
class Registry {
 public:
  void Install(std::shared_ptr<Chaincode> cc);
  [[nodiscard]] Chaincode* Find(const std::string& name) const;
  [[nodiscard]] std::size_t Size() const { return map_.size(); }

 private:
  std::unordered_map<std::string, std::shared_ptr<Chaincode>> map_;
};

}  // namespace fabricsim::chaincode
