#include "chaincode/shim.h"

namespace fabricsim::chaincode {

ChaincodeStub::ChaincodeStub(ledger::StateView state, std::string ns,
                             const proto::ChaincodeInvocation& invocation)
    : state_(state), invocation_(invocation), ns_(ns), builder_(std::move(ns)) {}

const std::string& ChaincodeStub::Function() const {
  return invocation_.function;
}

const std::vector<proto::Bytes>& ChaincodeStub::Args() const {
  return invocation_.args;
}

std::string ChaincodeStub::ArgStr(std::size_t i) const {
  if (i >= invocation_.args.size()) return {};
  return proto::ToString(invocation_.args[i]);
}

std::optional<proto::Bytes> ChaincodeStub::GetState(const std::string& key) {
  if (const proto::KVWrite* pending = builder_.PendingWrite(key)) {
    if (pending->is_delete) return std::nullopt;
    return pending->value;
  }
  const auto stored = state_.Get(ns_, key);
  if (stored) {
    builder_.AddRead(key, stored->version);
    return stored->value;
  }
  builder_.AddRead(key, std::nullopt);
  return std::nullopt;
}

std::vector<std::pair<std::string, proto::Bytes>>
ChaincodeStub::GetStateByRange(const std::string& start_key,
                               const std::string& end_key) {
  const auto stored = state_.GetRange(ns_, start_key, end_key);
  std::vector<std::pair<std::string, proto::KeyVersion>> versions;
  std::vector<std::pair<std::string, proto::Bytes>> out;
  versions.reserve(stored.size());
  out.reserve(stored.size());
  for (const auto& [key, value] : stored) {
    versions.emplace_back(key, value.version);
    out.emplace_back(key, value.value);
  }
  builder_.AddRangeRead(start_key, end_key, versions);
  return out;
}

void ChaincodeStub::PutState(const std::string& key, proto::Bytes value) {
  builder_.AddWrite(key, std::move(value));
}

void ChaincodeStub::DelState(const std::string& key) {
  builder_.AddDelete(key);
}

proto::TxReadWriteSet ChaincodeStub::TakeRwSet() && {
  return std::move(builder_).Build();
}

Response Response::Success(proto::Bytes payload) {
  return Response{proto::EndorseStatus::kSuccess, std::move(payload), {}};
}

Response Response::Error(std::string message) {
  return Response{proto::EndorseStatus::kChaincodeError, {},
                  std::move(message)};
}

sim::SimDuration Chaincode::ExecutionCost(
    const proto::ChaincodeInvocation&) const {
  // Docker exec round-trip + shim gRPC chatter for a trivial chaincode,
  // measured around 3 ms on Fabric v1.4-era hardware.
  return sim::FromMillis(3.0);
}

void Registry::Install(std::shared_ptr<Chaincode> cc) {
  map_[cc->Name()] = std::move(cc);
}

Chaincode* Registry::Find(const std::string& name) const {
  auto it = map_.find(name);
  return it == map_.end() ? nullptr : it->second.get();
}

}  // namespace fabricsim::chaincode
