#include "ledger/state_db.h"

#include <algorithm>

namespace fabricsim::ledger {

const StateDb::Namespace* StateDb::Find(std::string_view ns) const {
  auto it = namespaces_.find(ns);
  return it == namespaces_.end() ? nullptr : &it->second;
}

const VersionedValue* StateDb::Lookup(std::string_view ns,
                                      std::string_view key) const {
  const Namespace* space = Find(ns);
  if (space == nullptr) return nullptr;
  auto it = space->keys.find(key);
  return it == space->keys.end() ? nullptr : &it->second;
}

std::optional<VersionedValue> StateDb::Get(std::string_view ns,
                                           std::string_view key) const {
  const VersionedValue* vv = Lookup(ns, key);
  if (vv == nullptr) return std::nullopt;
  return *vv;
}

std::optional<proto::KeyVersion> StateDb::GetVersion(
    std::string_view ns, std::string_view key) const {
  const VersionedValue* vv = Lookup(ns, key);
  if (vv == nullptr) return std::nullopt;
  return vv->version;
}

void StateDb::PutIn(Namespace& space, const std::string& key,
                    proto::Bytes value, proto::KeyVersion version) {
  auto [it, inserted] = space.keys.try_emplace(key, std::move(value), version);
  if (inserted) {
    space.sorted_valid = false;
  } else {
    // Overwrite: the key set is unchanged, the range index stays warm (it
    // points at this node).
    it->second.value = std::move(value);
    it->second.version = version;
  }
}

void StateDb::EraseFrom(Namespace& space, std::string_view key) {
  auto it = space.keys.find(key);
  if (it == space.keys.end()) return;
  space.keys.erase(it);
  space.sorted_valid = false;
}

std::size_t StateDb::KeyCount() const {
  std::size_t count = 0;
  for (const auto& [ns, space] : namespaces_) count += space.keys.size();
  return count;
}

void StateDb::Put(const std::string& ns, const std::string& key,
                  proto::Bytes value, proto::KeyVersion version) {
  PutIn(namespaces_.try_emplace(ns).first->second, key, std::move(value),
        version);
}

void StateDb::Delete(std::string_view ns, std::string_view key) {
  auto it = namespaces_.find(ns);
  if (it != namespaces_.end()) EraseFrom(it->second, key);
}

const std::vector<const StateDb::Namespace::Entry*>& StateDb::Sorted(
    const Namespace& space) {
  if (space.sorted_valid) return space.sorted;
  space.sorted.clear();
  space.sorted.reserve(space.keys.size());
  for (const auto& entry : space.keys) space.sorted.push_back(&entry);
  std::sort(space.sorted.begin(), space.sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  space.sorted_valid = true;
  return space.sorted;
}

std::vector<std::pair<std::string, VersionedValue>> StateDb::GetRange(
    std::string_view ns, std::string_view start_key,
    std::string_view end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  const Namespace* space = Find(ns);
  if (space == nullptr) return out;
  const auto& sorted = Sorted(*space);
  auto it = std::lower_bound(
      sorted.begin(), sorted.end(), start_key,
      [](const auto* entry, std::string_view k) { return entry->first < k; });
  for (; it != sorted.end(); ++it) {
    if (!end_key.empty() && (*it)->first >= end_key) break;
    out.emplace_back((*it)->first, (*it)->second);
  }
  return out;
}

void StateDb::ApplyRwSet(const proto::TxReadWriteSet& rwset,
                         proto::KeyVersion version) {
  for (const auto& ns : rwset.ns_rwsets) {
    if (ns.writes.empty()) continue;
    Namespace& space = namespaces_.try_emplace(ns.ns).first->second;
    for (const auto& w : ns.writes) {
      if (w.is_delete) {
        EraseFrom(space, w.key);
      } else {
        PutIn(space, w.key, w.value, version);
      }
    }
  }
}

void StateDb::ApplyBatch(
    const std::vector<std::pair<const proto::TxReadWriteSet*,
                                proto::KeyVersion>>& batch) {
  // One batched write: later entries overwrite earlier ones exactly as the
  // per-tx path would (LevelDB WriteBatch semantics).
  for (const auto& [rwset, version] : batch) {
    ApplyRwSet(*rwset, version);
  }
}

}  // namespace fabricsim::ledger
