#include "ledger/state_db.h"

#include <algorithm>
#include <numeric>

namespace fabricsim::ledger {

const VersionedValue* StateDb::Namespace::Find(std::string_view key) const {
  const std::uint32_t* pos = index.Find(HashKey(key), KeyIs(key));
  return pos == nullptr ? nullptr : &(*entries)[*pos].second;
}

const StateDb::Namespace* StateDb::Find(std::string_view ns) const {
  auto it = namespaces_.find(ns);
  return it == namespaces_.end() ? nullptr : &it->second;
}

const VersionedValue* StateDb::Lookup(std::string_view ns,
                                      std::string_view key) const {
  const Namespace* space = Find(ns);
  return space == nullptr ? nullptr : space->Find(key);
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
  const std::uint64_t hash = HashKey(key);
  if (const std::uint32_t* pos = space.index.Find(hash, space.KeyIs(key))) {
    // Overwrite: the key set is unchanged, the range index stays warm (it
    // holds this entry's position).
    VersionedValue& vv = (*space.entries)[*pos].second;
    vv.value = std::move(value);
    vv.version = version;
    return;
  }
  if (!space.entries) space.entries.emplace();
  space.index.Insert(hash, static_cast<std::uint32_t>(space.entries->size()));
  space.entries->emplace_back(key, VersionedValue{std::move(value), version});
  space.sorted_valid = false;
}

void StateDb::EraseFrom(Namespace& space, std::string_view key) {
  const std::uint64_t hash = HashKey(key);
  const std::uint32_t* pos = space.index.Find(hash, space.KeyIs(key));
  if (pos == nullptr) return;
  const std::uint32_t hole = *pos;
  space.index.Erase(hash, [hole](std::uint32_t i) { return i == hole; });
  // Keep positions dense: the last entry moves into the hole and its index
  // slot is re-pointed.
  auto& entries = *space.entries;
  const auto last = static_cast<std::uint32_t>(entries.size() - 1);
  if (hole != last) {
    entries[hole] = std::move(entries[last]);
    *space.index.Find(HashKey(entries[hole].first),
                      [last](std::uint32_t i) { return i == last; }) = hole;
  }
  entries.pop_back();
  space.sorted_valid = false;
}

std::size_t StateDb::KeyCount() const {
  std::size_t count = 0;
  for (const auto& [ns, space] : namespaces_) count += space.index.Size();
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

const std::vector<std::uint32_t>& StateDb::Sorted(const Namespace& space) {
  if (space.sorted_valid) return space.sorted;
  const auto& entries = *space.entries;
  space.sorted.resize(space.index.Size());
  std::iota(space.sorted.begin(), space.sorted.end(), std::uint32_t{0});
  std::sort(space.sorted.begin(), space.sorted.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return entries[a].first < entries[b].first;
            });
  space.sorted_valid = true;
  return space.sorted;
}

std::vector<std::pair<std::string, VersionedValue>> StateDb::GetRange(
    std::string_view ns, std::string_view start_key,
    std::string_view end_key) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  const Namespace* space = Find(ns);
  if (space == nullptr || space->index.Size() == 0) return out;
  const auto& entries = *space->entries;
  const auto& sorted = Sorted(*space);
  auto it = std::lower_bound(sorted.begin(), sorted.end(), start_key,
                             [&](std::uint32_t i, std::string_view k) {
                               return entries[i].first < k;
                             });
  for (; it != sorted.end(); ++it) {
    const auto& [key, vv] = entries[*it];
    if (!end_key.empty() && key >= end_key) break;
    out.emplace_back(key, vv);
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

}  // namespace fabricsim::ledger
