#include "ledger/state_db.h"

#include <algorithm>
#include <numeric>

namespace fabricsim::ledger {

const StateDb::Entry* StateDb::Namespace::Find(std::string_view key) const {
  const std::uint32_t* pos = index.Find(HashKey(key), KeyIs(key));
  return pos == nullptr ? nullptr : &(*entries)[*pos];
}

const StateDb::Namespace* StateDb::Find(std::string_view ns) const {
  auto it = namespaces_.find(ns);
  return it == namespaces_.end() ? nullptr : &it->second;
}

const StateDb::Version* StateDb::AsOf(const Entry& e, std::uint64_t height) {
  if (Visible(e.newest.vv.version, height)) return &e.newest;
  for (const Version& v : e.older) {
    if (Visible(v.vv.version, height)) return &v;
  }
  return nullptr;
}

const VersionedValue* StateDb::Lookup(std::string_view ns,
                                      std::string_view key,
                                      std::uint64_t height) const {
  const Namespace* space = Find(ns);
  if (space == nullptr) return nullptr;
  const Entry* e = space->Find(key);
  if (e == nullptr) return nullptr;
  const Version* v = AsOf(*e, height);
  return v == nullptr || v->deleted ? nullptr : &v->vv;
}

std::optional<VersionedValue> StateDb::Get(std::string_view ns,
                                           std::string_view key,
                                           std::uint64_t height) const {
  const VersionedValue* vv = Lookup(ns, key, height);
  if (vv == nullptr) return std::nullopt;
  return *vv;
}

std::optional<proto::KeyVersion> StateDb::GetVersion(
    std::string_view ns, std::string_view key, std::uint64_t height) const {
  const VersionedValue* vv = Lookup(ns, key, height);
  if (vv == nullptr) return std::nullopt;
  return vv->version;
}

void StateDb::Supersede(Namespace& space, Entry& e,
                        proto::KeyVersion version) {
  // A version written earlier in the same block was never visible to any
  // reader: the ones behind the block see neither, the rest see the new one.
  if (e.newest.vv.version.block_num != version.block_num) {
    e.older.insert(e.older.begin(), std::move(e.newest));
  }
  space.retained.emplace_back(version.block_num, e.key);
}

void StateDb::PutIn(Namespace& space, const std::string& key,
                    proto::Bytes value, proto::KeyVersion version) {
  const std::uint64_t hash = HashKey(key);
  if (const std::uint32_t* pos = space.index.Find(hash, space.KeyIs(key))) {
    // Overwrite: the key set is unchanged, the range index stays warm (it
    // holds this entry's position).
    Entry& e = (*space.entries)[*pos];
    if (e.newest.deleted) --space.tombstones;
    if (Lagging(version.block_num)) {
      Supersede(space, e, version);
    } else {
      e.older.clear();  // nobody is behind this write
    }
    e.newest = Version{{std::move(value), version}, false};
    return;
  }
  if (!space.entries) space.entries.emplace();
  space.index.Insert(hash, static_cast<std::uint32_t>(space.entries->size()));
  space.entries->push_back(
      Entry{key, Version{{std::move(value), version}, false}, {}});
  space.sorted_valid = false;
}

void StateDb::EraseFrom(Namespace& space, std::string_view key,
                        proto::KeyVersion version) {
  const std::uint32_t* pos = space.index.Find(HashKey(key), space.KeyIs(key));
  if (pos == nullptr) return;
  Entry& e = (*space.entries)[*pos];
  if (!Lagging(version.block_num)) {
    if (e.newest.deleted) --space.tombstones;
    RemoveEntry(space, *pos);
    return;
  }
  // A reader behind the delete still sees the value: leave a tombstone.
  if (e.newest.deleted) return;
  Supersede(space, e, version);
  e.newest = Version{{{}, version}, true};
  ++space.tombstones;
}

void StateDb::RemoveEntry(Namespace& space, std::uint32_t hole) {
  auto& entries = *space.entries;
  space.index.Erase(HashKey(entries[hole].key),
                    [hole](std::uint32_t i) { return i == hole; });
  // Keep positions dense: the last entry moves into the hole and its index
  // slot is re-pointed.
  const auto last = static_cast<std::uint32_t>(entries.size() - 1);
  if (hole != last) {
    entries[hole] = std::move(entries[last]);
    *space.index.Find(HashKey(entries[hole].key),
                      [last](std::uint32_t i) { return i == last; }) = hole;
  }
  entries.pop_back();
  space.sorted_valid = false;
}

std::size_t StateDb::KeyCount(std::uint64_t height) const {
  std::size_t count = 0;
  for (const auto& [ns, space] : namespaces_) {
    if (height == kHead) {
      count += space.index.Size() - space.tombstones;
      continue;
    }
    if (!space.entries) continue;
    for (const Entry& e : *space.entries) {
      const Version* v = AsOf(e, height);
      if (v != nullptr && !v->deleted) ++count;
    }
  }
  return count;
}

void StateDb::Put(const std::string& ns, const std::string& key,
                  proto::Bytes value, proto::KeyVersion version) {
  PutIn(namespaces_.try_emplace(ns).first->second, key, std::move(value),
        version);
}

void StateDb::Delete(std::string_view ns, std::string_view key,
                     proto::KeyVersion version) {
  auto it = namespaces_.find(ns);
  if (it != namespaces_.end()) EraseFrom(it->second, key, version);
}

const std::vector<std::uint32_t>& StateDb::Sorted(const Namespace& space) {
  if (space.sorted_valid) return space.sorted;
  const auto& entries = *space.entries;
  space.sorted.resize(space.index.Size());
  std::iota(space.sorted.begin(), space.sorted.end(), std::uint32_t{0});
  std::sort(space.sorted.begin(), space.sorted.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return entries[a].key < entries[b].key;
            });
  space.sorted_valid = true;
  return space.sorted;
}

std::vector<std::pair<std::string, VersionedValue>> StateDb::GetRange(
    std::string_view ns, std::string_view start_key, std::string_view end_key,
    std::uint64_t height) const {
  std::vector<std::pair<std::string, VersionedValue>> out;
  ForEachInRange(ns, start_key, end_key, height,
                 [&](const std::string& key, const VersionedValue& vv) {
                   out.emplace_back(key, vv);
                 });
  return out;
}

void StateDb::ApplyRwSet(const proto::TxReadWriteSet& rwset,
                         proto::KeyVersion version) {
  for (const auto& ns : rwset.ns_rwsets) {
    if (ns.writes.empty()) continue;
    Namespace& space = namespaces_.try_emplace(ns.ns).first->second;
    for (const auto& w : ns.writes) {
      if (w.is_delete) {
        EraseFrom(space, w.key, version);
      } else {
        PutIn(space, w.key, w.value, version);
      }
    }
  }
}

StateDb::ReaderId StateDb::AttachReader(std::uint64_t height) {
  readers_.emplace_back(height);
  min_reader_ = std::min(min_reader_, height);
  return readers_.size() - 1;
}

void StateDb::AdvanceReader(ReaderId reader, std::uint64_t height) {
  readers_.at(reader) = height;
  Collect();
}

void StateDb::DetachReader(ReaderId reader) {
  readers_.at(reader).reset();
  Collect();
}

void StateDb::Collect() {
  std::uint64_t low = kHead;
  for (const auto& h : readers_) {
    if (h) low = std::min(low, *h);
  }
  min_reader_ = low;
  for (auto& [ns, space] : namespaces_) {
    // A key superseded at block b is seen in full by every reader above b.
    while (!space.retained.empty() && space.retained.front().first < low) {
      Prune(space, space.retained.front().second);
      space.retained.pop_front();
    }
  }
}

void StateDb::Prune(Namespace& space, std::string_view key) {
  const std::uint32_t* pos = space.index.Find(HashKey(key), space.KeyIs(key));
  if (pos == nullptr) return;
  Entry& e = (*space.entries)[*pos];
  // Readers at or above min_reader_ see at most the versions down to the
  // one visible at min_reader_; the older ones go.
  if (Visible(e.newest.vv.version, min_reader_)) {
    e.older.clear();
    if (e.newest.deleted) {
      --space.tombstones;
      RemoveEntry(space, *pos);
    }
    return;
  }
  for (std::size_t i = 0; i < e.older.size(); ++i) {
    if (Visible(e.older[i].vv.version, min_reader_)) {
      e.older.resize(i + 1);
      return;
    }
  }
}

std::size_t StateDb::RetainedVersions() const {
  std::size_t count = 0;
  for (const auto& [ns, space] : namespaces_) {
    count += space.tombstones;
    if (!space.entries) continue;
    for (const Entry& e : *space.entries) count += e.older.size();
  }
  return count;
}

StateDb StateDb::Snapshot(std::uint64_t height) const {
  StateDb out;
  out.height_ = std::min(height, height_);
  for (const auto& [ns, space] : namespaces_) {
    if (!space.entries) continue;
    Namespace* copy = nullptr;
    for (const Entry& e : *space.entries) {
      const Version* v = AsOf(e, height);
      if (v == nullptr || v->deleted) continue;
      if (copy == nullptr) copy = &out.namespaces_.try_emplace(ns).first->second;
      out.PutIn(*copy, e.key, v->vv.value, v->vv.version);
    }
  }
  return out;
}

}  // namespace fabricsim::ledger
