#include "ledger/mvcc.h"

#include <cstdlib>
#include <map>
#include <optional>
#include <string_view>

namespace fabricsim::ledger {
namespace {

/// Pending view: committed state overlaid with writes from earlier valid
/// transactions of the block being validated. The overlay is one flat
/// index, sized for every write of the block up front, whose payload
/// locates the latest applied write of a (namespace, key) inside the block
/// itself — so it must not outlive the block.
class PendingView {
  /// Write `write` of transaction `tx`, counting across its namespaces.
  struct WriteAt {
    std::uint32_t tx;
    std::uint32_t write;
  };

  static std::uint64_t Hash(std::string_view ns, std::string_view key) {
    return HashKey(key) + 0x9e3779b97f4a7c15ULL * HashKey(ns);
  }

  [[nodiscard]] std::pair<std::string_view, const proto::KVWrite&> Locate(
      WriteAt at) const {
    std::uint32_t n = at.write;
    for (const auto& ns : block_.transactions[at.tx].rwset.ns_rwsets) {
      if (n < ns.writes.size()) return {ns.ns, ns.writes[n]};
      n -= static_cast<std::uint32_t>(ns.writes.size());
    }
    std::abort();  // a WriteAt always names a write of its transaction
  }

  [[nodiscard]] auto Is(std::string_view ns, std::string_view key) const {
    return [this, ns, key](WriteAt at) {
      const auto [space, write] = Locate(at);
      return write.key == key && space == ns;
    };
  }

  [[nodiscard]] std::optional<proto::KeyVersion> VersionOf(WriteAt at) const {
    if (Locate(at).second.is_delete) return std::nullopt;
    return proto::KeyVersion{block_.header.number, at.tx};
  }

 public:
  PendingView(const StateDb& state, const proto::Block& block)
      : state_(state), block_(block) {
    std::size_t writes = 0;
    for (const auto& tx : block.transactions) {
      for (const auto& ns : tx.rwset.ns_rwsets) writes += ns.writes.size();
    }
    if (writes > 0) overlay_.Reserve(writes);
  }

  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const {
    if (const WriteAt* at = overlay_.Find(Hash(ns, key), Is(ns, key))) {
      return VersionOf(*at);  // nullopt = deleted in this block
    }
    return state_.GetVersion(ns, key);
  }

  /// Re-executes a range query against committed state + the in-block
  /// overlay: the (key, version) sequence a transaction validating now
  /// would observe. Used for phantom detection.
  [[nodiscard]] std::vector<std::pair<std::string, proto::KeyVersion>>
  RangeVersions(std::string_view ns, std::string_view start_key,
                std::string_view end_key) const {
    std::map<std::string_view, std::optional<proto::KeyVersion>> merged;
    state_.ForEachInRange(ns, start_key, end_key, StateDb::kHead,
                          [&](std::string_view key, const VersionedValue& vv) {
                            merged[key] = vv.version;
                          });
    // Overlay entries within the range win.
    overlay_.ForEach([&](WriteAt at) {
      const auto [space, write] = Locate(at);
      if (space != ns || write.key < start_key) return;
      if (!end_key.empty() && write.key >= end_key) return;
      merged[write.key] = VersionOf(at);  // nullopt = deleted in this block
    });
    std::vector<std::pair<std::string, proto::KeyVersion>> out;
    out.reserve(merged.size());
    for (const auto& [key, version] : merged) {
      if (version) out.emplace_back(key, *version);
    }
    return out;
  }

  /// Overlays the writes of the block's transaction `tx`.
  void ApplyWrites(std::uint32_t tx) {
    std::uint32_t n = 0;
    for (const auto& ns : block_.transactions[tx].rwset.ns_rwsets) {
      for (const auto& w : ns.writes) {
        const std::uint64_t hash = Hash(ns.ns, w.key);
        if (WriteAt* at = overlay_.Find(hash, Is(ns.ns, w.key))) {
          *at = WriteAt{tx, n};
        } else {
          overlay_.Insert(hash, WriteAt{tx, n});
        }
        ++n;
      }
    }
  }

 private:
  const StateDb& state_;
  const proto::Block& block_;
  FlatIndex<WriteAt> overlay_;
};

}  // namespace

MvccResult MvccValidator::Validate(
    const proto::Block& block, const StateDb& state,
    const std::vector<proto::ValidationCode>* precomputed) {
  MvccResult out;
  out.codes.resize(block.transactions.size(), proto::ValidationCode::kValid);
  PendingView view(state, block);

  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (precomputed != nullptr && i < precomputed->size() &&
        (*precomputed)[i] != proto::ValidationCode::kValid) {
      out.codes[i] = (*precomputed)[i];
      continue;
    }
    const auto& tx = block.transactions[i];
    bool conflict = false;
    for (const auto& ns : tx.rwset.ns_rwsets) {
      for (const auto& r : ns.reads) {
        const auto current = view.GetVersion(ns.ns, r.key);
        if (current != r.version) {
          conflict = true;
          break;
        }
      }
      // Phantom detection: the range query must observe the same (key,
      // version) sequence now as it did at simulation time.
      for (const auto& rr : ns.range_reads) {
        if (conflict) break;
        const auto now_results =
            view.RangeVersions(ns.ns, rr.start_key, rr.end_key);
        if (proto::RangeRead::HashResults(now_results) != rr.result_digest) {
          conflict = true;
        }
      }
      if (conflict) break;
    }
    if (conflict) {
      out.codes[i] = proto::ValidationCode::kMvccReadConflict;
      ++out.conflict_count;
      continue;
    }
    ++out.valid_count;
    view.ApplyWrites(static_cast<std::uint32_t>(i));
  }
  return out;
}

void MvccValidator::Commit(const proto::Block& block,
                           const std::vector<proto::ValidationCode>& codes,
                           StateDb& state) {
  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (i < codes.size() && codes[i] != proto::ValidationCode::kValid) {
      continue;
    }
    state.ApplyRwSet(block.transactions[i].rwset,
                     proto::KeyVersion{block.header.number,
                                       static_cast<std::uint32_t>(i)});
  }
  state.SetHeight(block.header.number + 1);
}

}  // namespace fabricsim::ledger
