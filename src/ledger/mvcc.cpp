#include "ledger/mvcc.h"

#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace fabricsim::ledger {
namespace {

/// Pending view: committed state overlaid with writes from earlier valid
/// transactions of the block being validated. The overlay views the
/// block's own namespace and key strings, so it must not outlive the block.
class PendingView {
 public:
  PendingView(const StateDb& state, std::size_t block_size)
      : state_(state), block_size_(block_size) {}

  [[nodiscard]] std::optional<proto::KeyVersion> GetVersion(
      std::string_view ns, std::string_view key) const {
    if (const Overlay* overlay = Find(ns)) {
      auto it = overlay->find(key);
      if (it != overlay->end()) return it->second;  // nullopt = deleted
    }
    return state_.GetVersion(ns, key);
  }

  /// Re-executes a range query against committed state + the in-block
  /// overlay: the (key, version) sequence a transaction validating now
  /// would observe. Used for phantom detection.
  [[nodiscard]] std::vector<std::pair<std::string, proto::KeyVersion>>
  RangeVersions(std::string_view ns, std::string_view start_key,
                std::string_view end_key) const {
    const auto committed = state_.GetRange(ns, start_key, end_key);
    std::map<std::string_view, std::optional<proto::KeyVersion>> merged;
    for (const auto& [key, value] : committed) merged[key] = value.version;
    // Overlay entries within the range win.
    if (const Overlay* overlay = Find(ns)) {
      for (const auto& [key, version] : *overlay) {
        if (key < start_key) continue;
        if (!end_key.empty() && key >= end_key) continue;
        merged[key] = version;  // nullopt = deleted in this block
      }
    }
    std::vector<std::pair<std::string, proto::KeyVersion>> out;
    out.reserve(merged.size());
    for (const auto& [key, version] : merged) {
      if (version) out.emplace_back(key, *version);
    }
    return out;
  }

  void ApplyWrites(const proto::TxReadWriteSet& rwset,
                   proto::KeyVersion version) {
    for (const auto& ns : rwset.ns_rwsets) {
      if (ns.writes.empty()) continue;
      Overlay& overlay = Space(ns.ns);
      for (const auto& w : ns.writes) {
        overlay[w.key] =
            w.is_delete ? std::optional<proto::KeyVersion>{} : version;
      }
    }
  }

 private:
  // Value nullopt == key deleted in this block.
  using Overlay =
      std::unordered_map<std::string_view, std::optional<proto::KeyVersion>>;

  // A block touches few namespaces, so they are searched linearly.
  [[nodiscard]] const Overlay* Find(std::string_view ns) const {
    for (const auto& [name, overlay] : overlays_) {
      if (name == ns) return &overlay;
    }
    return nullptr;
  }

  Overlay& Space(std::string_view ns) {
    for (auto& [name, overlay] : overlays_) {
      if (name == ns) return overlay;
    }
    Overlay& overlay = overlays_.emplace_back(ns, Overlay{}).second;
    overlay.reserve(block_size_);
    return overlay;
  }

  const StateDb& state_;
  std::size_t block_size_;
  std::vector<std::pair<std::string_view, Overlay>> overlays_;
};

}  // namespace

MvccResult MvccValidator::Validate(
    const proto::Block& block, const StateDb& state,
    const std::vector<proto::ValidationCode>* precomputed) {
  MvccResult out;
  out.codes.resize(block.transactions.size(), proto::ValidationCode::kValid);
  PendingView view(state, block.transactions.size());

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
    view.ApplyWrites(
        tx.rwset, proto::KeyVersion{block.header.number,
                                    static_cast<std::uint32_t>(i)});
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
