#include "ledger/history_index.h"

namespace fabricsim::ledger {

const std::vector<KeyModification> HistoryIndex::kEmpty = {};

void HistoryIndex::IndexBlock(const proto::Block& block,
                              const std::vector<proto::ValidationCode>& codes) {
  for (std::size_t i = 0; i < block.transactions.size(); ++i) {
    if (i < codes.size() && codes[i] != proto::ValidationCode::kValid) {
      continue;
    }
    const proto::EnvelopePtr& tx = block.transactions.Ptr(i);
    for (const auto& ns : tx->rwset.ns_rwsets) {
      if (ns.writes.empty()) continue;
      auto& keys = index_.try_emplace(ns.ns).first->second;
      for (const auto& w : ns.writes) {
        auto& mods = keys.try_emplace(w.key).first->second;
        mods.push_back(KeyModification{
            block.header.number, static_cast<std::uint32_t>(i), tx, &w});
        if (per_key_cap_ > 0 && mods.size() > per_key_cap_) {
          mods.erase(mods.begin(),
                     mods.begin() +
                         static_cast<std::ptrdiff_t>(mods.size() -
                                                     per_key_cap_));
        }
      }
    }
  }
}

const std::vector<KeyModification>& HistoryIndex::HistoryFor(
    std::string_view ns, std::string_view key) const {
  auto space = index_.find(ns);
  if (space == index_.end()) return kEmpty;
  auto it = space->second.find(key);
  return it == space->second.end() ? kEmpty : it->second;
}

std::size_t HistoryIndex::TrackedKeys() const {
  std::size_t count = 0;
  for (const auto& [ns, keys] : index_) count += keys.size();
  return count;
}

}  // namespace fabricsim::ledger
