#include "faults/invariants.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace fabricsim::faults {

namespace {

void Violate(InvariantReport& report, const std::string& invariant,
             std::string detail) {
  report.violations.push_back({invariant, std::move(detail)});
}

}  // namespace

std::string InvariantReport::Summary() const {
  std::ostringstream os;
  if (Ok()) {
    os << "invariants ok: " << chains_audited << " chains audited, "
       << blocks_compared << " blocks compared, " << txs_checked
       << " txs checked\n";
    return os.str();
  }
  constexpr std::size_t kMaxShown = 8;
  for (std::size_t i = 0; i < violations.size() && i < kMaxShown; ++i) {
    os << "VIOLATION [" << violations[i].invariant << "] "
       << violations[i].detail << "\n";
  }
  if (violations.size() > kMaxShown) {
    os << "... and " << violations.size() - kMaxShown << " more violations\n";
  }
  return os.str();
}

InvariantReport CheckInvariants(fabric::FabricNetwork& net,
                                bool pending_is_lost,
                                bool byzantine_expected) {
  InvariantReport report;
  const auto& records = net.Tracker().Records();

  for (int c = 0; c < net.ChannelCount(); ++c) {
    const std::string channel = net.ChannelId(c);
    std::vector<const peer::Committer*> committers;
    std::vector<std::string> names;
    for (std::size_t i = 0; i < net.PeerCount(); ++i) {
      peer::PeerNode& p = net.Peer(i);
      if (!p.HasChannel(channel)) continue;
      committers.push_back(&p.GetCommitter(channel));
      names.push_back(net.Env().Net().NameOf(p.NetId()));
    }

    for (std::size_t i = 0; i < committers.size(); ++i) {
      const ledger::Blockchain& chain = committers[i]->Chain();
      ++report.chains_audited;
      // No forged commits, checked before the structural audit so a
      // tampered commit classifies under its own name: a tampered payload
      // keeps the honest (signed) header, so header comparisons pass; the
      // Merkle re-check is what exposes it. (The audit below also notices
      // — the ledger re-checks data hashes — but "chain-audit" would not
      // say which defense the attack beat.)
      for (std::uint64_t n = 1; n < chain.Height(); ++n) {
        const proto::BlockPtr block = chain.Store().GetBlock(n);
        if (block == nullptr) continue;  // pruned under retention
        if (!(block->DataHash() == block->header.data_hash)) {
          Violate(report, "no-forged-commit",
                  names[i] + "/" + channel + " committed block " +
                      std::to_string(n) +
                      " whose payload does not hash to its signed header");
        }
      }
      const ledger::ChainCheck check = chain.Audit();
      if (!check.ok) {
        std::ostringstream os;
        os << names[i] << "/" << channel << " block " << check.bad_block
           << ": " << check.reason;
        Violate(report, "chain-audit", os.str());
      }
      // Exactly-once within the chain, and no phantoms: every committed tx
      // must have entered through a tracked client submission. Block 0 is
      // the genesis config transaction. Only kValid occurrences count as
      // committed — a resubmitted envelope may legitimately appear in a
      // later block flagged kDuplicateTxId by the committer's dedup.
      // Under retention the check covers the resident blocks only.
      std::unordered_set<std::string> seen;
      for (std::uint64_t n = 1; n < chain.Height(); ++n) {
        const proto::BlockPtr block = chain.Store().GetBlock(n);
        if (block == nullptr) continue;  // pruned under retention
        const auto& codes = chain.Store().CodesFor(n);
        for (std::size_t t = 0; t < block->transactions.size(); ++t) {
          const auto& tx = block->transactions[t];
          ++report.txs_checked;
          const bool valid =
              t < codes.size() && codes[t] == proto::ValidationCode::kValid;
          if (valid && !seen.insert(tx.tx_id).second) {
            Violate(report, "double-commit",
                    names[i] + "/" + channel + " committed " + tx.tx_id +
                        " as valid twice");
          }
          if (records.count(tx.tx_id) == 0) {
            Violate(report, "phantom-commit",
                    names[i] + "/" + channel + " committed unsubmitted tx " +
                        tx.tx_id);
          }
          // No forged commits: re-run VSCC against the committed bytes. A
          // tampered payload or forged endorsement that reached the ledger
          // as kValid fails its signature/policy re-check here. Memoized
          // envelope verdicts make the honest re-check nearly free.
          if (valid && committers[i]->Vscc(tx) !=
                           proto::ValidationCode::kValid) {
            Violate(report, "no-forged-commit",
                    names[i] + "/" + channel + " committed " + tx.tx_id +
                        " as valid but it fails VSCC re-verification");
          }
        }
      }
    }

    // No forks: all peers agree on every block number both still hold.
    for (std::size_t i = 1; i < committers.size(); ++i) {
      const auto& ref = committers[0]->Chain();
      const auto& other = committers[i]->Chain();
      const std::uint64_t shared = std::min(ref.Height(), other.Height());
      for (std::uint64_t n = 0; n < shared; ++n) {
        const proto::BlockPtr a = ref.Store().GetBlock(n);
        const proto::BlockPtr b = other.Store().GetBlock(n);
        if (a == nullptr || b == nullptr) continue;  // pruned under retention
        ++report.blocks_compared;
        if (!(a->header.Hash() == b->header.Hash())) {
          std::ostringstream os;
          os << channel << " block " << n << ": " << names[i]
             << " diverges from " << names[0];
          Violate(report, "chain-fork", os.str());
          break;
        }
      }
    }

    // No surviving fork: every committed block must also match the block
    // the ordering service's canonical histories hold at that number
    // (majority across the OSNs that still retain it, so one lagging OSN
    // cannot veto). Catches a channel-wide fork pairwise peer comparison
    // cannot see — e.g. every subscriber accepted the same forged variant.
    const auto osns = net.Osns(c);
    if (osns.size() >= 2) {
      for (std::size_t i = 0; i < committers.size(); ++i) {
        const auto& chain = committers[i]->Chain();
        bool reported = false;
        for (std::uint64_t n = 1; n < chain.Height() && !reported; ++n) {
          std::vector<crypto::Digest> hashes;
          for (const auto* osn : osns) {
            if (auto h = osn->HistoryHeaderHash(n)) hashes.push_back(*h);
          }
          if (hashes.empty()) continue;  // outside every retained history
          std::size_t best = 0;
          for (std::size_t a = 0; a < hashes.size(); ++a) {
            std::size_t votes = 0;
            for (const auto& h : hashes) {
              if (h == hashes[a]) ++votes;
            }
            if (votes > best) {
              best = votes;
              std::swap(hashes[0], hashes[a]);
            }
          }
          if (best * 2 <= hashes.size()) continue;  // no majority
          const proto::BlockPtr block = chain.Store().GetBlock(n);
          if (block == nullptr) continue;  // pruned under retention
          ++report.blocks_compared;
          if (!(block->header.Hash() == hashes[0])) {
            std::ostringstream os;
            os << names[i] << "/" << channel << " block " << n
               << " diverges from the ordering service's canonical chain";
            Violate(report, "no-surviving-fork", os.str());
            reported = true;
          }
        }
      }
    }
  }

  // Unexplained rejects: the Byzantine defenses must be silent on runs that
  // scheduled no Byzantine fault. A nonzero reject/quarantine counter on an
  // honest run means the commit path discarded real work.
  if (!byzantine_expected) {
    for (std::size_t i = 0; i < net.PeerCount(); ++i) {
      peer::PeerNode& p = net.Peer(i);
      const std::string name = net.Env().Net().NameOf(p.NetId());
      std::uint64_t rejected = 0;
      for (int c = 0; c < net.ChannelCount(); ++c) {
        const std::string channel = net.ChannelId(c);
        if (p.HasChannel(channel)) {
          rejected += p.GetCommitter(channel).RejectedBlocks();
        }
      }
      if (rejected > 0) {
        Violate(report, "unexplained-reject",
                name + " rejected " + std::to_string(rejected) +
                    " block(s) with no Byzantine fault scheduled");
      }
      if (p.ByzantineQuarantines() > 0) {
        Violate(report, "unexplained-reject",
                name + " quarantined a deliverer " +
                    std::to_string(p.ByzantineQuarantines()) +
                    " time(s) with no Byzantine fault scheduled");
      }
    }
  }

  // Client-side exactly-once: a broadcast-acked transaction must commit
  // (once) or come back as an explicit rejection; never vanish, never
  // commit valid twice.
  for (client::Client* cl : net.Clients()) {
    const client::Client::OutcomeLog* log = cl->Outcomes();
    if (log == nullptr) continue;
    for (const auto& [tx_id, n] : log->valid_commits) {
      if (n > 1) {
        std::ostringstream os;
        os << "client observed " << n << " valid commits for " << tx_id;
        Violate(report, "double-commit", os.str());
      }
    }
    for (const auto& tx_id : log->acked) {
      ++report.txs_checked;
      if (log->commits.count(tx_id) != 0 || log->rejected.count(tx_id) != 0) {
        continue;
      }
      if (!cl->IsPending(tx_id)) {
        Violate(report, "acked-lost",
                tx_id + " acked by the orderer but never committed "
                        "nor rejected, and the client gave up on it");
      } else if (pending_is_lost) {
        // Still-pending is normally not lost: under sustained load the
        // run's horizon always cuts through in-flight work, and the client
        // is still awaiting the commit event (or a commit-timeout
        // resubmit). But when the caller knows commits have permanently
        // stalled, that wait will never be satisfied.
        Violate(report, "acked-lost",
                tx_id + " acked by the orderer but the channel stalled "
                        "before it could commit; the client's retries "
                        "cannot succeed");
      }
    }
    // No silent drops: every submitted transaction must reach a terminal
    // status — committed, explicitly rejected (including overload sheds) —
    // or still be legitimately in flight inside the client. A shed tx that
    // simply vanished would pass the acked-lost check (it was never acked)
    // but fail here.
    for (const auto& tx_id : log->submitted) {
      ++report.txs_checked;
      if (log->commits.count(tx_id) == 0 && log->rejected.count(tx_id) == 0 &&
          !cl->IsPending(tx_id)) {
        Violate(report, "silent-drop",
                tx_id + " submitted but has no terminal status and is no "
                        "longer pending in the client");
      }
    }
  }
  return report;
}

RecoverySummary AnalyzeRecovery(const metrics::RateLog& commits,
                                sim::SimTime fault_at, sim::SimTime end) {
  RecoverySummary s;
  const sim::SimTime lead = sim::FromSeconds(5);
  s.pre_fault_tps = commits.MeanRate(
      fault_at > lead ? fault_at - lead : 0, fault_at);

  const auto windows = commits.Windows();
  double dip = -1.0;
  sim::SimTime dip_at = fault_at;
  for (const auto& w : windows) {
    if (w.start < fault_at || w.start >= end) continue;
    if (dip < 0.0 || w.tps < dip) {
      dip = w.tps;
      dip_at = w.start;
    }
  }
  if (dip >= 0.0) s.dip_tps = dip;

  // Outage: from the fault until the first later window that commits.
  sim::SimTime resumed = end;
  for (const auto& w : windows) {
    if (w.start < fault_at) continue;
    if (w.count > 0 || w.start >= end) {
      resumed = std::min(w.start, end);
      break;
    }
  }
  if (resumed > fault_at) s.outage_s = sim::ToSeconds(resumed - fault_at);

  // Stall: a healthy pre-fault rate, and nothing commits in the tail.
  if (s.pre_fault_tps > 0.0 && fault_at + lead < end) {
    s.stalled = commits.MeanRate(end - lead, end) == 0.0;
  }

  // Recovery: the first window at/after the dip back at >= 90% of the
  // pre-fault rate (windows straight after the fault can still ride on
  // in-flight blocks, so the search starts at the dip).
  const double target = 0.9 * s.pre_fault_tps;
  if (!s.stalled) {
    for (const auto& w : windows) {
      if (w.start < dip_at || w.start >= end) continue;
      if (w.tps >= target) {
        s.time_to_recover_s = sim::ToSeconds(w.start - fault_at);
        s.recovered_tps = commits.MeanRate(w.start, end);
        break;
      }
    }
  }
  return s;
}

}  // namespace fabricsim::faults
