// Committer: the validate phase of a peer.
//
// Fabric v1.4 validates a delivered block in two stages:
//   1. VSCC, parallel: per transaction, verify every endorsement signature
//      and evaluate the chaincode's endorsement policy — a worker pool over
//      the peer's cores. This is the paper's AND-policy bottleneck.
//   2. Serial: MVCC read-conflict check, then the atomic ledger write
//      (block store append + state DB update), a single-writer, fsync-bound
//      path. This is the paper's OR-policy bottleneck.
// Blocks commit strictly in order.
//
// The ledger write updates the block store and the state DB only. Key
// history (Fabric's optional history database) is not indexed while
// committing: History() builds it on demand from the resident blocks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crypto/ca.h"
#include "crypto/msp_cache.h"
#include "fabric/calibration.h"
#include "fabric/optimizations.h"
#include "ledger/blockchain.h"
#include "ledger/history_index.h"
#include "ledger/mvcc.h"
#include "ledger/state_db.h"
#include "metrics/phase_stats.h"
#include "metrics/rate_log.h"
#include "policy/evaluator.h"
#include "policy/policy.h"
#include "sim/machine.h"

namespace fabricsim::peer {

/// One channel's committed ledger: its world state, its block log, the
/// verdict each height was committed with, and the ledger retention every
/// view of its log keeps. Every committer is built on one. The network
/// builds the committers of every peer that joined a channel on the same
/// one: the first committer to reach a height (the leader) validates the
/// block, writes the state, appends the block to the log and records the
/// verdict; the others (followers) reuse the verdict when their block and
/// VSCC codes match it, and their chains advance over the logged block. A
/// standalone or detached committer holds its own: a channel of one, which
/// leads every height. See Committer::Committer.
///
/// The log's view table (ledger::BlockLog) is the one record of where the
/// committers are: the state keeps superseded versions, and the verdicts
/// stay, only down to the lowest committer height (Collect).
struct ChannelState {
  struct Verdict {
    crypto::Digest block_hash{};
    std::vector<proto::ValidationCode> vscc_codes;
    std::uint64_t duplicates = 0;  // kDuplicateTxId flags
    // Each orderer signs its own copy of a block: the same header hash can
    // come with other metadata. The same size keeps every byte count a
    // follower derives from the logged block its own.
    std::size_t wire_size = 0;
  };

  /// `retention`: blocks each view keeps resident (0 = all); see
  /// ledger::BlockStore::SetRetention.
  explicit ChannelState(std::uint64_t retention = 0, ledger::StateDb db = {},
                        std::shared_ptr<ledger::BlockLog> log =
                            std::make_shared<ledger::BlockLog>())
      : retention(retention), state(std::move(db)), blocks(std::move(log)) {}

  /// The verdict of height `h`, while some committer is still below it.
  [[nodiscard]] const Verdict* VerdictAt(std::uint64_t h) const {
    if (h < first_verdict || h - first_verdict >= verdicts.size()) {
      return nullptr;
    }
    return &verdicts[h - first_verdict];
  }
  /// Records the verdict of height `h`, the height just led.
  void Record(std::uint64_t h, Verdict verdict) {
    if (verdicts.empty()) first_verdict = h;
    verdicts.push_back(std::move(verdict));
  }
  /// Collects the state, and drops the verdicts, below the lowest height of
  /// the committers on the log.
  void Collect() {
    const std::uint64_t oldest = blocks->OldestHeight();
    state.Collect(oldest);
    while (!verdicts.empty() && first_verdict < oldest) {
      verdicts.pop_front();
      ++first_verdict;
    }
  }

  const std::uint64_t retention;
  ledger::StateDb state;
  std::shared_ptr<ledger::BlockLog> blocks;
  std::deque<Verdict> verdicts;  // heights first_verdict, first_verdict + 1..
  std::uint64_t first_verdict = 0;
};

/// Result handed to the owner after each block commits.
struct CommittedBlock {
  proto::BlockPtr block;
  ledger::CodesPtr codes;  // as stored in the chain
};

/// A committer's settings, fixed when it is built.
struct CommitterConfig {
  /// Caps the validation pipeline (blocks in VSCC + awaiting serial
  /// commit). Excess blocks are deferred and promoted as the pipeline
  /// drains — never shed: a delivered block is acked work, so deferral is
  /// the only policy that keeps "nothing acked is lost" intact. 0 =
  /// unbounded (legacy behavior).
  std::size_t max_pipeline_blocks = 0;
  /// The Thakkar-style validate-phase optimizations (see
  /// fabric/optimizations.h). With every knob off — the default — the
  /// commit pipeline is byte-identical to the unoptimized committer: the
  /// VSCC cost formula, the serial disk cost, and the CPU the jobs run on
  /// are untouched.
  fabric::OptimizationOptions optimizations;
  /// Failpoint: skip duplicate tx-id screening in SerialCommit. Exists only
  /// so chaos campaigns can prove the double-commit invariant fires (a
  /// client resubmission then commits twice). Never set in production runs.
  bool dedup_disabled = false;
  /// Failpoint: skip the commit-time data-hash re-verification, and the
  /// ledger's append-time one, so planted tamper-block drills can show the
  /// no-forged-commit invariant fire. Never set in production runs.
  bool data_hash_check_disabled = false;
};

class Committer {
 public:
  using OnCommit = std::function<void(const CommittedBlock&)>;

  /// A committer on `channel`, the ledger it commits into, from its first
  /// block on. Each block is then either led (validated and written here,
  /// appended to the log, its verdict recorded) or followed (the recorded
  /// verdict reused when this committer's block hash, block size and VSCC
  /// codes match it; no dedup screen, MVCC, state write or log append: the
  /// chain only advances its height). Genesis is led or followed the same
  /// way, so build every committer of a channel before any installs it.
  /// A committer whose config disables a validation check starts on a
  /// private copy of `channel` instead: its verdicts are never another's.
  /// Throws std::invalid_argument when `channel` has logged a block.
  Committer(sim::Environment& env, sim::Machine& machine,
            sim::Cpu& ledger_disk, const crypto::MspRegistry& msps,
            const fabric::Calibration& cal, metrics::TxTracker* tracker,
            std::shared_ptr<ChannelState> channel, CommitterConfig config);
  Committer(const Committer&) = delete;
  Committer& operator=(const Committer&) = delete;

  /// Registers the endorsement policy for a chaincode (channel config).
  void SetPolicy(const std::string& chaincode_id,
                 policy::EndorsementPolicy policy);

  /// Installs the channel's genesis block (block 0) directly, as joining a
  /// channel does in Fabric. User blocks then start at 1, which keeps the
  /// (block, tx) state versions of seeded genesis data (version {0,0})
  /// distinct from any transaction's writes.
  void InstallGenesis(proto::BlockPtr genesis);

  /// Entry point: a block arrived from the ordering service. Re-delivered
  /// or out-of-order blocks are buffered / dropped as appropriate.
  void OnBlock(proto::BlockPtr block, OnCommit on_commit);

  /// Moves onto a fresh private channel: a copy of the state as of this
  /// committer's height plus a copy of its chain's window, under the same
  /// retention; every later block is validated and written here. Called on
  /// any verdict mismatch, on a crash, and on mutable chain access. A no-op
  /// on a private channel.
  void DetachState();
  /// True while this committer's ledger is not its own (see
  /// ledger::BlockStore::Shared).
  [[nodiscard]] bool SharesState() const { return chain_.Store().Shared(); }

  /// The MSP identity cache, when --opt-msp-cache armed one (else nullptr).
  [[nodiscard]] const crypto::MspIdentityCache* MspCache() const {
    return msp_cache_.get();
  }
  /// Blocks currently in VSCC or awaiting serial commit.
  [[nodiscard]] std::size_t PipelineDepth() const {
    return pending_.size() + ready_.size();
  }
  /// Blocks parked behind the bounded pipeline.
  [[nodiscard]] std::size_t DeferredBlocks() const { return deferred_.size(); }
  [[nodiscard]] std::uint64_t DeferredTotal() const { return deferred_total_; }

  /// True when a later block is buffered anywhere in the pipeline but the
  /// next block to commit never arrived: the deliver stream dropped it, and
  /// nothing in the normal path will resend it. The deliver watchdog uses
  /// this to re-subscribe and have the OSN backfill the hole.
  [[nodiscard]] bool AwaitingGapBlock() const {
    if (pending_.count(next_commit_) != 0 ||
        ready_.count(next_commit_) != 0 ||
        deferred_.count(next_commit_) != 0) {
      return false;  // the next block is in flight, just not committed yet
    }
    auto has_later = [&](const auto& m) {
      return !m.empty() && m.rbegin()->first > next_commit_;
    };
    return has_later(pending_) || has_later(ready_) || has_later(deferred_);
  }
  /// Block number SerialCommit is waiting for.
  [[nodiscard]] std::uint64_t NextCommit() const { return next_commit_; }

  /// Blocks rejected before/at commit, by cause. All zero on an honest run
  /// — the invariant oracle flags nonzero counts without a scheduled
  /// Byzantine fault as a violation (unexplained-reject) instead of letting
  /// the commit path discard blocks silently.
  [[nodiscard]] std::uint64_t RejectedOrdererSig() const {
    return rejected_orderer_sig_;
  }
  [[nodiscard]] std::uint64_t RejectedDataHash() const {
    return rejected_data_hash_;
  }
  [[nodiscard]] std::uint64_t RejectedLinkage() const {
    return rejected_linkage_;
  }
  [[nodiscard]] std::uint64_t RejectedBlocks() const {
    return rejected_orderer_sig_ + rejected_data_hash_ + rejected_linkage_;
  }
  /// Transactions flagged kDuplicateTxId by the dedup screen (replay
  /// rejection attribution; benign resubmissions also land here).
  [[nodiscard]] std::uint64_t DuplicateTxRejects() const {
    return duplicate_tx_rejects_;
  }

  [[nodiscard]] const ledger::Blockchain& Chain() const { return chain_; }
  /// Mutable chain access for oracle self-tests (crafting forks and phantom
  /// commits). Production code only mutates the chain via SerialCommit.
  [[nodiscard]] ledger::Blockchain& MutableChainForTest() {
    DetachState();
    return chain_;
  }
  /// The world state as this committer's endorser sees it: as of its own
  /// height.
  [[nodiscard]] ledger::StateView State() const {
    return {channel_->state, next_commit_};
  }
  /// The channel ledger this committer commits into.
  [[nodiscard]] const ChannelState& Channel() const { return *channel_; }
  /// Key history of the resident blocks, replayed from the block store.
  /// Returned by value: hold it in a local before referencing into it.
  [[nodiscard]] ledger::HistoryIndex History() const {
    return ledger::BuildHistory(chain_.Store());
  }
  [[nodiscard]] std::uint64_t CommittedTx() const { return committed_tx_; }
  [[nodiscard]] std::uint64_t InvalidTx() const { return invalid_tx_; }

  /// Per-second log of valid commits (the paper's rate double-check on the
  /// receive side).
  [[nodiscard]] const metrics::RateLog& CommitLog() const {
    return commit_log_;
  }

  /// VSCC for one transaction — public for unit tests.
  [[nodiscard]] proto::ValidationCode Vscc(
      const proto::TransactionEnvelope& tx) const;

 private:
  struct PendingBlock {
    proto::BlockPtr block;
    std::vector<proto::ValidationCode> vscc_codes;
    std::size_t vscc_remaining = 0;
    OnCommit on_commit;
    // Tracing only: per-tx VSCC completion times and when the whole block
    // finished VSCC (straggler + commit-queue spans).
    std::vector<sim::SimTime> vscc_done_at;
    sim::SimTime all_vscc_done = 0;
  };

  struct DeferredBlock {
    proto::BlockPtr block;
    OnCommit on_commit;
  };

  /// Submit-time VSCC plan used when a cost-affecting knob (msp_cache /
  /// policy_shortcircuit) is on: the verdict and the knob-dependent cost
  /// are computed in deterministic submission order (MSP-cache hits and
  /// short-circuit savings depend on it). With both knobs off the plan is
  /// never built and the verdict is computed at job completion, exactly as
  /// before.
  struct VsccPlan {
    proto::ValidationCode code = proto::ValidationCode::kValid;
    sim::SimDuration cost = 0;
  };
  [[nodiscard]] VsccPlan PlanVscc(const proto::TransactionEnvelope& tx);
  [[nodiscard]] sim::Cpu& VsccCpuRef() {
    return vscc_cpu_ ? *vscc_cpu_ : machine_.GetCpu();
  }
  void Admit(std::uint64_t number, proto::BlockPtr block, OnCommit on_commit);
  void PromoteDeferred();
  void StartVscc(std::uint64_t number);
  void OnVsccDone(std::uint64_t number);
  void TrySerialCommit();
  void SerialCommit(PendingBlock pending);
  /// Flags in-block and already-committed tx ids kDuplicateTxId; returns
  /// how many it flagged.
  std::uint64_t ScreenDuplicates(const proto::Block& block,
                                 std::vector<proto::ValidationCode>& codes);
  /// The one lead-or-follow decision, for `block` at this committer's
  /// height: the channel's verdict when the block (header hash and wire
  /// size) and VSCC codes match it, so this committer follows it. nullptr
  /// when it leads: it is the first at this height (always, on a private
  /// channel), or it found a verdict it does not match and detached.
  [[nodiscard]] const ChannelState::Verdict* FollowedVerdict(
      const proto::Block& block,
      const std::vector<proto::ValidationCode>& vscc_codes);

  sim::Environment& env_;
  sim::Machine& machine_;
  sim::Cpu& disk_;
  const crypto::MspRegistry& msps_;
  const fabric::Calibration& cal_;
  metrics::TxTracker* tracker_;

  std::unordered_map<std::string, policy::EndorsementPolicy> policies_;

  const CommitterConfig config_;
  std::unique_ptr<crypto::MspIdentityCache> msp_cache_;
  std::unique_ptr<sim::Cpu> vscc_cpu_;  // dedicated VSCC workers

  std::shared_ptr<ChannelState> channel_;  // its log is the one chain_ views
  ledger::Blockchain chain_;

  // Blocks by number: received, undergoing VSCC, awaiting serial commit.
  std::map<std::uint64_t, PendingBlock> pending_;
  std::map<std::uint64_t, PendingBlock> ready_;  // VSCC finished
  // Parked behind the bounded pipeline, lowest number promoted first.
  std::map<std::uint64_t, DeferredBlock> deferred_;
  std::uint64_t deferred_total_ = 0;
  std::uint64_t rejected_orderer_sig_ = 0;
  std::uint64_t rejected_data_hash_ = 0;
  std::uint64_t rejected_linkage_ = 0;
  std::uint64_t duplicate_tx_rejects_ = 0;
  std::uint64_t next_commit_ = 0;
  bool serial_busy_ = false;
  std::uint64_t committed_tx_ = 0;
  std::uint64_t invalid_tx_ = 0;
  metrics::RateLog commit_log_{"committed"};
};

}  // namespace fabricsim::peer
