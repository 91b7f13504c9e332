#include "peer/committer.h"

#include <stdexcept>
#include <string_view>
#include <vector>

#include "crypto/signature.h"
#include "ledger/flat_index.h"
#include "obs/trace.h"

namespace fabricsim::peer {

namespace {

/// The channel a committer with `config` commits into: `channel` itself, or
/// a private copy of it when a validation check is off.
std::shared_ptr<ChannelState> ChannelFor(std::shared_ptr<ChannelState> channel,
                                         const CommitterConfig& config) {
  if (channel->blocks->Height() != 0) {
    throw std::invalid_argument("Committer built on a channel past genesis");
  }
  if (!config.dedup_disabled && !config.data_hash_check_disabled) {
    return channel;
  }
  return std::make_shared<ChannelState>(
      channel->policies, channel->retention, channel->state.Snapshot(0));
}

}  // namespace

Committer::Committer(sim::Environment& env, sim::Machine& machine,
                     sim::Cpu& ledger_disk, const crypto::MspRegistry& msps,
                     const fabric::Calibration& cal,
                     metrics::TxTracker* tracker,
                     std::shared_ptr<ChannelState> channel,
                     CommitterConfig config)
    : env_(env),
      machine_(machine),
      disk_(ledger_disk),
      msps_(msps),
      cal_(cal),
      tracker_(tracker),
      config_(std::move(config)),
      channel_(ChannelFor(std::move(channel), config_)),
      chain_(channel_->blocks) {
  chain_.MutableStore().SetRetention(channel_->retention);
  // The ledger's append-time linkage check re-verifies the data hash
  // independently (defense in depth); the drill must lower both gates or
  // the tampered block still bounces — as a linkage reject — before the
  // invariant can see it.
  chain_.SetDataHashCheckDisabled(config_.data_hash_check_disabled);
  if (config_.optimizations.msp_cache) {
    msp_cache_ = std::make_unique<crypto::MspIdentityCache>(msps_);
  }
  if (config_.optimizations.vscc_workers > 0) {
    // Dedicated validation workers at the peer machine's clock speed.
    vscc_cpu_ = std::make_unique<sim::Cpu>(env_.Sched(),
                                           config_.optimizations.vscc_workers,
                                           machine_.GetCpu().SpeedFactor());
  }
}

void Committer::DetachState() {
  if (!SharesState()) return;
  ledger::StateDb own = channel_->state.Snapshot(next_commit_);
  chain_.MutableStore().Unshare();
  channel_->Collect();  // the channel no longer waits for this committer
  channel_ = std::make_shared<ChannelState>(channel_->policies,
                                            channel_->retention, std::move(own),
                                            chain_.Store().Log());
}

Committer::VsccPlan Committer::PlanVscc(const proto::TransactionEnvelope& tx,
                                        const proto::ValidationCode* decided) {
  const bool shortcircuit = config_.optimizations.policy_shortcircuit;
  // Identity lookups: under --opt-msp-cache a full deserialize + chain walk
  // on a miss and a map hit on a hit (the cached-vs-full split of the VSCC
  // cost); the short-circuit evaluator reads the certificates. Full VSCC
  // without the cache looks nothing up.
  const auto lookup =
      [&](proto::BytesView cert) -> crypto::MspIdentityCache::Result {
    if (msp_cache_ != nullptr) return msp_cache_->Lookup(cert);
    if (shortcircuit) return {msps_.CachedCertificate(cert)};
    return {};
  };
  // Charged only for endorsements whose signature is actually verified;
  // principal extraction beyond that is folded into the base cost — see
  // fabric/optimizations.h.
  const auto endorse_cost = [&](bool hit) {
    return hit ? cal_.vscc_cached_per_endorsement_cpu
               : cal_.vscc_per_endorsement_cpu;
  };
  const crypto::MspIdentityCache::Result creator = lookup(tx.creator_cert);
  VsccPlan plan{proto::ValidationCode::kValid,
                creator.hit ? cal_.vscc_cached_base_cpu : cal_.vscc_base_cpu};

  if (!shortcircuit) {
    // Full VSCC: every endorsement is verified, and the code is the one
    // the channel decided, if any.
    for (const auto& e : tx.endorsements) {
      plan.cost += endorse_cost(lookup(e.endorser_cert).hit);
    }
    plan.code = decided != nullptr ? *decided : Vscc(tx);
    return plan;
  }

  // Short-circuit plan: check the client signature, find the smallest
  // endorsement prefix that can satisfy the policy, and verify only that
  // prefix. Honest divergence from the full path (mirroring Fabric's own
  // short-circuit evaluator): an invalid endorsement *after* the satisfying
  // prefix is never examined, and an unsatisfiable endorsement set reports
  // kEndorsementPolicyFailure without looking at its signatures.
  std::vector<crypto::MspIdentityCache::Result> endorsers;
  endorsers.reserve(tx.endorsements.size());
  for (const auto& e : tx.endorsements) {
    endorsers.push_back(lookup(e.endorser_cert));
  }
  if (creator.cert == nullptr ||
      !crypto::VerifyDigest(creator.cert->subject_public_key,
                            tx.SignedBodyDigest(), tx.client_signature)) {
    plan.code = proto::ValidationCode::kBadSignature;
    return plan;
  }
  const auto pit = channel_->policies.find(tx.chaincode_id);
  if (pit == channel_->policies.end()) {
    plan.code = proto::ValidationCode::kInvalidOtherReason;
    return plan;
  }
  // Unverified principals: a certificate the registry rejects yields a
  // principal that can match nothing, so a forged identity can never help
  // satisfy the policy.
  std::vector<crypto::Principal> principals;
  principals.reserve(endorsers.size());
  for (const auto& e : endorsers) {
    principals.push_back(e.cert != nullptr
                             ? crypto::Principal{e.cert->msp_id, e.cert->role}
                             : crypto::Principal{"", crypto::Role::kClient});
  }
  const auto prefix = policy::SatisfiedPrefix(pit->second, principals);
  if (!prefix) {
    plan.code = proto::ValidationCode::kEndorsementPolicyFailure;
    return plan;
  }
  const crypto::Digest& endorsed = tx.EndorsedPayloadDigest();
  for (std::size_t i = 0; i < *prefix; ++i) {
    // The failing check is still paid for.
    plan.cost += endorse_cost(endorsers[i].hit);
    const crypto::Certificate* cert = endorsers[i].cert;
    if (cert == nullptr ||
        !crypto::VerifyDigest(cert->subject_public_key, endorsed,
                              tx.endorsements[i].signature)) {
      plan.code = proto::ValidationCode::kBadSignature;
      return plan;
    }
  }
  plan.code = proto::ValidationCode::kValid;
  return plan;
}

void Committer::InstallGenesis(proto::BlockPtr genesis) {
  if (chain_.Height() != 0) return;  // already bootstrapped
  // Led or followed like every later height (see SerialCommit).
  const bool leading = FollowedVerdict(*genesis, {}) == nullptr;
  if (!(leading ? chain_.Append(genesis, {}) : chain_.Follow(*genesis))) {
    return;
  }
  if (leading) {
    channel_->state.SetHeight(1);
    channel_->Record(0, {genesis->header.Hash(), {}, 0, genesis->WireSize()});
  }
  channel_->Collect();
  next_commit_ = 1;
}

proto::ValidationCode Committer::Vscc(
    const proto::TransactionEnvelope& tx) const {
  // Signature half of VSCC: client signature over the envelope body plus
  // every endorsement over the endorsed payload. The verdict is memoized on
  // the shared envelope — every peer validates the same immutable bytes
  // against the same trust registry, so recomputation is pure redundancy
  // (each peer still pays the full CPU cost in simulated time).
  const auto& signers = tx.VerifiedSigners(msps_);
  if (!signers) return proto::ValidationCode::kBadSignature;

  // Evaluate the chaincode's endorsement policy from the channel's table.
  // Not memoized: the invariant oracle re-checks committed codes here.
  const auto it = channel_->policies.find(tx.chaincode_id);
  if (it == channel_->policies.end()) {
    return proto::ValidationCode::kInvalidOtherReason;
  }
  if (!policy::Satisfied(it->second, *signers)) {
    return proto::ValidationCode::kEndorsementPolicyFailure;
  }
  return proto::ValidationCode::kValid;
}

void Committer::OnBlock(proto::BlockPtr block, OnCommit on_commit) {
  const std::uint64_t number = block->header.number;
  if (number < next_commit_ || pending_.count(number) != 0 ||
      ready_.count(number) != 0 || deferred_.count(number) != 0) {
    return;  // duplicate delivery (multiple OSN subscriptions / re-delivery)
  }

  // Structural checks: hash-chain linkage is re-validated at append time;
  // the orderer signature and the header's data hash are checked here. A
  // rejected block never enters the pipeline, so next_commit_ stays
  // unsatisfied and the deliver watchdog's gap repair re-fetches an honest
  // copy from the ordering service's canonical history.
  const crypto::Certificate* orderer_cert =
      msps_.CachedCertificate(block->metadata.orderer_cert);
  if (orderer_cert == nullptr ||
      !crypto::VerifyDigest(orderer_cert->subject_public_key,
                            block->header.Hash(),
                            block->metadata.orderer_signature)) {
    ++rejected_blocks_;
    return;
  }
  // Data-hash re-verification: a payload tampered in flight keeps the
  // signed header but no longer hashes to header.data_hash. The Merkle root
  // is memoized on the shared block, so the honest path pays one host-side
  // hash per block and zero simulated CPU — results stay byte-identical.
  if (!config_.data_hash_check_disabled &&
      block->DataHash() != block->header.data_hash) {
    ++rejected_blocks_;
    return;
  }

  const std::size_t max_blocks = config_.max_pipeline_blocks;
  if (max_blocks > 0 && pending_.size() + ready_.size() >= max_blocks) {
    // Bounded validation pipeline: park the block until VSCC/commit drain.
    ++deferred_total_;
    deferred_.emplace(number,
                      DeferredBlock{std::move(block), std::move(on_commit)});
    return;
  }
  Admit(number, std::move(block), std::move(on_commit));
}

void Committer::Admit(std::uint64_t number, proto::BlockPtr block,
                      OnCommit on_commit) {
  PendingBlock pb;
  pb.block = std::move(block);
  pb.vscc_codes.assign(pb.block->transactions.size(),
                       proto::ValidationCode::kValid);
  pb.vscc_remaining = pb.block->transactions.size();
  pb.on_commit = std::move(on_commit);
  pending_.emplace(number, std::move(pb));
  StartVscc(number);
}

void Committer::PromoteDeferred() {
  const std::size_t max_blocks = config_.max_pipeline_blocks;
  while (!deferred_.empty() &&
         (max_blocks == 0 || pending_.size() + ready_.size() < max_blocks)) {
    auto it = deferred_.begin();
    const std::uint64_t number = it->first;
    DeferredBlock d = std::move(it->second);
    deferred_.erase(it);
    if (number < next_commit_) continue;  // superseded while parked
    Admit(number, std::move(d.block), std::move(d.on_commit));
  }
}

void Committer::StartVscc(std::uint64_t number) {
  auto it = pending_.find(number);
  if (it == pending_.end()) return;
  PendingBlock& pb = it->second;

  if (pb.block->transactions.empty()) {
    OnVsccDone(number);
    return;
  }

  const bool tracing = env_.Trace() != nullptr && tracker_ != nullptr;
  if (tracing) pb.vscc_done_at.assign(pb.block->transactions.size(), 0);

  // Fan one VSCC job per transaction onto the validation station — the
  // peer CPU, or the dedicated worker pool under --opt-vscc-workers. Each
  // job's code and cost are planned here, in submission order. The block's
  // full-VSCC codes are decided once per channel height, by the first
  // committer to start VSCC on it (every committer of a channel trusts the
  // same MSP registry); the others reuse them and still charge their own
  // simulated cost. Another block at that height (a fork) decides its own
  // and leaves the record alone. A short-circuit code is this committer's
  // own.
  const bool full = !config_.optimizations.policy_shortcircuit;
  const crypto::Digest block_hash = pb.block->header.Hash();
  const ChannelState::VsccCodes* recorded =
      full ? channel_->VsccCodesAt(number) : nullptr;
  const std::vector<proto::ValidationCode>* decided =
      recorded != nullptr && recorded->block_hash == block_hash
          ? &recorded->codes
          : nullptr;
  const sim::SimTime enqueued = env_.Now();
  for (std::size_t i = 0; i < pb.block->transactions.size(); ++i) {
    const VsccPlan plan = PlanVscc(pb.block->transactions[i],
                                   decided != nullptr ? &(*decided)[i]
                                                      : nullptr);
    pb.vscc_codes[i] = plan.code;
    VsccCpuRef().Submit(plan.cost, [this, number, i, cost = plan.cost,
                                    enqueued] {
      auto pit = pending_.find(number);
      if (pit == pending_.end()) return;
      PendingBlock& blk = pit->second;
      if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
        tr->RecordResourceSpan(tr->PidFor(machine_.Name()), "vscc",
                               blk.block->transactions[i].tx_id, enqueued,
                               env_.Now(), VsccCpuRef().ScaledCost(cost));
        if (i < blk.vscc_done_at.size()) blk.vscc_done_at[i] = env_.Now();
      }
      if (--blk.vscc_remaining == 0) OnVsccDone(number);
    });
  }
  if (full && recorded == nullptr) {
    channel_->vscc_codes.push_back({number, block_hash, pb.vscc_codes});
  }
}

void Committer::OnVsccDone(std::uint64_t number) {
  auto it = pending_.find(number);
  if (it == pending_.end()) return;
  PendingBlock& pb = it->second;
  if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
    // Transactions whose VSCC finished early wait for the block's stragglers
    // before the serial stage can even be considered.
    pb.all_vscc_done = env_.Now();
    const int pid = tr->PidFor(machine_.Name());
    for (std::size_t i = 0; i < pb.block->transactions.size() &&
                            i < pb.vscc_done_at.size();
         ++i) {
      if (pb.vscc_done_at[i] > 0 && pb.vscc_done_at[i] < pb.all_vscc_done) {
        tr->Record(pid, obs::SpanKind::kQueue, "vscc.straggle",
                   pb.block->transactions[i].tx_id, pb.vscc_done_at[i],
                   pb.all_vscc_done);
      }
    }
  }
  ready_.emplace(number, std::move(it->second));
  pending_.erase(it);
  TrySerialCommit();
}

void Committer::TrySerialCommit() {
  if (serial_busy_) return;
  auto it = ready_.find(next_commit_);
  if (it == ready_.end()) return;
  serial_busy_ = true;
  PendingBlock pb = std::move(it->second);
  ready_.erase(it);

  const auto tx_count = pb.block->transactions.size();
  // Bulk commit replaces the three per-tx write costs with one batched
  // ledger write per block: a larger fixed cost, a small residual per tx.
  const sim::SimDuration cost =
      config_.optimizations.bulk_commit
          ? cal_.bulk_block_write_base_disk +
                static_cast<sim::SimDuration>(tx_count) *
                    cal_.bulk_write_per_tx_disk
          : cal_.block_write_base_disk +
                static_cast<sim::SimDuration>(tx_count) *
                    (cal_.mvcc_per_tx_disk + cal_.state_write_per_tx_disk +
                     cal_.block_write_per_tx_disk);
  disk_.Submit(cost, [this, cost, pb = std::move(pb)]() mutable {
    if (auto* tr = env_.Trace(); tr != nullptr && tracker_ != nullptr) {
      // One commit span per transaction: queue half covers waiting for the
      // in-order serial stage + the disk, service half the MVCC + write.
      const int pid = tr->PidFor(machine_.Name() + "/disk");
      const sim::SimTime enq =
          pb.all_vscc_done > 0 ? pb.all_vscc_done : env_.Now();
      for (const auto& tx : pb.block->transactions) {
        tr->RecordResourceSpan(pid, "commit", tx.tx_id, enq, env_.Now(),
                               disk_.ScaledCost(cost));
      }
    }
    SerialCommit(std::move(pb));
  });
}

std::uint64_t Committer::ScreenDuplicates(
    const proto::Block& block, std::vector<proto::ValidationCode>& codes) {
  // Duplicate tx-id screening (Fabric flags later duplicates invalid).
  // The failpoint skips it so chaos tests can observe double commits.
  if (config_.dedup_disabled) return 0;
  std::uint64_t flagged = 0;
  // The block's earlier tx ids, by position in the block.
  const proto::EnvelopeList& txs = block.transactions;
  ledger::FlatIndex<std::uint32_t> seen;
  seen.Reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const std::string_view id = txs[i].tx_id;
    const std::uint64_t hash = ledger::HashKey(id);
    const bool repeated_in_block =
        seen.Find(hash, [&](std::uint32_t j) { return txs[j].tx_id == id; }) !=
        nullptr;
    if (!repeated_in_block) {
      seen.Insert(hash, static_cast<std::uint32_t>(i));
    }
    if (repeated_in_block || chain_.Store().HasTransaction(id)) {
      if (codes[i] == proto::ValidationCode::kValid) {
        codes[i] = proto::ValidationCode::kDuplicateTxId;
        ++flagged;
      }
    }
  }
  return flagged;
}

const ChannelState::Verdict* Committer::FollowedVerdict(
    const proto::Block& block,
    const std::vector<proto::ValidationCode>& vscc_codes) {
  if (channel_->state.Height() == next_commit_) {
    return nullptr;  // the first committer at this height
  }
  const ChannelState::Verdict* v = channel_->VerdictAt(next_commit_);
  if (v != nullptr && v->vscc_codes == vscc_codes &&
      v->block_hash == block.header.Hash() &&
      v->wire_size == block.WireSize()) {
    return v;
  }
  DetachState();
  return nullptr;
}

void Committer::SerialCommit(PendingBlock pb) {
  // The first committer at a height leads it; one that arrives after the
  // head moved on follows the leader's verdict, or detaches when its block
  // or VSCC verdicts differ.
  const ChannelState::Verdict* followed =
      FollowedVerdict(*pb.block, pb.vscc_codes);
  const bool leading = followed == nullptr;
  bool linked = false;
  if (leading) {
    std::vector<proto::ValidationCode> codes = pb.vscc_codes;
    const std::uint64_t duplicates = ScreenDuplicates(*pb.block, codes);
    duplicate_tx_rejects_ += duplicates;
    // MVCC with the VSCC verdicts folded in.
    codes = ledger::MvccValidator::Validate(*pb.block, channel_->state, &codes)
                .codes;
    // The validation codes are stored beside the shared immutable block
    // (equivalent to Fabric filling the block metadata before the write,
    // without deep-copying the block on every peer).
    linked = chain_.Append(pb.block, std::move(codes));
    if (linked) {
      channel_->Record(next_commit_,
                       {pb.block->header.Hash(), std::move(pb.vscc_codes),
                        duplicates, pb.block->WireSize()});
    }
  } else {
    // The follower's chain advances over the leader's logged block and
    // codes, which the verdict vouches are this block's.
    duplicate_tx_rejects_ += followed->duplicates;
    linked = chain_.Follow(*pb.block);
  }
  if (!linked) {
    // Linkage failure — an orderer bug or a tampered stream that slipped
    // the structural checks. Counted (never silently discarded: the
    // invariant oracle flags any unexplained reject) and left uncommitted,
    // so next_commit_ stays put and the deliver watchdog's gap repair
    // re-fetches the honest copy.
    ++rejected_blocks_;
    serial_busy_ = false;
    TrySerialCommit();
    PromoteDeferred();
    return;
  }
  const ledger::CodesPtr stored = chain_.Store().SharedCodesFor(next_commit_);
  // The chain advanced first: the leader's own height must not hold back
  // its write.
  channel_->Collect();
  if (leading) {
    ledger::MvccValidator::Commit(*pb.block, *stored, channel_->state);
  }

  for (std::size_t i = 0; i < pb.block->transactions.size(); ++i) {
    const proto::ValidationCode code = (*stored)[i];
    if (code == proto::ValidationCode::kValid) {
      ++committed_tx_;
      commit_log_.Record(env_.Now());
    } else {
      ++invalid_tx_;
    }
    if (tracker_ != nullptr) {
      tracker_->MarkCommitted(pb.block->transactions[i].tx_id, env_.Now(),
                              code);
    }
  }

  ++next_commit_;
  serial_busy_ = false;

  if (pb.on_commit) pb.on_commit(CommittedBlock{pb.block, stored});
  TrySerialCommit();
  PromoteDeferred();
}

}  // namespace fabricsim::peer
