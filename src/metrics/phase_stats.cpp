#include "metrics/phase_stats.h"

#include <utility>
#include <vector>

namespace fabricsim::metrics {

void TxTracker::MarkSubmitted(const std::string& tx_id, sim::SimTime t) {
  records_[tx_id].submitted = t;
  NoteRecordCount();
}

void TxTracker::MarkEndorsed(const std::string& tx_id, sim::SimTime t) {
  auto it = records_.find(tx_id);
  if (it != records_.end() && it->second.endorsed < 0) {
    it->second.endorsed = t;
  }
}

void TxTracker::MarkOrdered(const std::string& tx_id, sim::SimTime t) {
  auto it = records_.find(tx_id);
  if (it != records_.end() && it->second.ordered < 0) it->second.ordered = t;
}

void TxTracker::MarkCommitted(const std::string& tx_id, sim::SimTime t,
                                  proto::ValidationCode code) {
  auto it = records_.find(tx_id);
  if (it == records_.end()) return;
  if (it->second.committed < 0) {
    it->second.committed = t;
    it->second.code = code;
  }
  // Commit is terminal: every phase timestamp is final, and the client never
  // rejects a transaction it saw commit (the runner disables streaming under
  // recovery, where a commit-timeout could still race this).
  if (stream_) Retire(it);
}

void TxTracker::MarkRejected(const std::string& tx_id, sim::SimTime t,
                                 RejectKind kind) {
  auto it = records_.find(tx_id);
  if (it == records_.end()) {
    // In streaming mode a miss here means the record was already folded with
    // rejected=false — a divergence from full-record accounting. Count it so
    // the A/B test can assert the race never fires.
    if (stream_) ++late_marks_;
    return;
  }
  (void)t;
  it->second.rejected = true;
  it->second.reject_kind = kind;
  // Before the envelope was broadcast nothing downstream can mark it again
  // (ordering/commit require a broadcast), so the record is final. A
  // rejected-but-broadcast record stays: the ordering service may still cut
  // and commit it, which full-record accounting counts in the validate
  // phases.
  if (stream_ && it->second.endorsed < 0) Retire(it);
}

void TxTracker::RecordBlockCut(sim::SimTime t, std::size_t tx_count) {
  if (stream_) {
    FoldBlockCut(t, tx_count, *stream_);
    return;
  }
  block_cuts_.emplace_back(t, tx_count);
}

void TxTracker::EnableStreaming(sim::SimTime window_start,
                                sim::SimTime window_end) {
  if (stream_) return;
  stream_.emplace();
  stream_->w0 = window_start;
  stream_->w1 = window_end;
}

const TxRecord* TxTracker::Find(const std::string& tx_id) const {
  auto it = records_.find(tx_id);
  return it == records_.end() ? nullptr : &it->second;
}

PhaseSummary TxTracker::PhaseAcc::Summarize(double window_s) const {
  PhaseSummary out;
  out.completed = completed;
  out.throughput_tps =
      window_s > 0 ? static_cast<double>(completed) / window_s : 0.0;
  out.mean_latency_s = sim::ToSeconds(static_cast<sim::SimTime>(hist.Mean()));
  out.p50_latency_s = sim::ToSeconds(hist.Percentile(50));
  out.p95_latency_s = sim::ToSeconds(hist.Percentile(95));
  out.p99_latency_s = sim::ToSeconds(hist.Percentile(99));
  return out;
}

void TxTracker::FoldRecord(const TxRecord& rec, FoldState& s) {
  if (rec.submitted >= s.w0 && rec.submitted <= s.w1) {
    ++s.submitted;
    if (rec.rejected) {
      ++s.rejected;
      if (rec.reject_kind == RejectKind::kShed) ++s.shed;
    }
  }
  if (rec.committed >= 0 && rec.code != proto::ValidationCode::kValid &&
      rec.committed >= s.w0 && rec.committed <= s.w1) {
    ++s.invalid;
  }
  s.execute.Add(rec.submitted, rec.endorsed, s.w0, s.w1);
  s.order.Add(rec.endorsed, rec.ordered, s.w0, s.w1);
  s.validate.Add(rec.ordered, rec.committed, s.w0, s.w1);
  s.order_validate.Add(rec.endorsed, rec.committed, s.w0, s.w1);
  // End-to-end counts only successfully committed valid transactions, the
  // paper's committed-to-ledger throughput.
  if (rec.code == proto::ValidationCode::kValid && !rec.rejected) {
    s.e2e.Add(rec.submitted, rec.committed, s.w0, s.w1);
  }
}

void TxTracker::FoldBlockCut(sim::SimTime t, std::size_t tx_count,
                             FoldState& s) {
  // Block time: mean gap between consecutive block cuts in the window. Cut
  // times arrive monotonically, so this streams.
  if (t < s.w0 || t > s.w1) return;
  ++s.blocks;
  s.txs_in_blocks += tx_count;
  if (s.have_prev_cut) {
    s.gap_sum += sim::ToSeconds(t - s.prev_cut);
    ++s.gaps;
  }
  s.prev_cut = t;
  s.have_prev_cut = true;
}

Report TxTracker::Finalize(const FoldState& s) {
  Report out;
  out.window_s = sim::ToSeconds(s.w1 - s.w0);
  out.submitted = s.submitted;
  out.rejected = s.rejected;
  out.shed = s.shed;
  out.invalid = s.invalid;
  out.execute = s.execute.Summarize(out.window_s);
  out.order = s.order.Summarize(out.window_s);
  out.validate = s.validate.Summarize(out.window_s);
  out.order_and_validate = s.order_validate.Summarize(out.window_s);
  out.end_to_end = s.e2e.Summarize(out.window_s);
  out.goodput_tps = out.end_to_end.throughput_tps;
  out.rejection_rate =
      out.submitted > 0 ? static_cast<double>(out.rejected) /
                              static_cast<double>(out.submitted)
                        : 0.0;
  out.blocks = s.blocks;
  out.mean_block_time_s =
      s.gaps > 0 ? s.gap_sum / static_cast<double>(s.gaps) : 0.0;
  out.mean_block_size =
      s.blocks > 0 ? static_cast<double>(s.txs_in_blocks) /
                         static_cast<double>(s.blocks)
                   : 0.0;
  return out;
}

void TxTracker::Retire(
    std::unordered_map<std::string, TxRecord>::iterator it) {
  FoldRecord(it->second, *stream_);
  records_.erase(it);
  ++retired_;
}

Report TxTracker::BuildReport(sim::SimTime window_start,
                              sim::SimTime window_end) const {
  if (stream_) {
    // The window was fixed at EnableStreaming time; fold the still-live
    // records (in flight, or rejected-after-broadcast and never committed)
    // on top of a copy so reporting is repeatable and const.
    FoldState s = *stream_;
    for (const auto& [tx_id, rec] : records_) {
      (void)tx_id;
      FoldRecord(rec, s);
    }
    return Finalize(s);
  }

  FoldState s;
  s.w0 = window_start;
  s.w1 = window_end;
  for (const auto& [tx_id, rec] : records_) {
    (void)tx_id;
    FoldRecord(rec, s);
  }
  for (const auto& [t, n] : block_cuts_) {
    FoldBlockCut(t, n, s);
  }
  return Finalize(s);
}

}  // namespace fabricsim::metrics
