// Million-transaction soak: bounded-memory accounting vs. full-record mode.
//
// The tentpole claim of the streaming metrics core is that per-run memory no
// longer grows with the number of transactions: the TxTracker folds each
// record into windowed sketches the moment its outcome is final, and the
// ledger retention bounds keep the block store / history index / OSN
// backfill maps at O(retained window). This bench proves it by running the
// same configuration at two scales and in both tracker modes:
//
//   1. streaming/small  — the reference scale (100k txs in the full tier);
//   2. streaming/large  — 10x the transactions. Peak RSS must stay within
//      1.2x of the small run, and the deterministic witness — the peak
//      concurrent record count — must stay at O(inflight), not O(total);
//   3. full/large       — the legacy accounting at the same large scale,
//      run LAST (ru_maxrss is monotonic process-wide): its record count
//      grows with every submitted transaction, which is the unbounded
//      behaviour the streaming mode removes.
//
// Points run strictly sequentially on one thread (RSS ordering matters), a
// single repetition each — the binary overrides --jobs/--reps.
//
// The process-global verify cache (crypto/verify_cache.h) is bounded, but
// it fills toward its cap with run length: the small point alone would
// leave it about half full while the large point wraps it several times,
// so the RSS ratio would measure the cache's one-off fill, not growth.
// Before the small point the bench fills the cache halfway with synthetic
// verdicts no real lookup can match; the small point's own verifications
// then carry every stripe to its cap, as in the large point. A check
// confirms the cap was reached inside the small point.
//
//   ./build/bench/soak [--quick] [--smoke] [--csv] [--json <path>]
//
// --smoke is the CI tier (25k / 250k transactions); the acceptance
// contract — flat RSS, flat records_hwm, zero late marks, full mode
// visibly unbounded — is checked at every tier.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "crypto/signature.h"
#include "crypto/verify_cache.h"

using namespace fabricsim;

namespace {

constexpr double kRateTps = 250.0;
// Streaming-vs-small peak-RSS ceiling at 10x the transactions.
constexpr double kRssRatioCeiling = 1.2;
// Streaming records_hwm at 10x scale vs. the small run: inflight is set by
// rate x latency, not by run length, so the ratio must stay near 1.
constexpr double kHwmRatioCeiling = 2.0;
// Full-record mode must be measurably unbounded vs. streaming at the same
// scale — its records_hwm is the total transaction count.
constexpr double kUnboundedFactor = 5.0;

fabric::ExperimentConfig SoakConfig(double duration_s, bool streaming) {
  fabric::ExperimentConfig config =
      fabric::StandardConfig(fabric::OrderingType::kSolo, 0, kRateTps);
  config.workload.duration = sim::FromSeconds(duration_s);
  config.warmup = sim::FromSeconds(5);
  config.drain = sim::FromSeconds(15);
  config.streaming_stats = streaming;
  // Steady-state workload: kKvWrite mints a fresh key per transaction, so
  // the world state itself (legitimate application data, on every peer)
  // would grow with run length and mask the tracker comparison. Read-write
  // over a fixed key space keeps state size constant; the occasional MVCC
  // conflict it produces is deterministic.
  config.workload.kind = client::WorkloadKind::kKvReadWrite;
  config.workload.key_space = 1000;
  // Ledger-side retention: without it the block store and history index
  // grow with every block regardless of the tracker mode. The history
  // index's steady state is key_space x history_per_key x peers entries;
  // keep that small enough to saturate well inside the SMALL run, or the
  // small-vs-large RSS comparison measures history fill, not the tracker.
  config.network.retention.ledger_blocks = 64;
  config.network.retention.history_per_key = 4;
  config.network.retention.osn_history_blocks = 64;
  return config;
}

// Fills the verify cache to half its cap with synthetic verdicts. Stripes
// are cleared wholesale only when full, so no stripe wraps here.
void FillVerifyCacheHalfway() {
  crypto::VerifyCache& cache = crypto::VerifyCache::Instance();
  const crypto::Signature sig{};
  for (std::size_t i = 0; i < crypto::VerifyCache::kMaxEntries / 2; ++i) {
    const crypto::Digest key =
        crypto::HashStr("soak-cache-fill-" + std::to_string(i));
    cache.Insert(key, key, sig, true);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args = benchutil::ParseArgs(argc, argv, "soak");
  // Sequential, single-rep by contract: points must run in this order on
  // one thread for the peak-RSS comparison to mean anything.
  args.jobs = 1;
  args.reps = 1;
  benchutil::RecorderSlot() = std::make_unique<bench::Recorder>(
      "soak", args.Mode(), args.crypto_cache, 1, 1);
  benchutil::RecorderSlot()->SetEmitTrackerStats(true);

  const double small_s =
      args.smoke ? 100.0 : (args.quick ? 200.0 : 400.0);  // 25k/50k/100k txs
  const double large_s = 10.0 * small_s;                  // 10x transactions

  metrics::Table table({"point", "txs", "records_hwm", "retired", "late_marks",
                        "peak_rss_kb", "chain_audit"});
  bool ok = true;

  struct Row {
    fabric::ExperimentResult result;
    std::uint64_t rss_kb = 0;
  };
  auto run = [&](double duration_s, bool streaming,
                 const std::string& label) {
    Row row;
    row.result = benchutil::RunPoint(SoakConfig(duration_s, streaming), args,
                                     label);
    row.rss_kb = bench::PeakRssKb();
    ok = ok && row.result.chain_audit_ok;
    table.AddRow({label, std::to_string(row.result.generated),
                  std::to_string(row.result.tracker.records_hwm),
                  std::to_string(row.result.tracker.retired),
                  std::to_string(row.result.tracker.late_marks),
                  std::to_string(row.rss_kb),
                  row.result.chain_audit_ok ? "OK" : "FAILED"});
    return row;
  };

  crypto::VerifyCache& cache = crypto::VerifyCache::Instance();
  if (cache.Enabled()) FillVerifyCacheHalfway();
  const std::uint64_t evictions_before_small = cache.Evictions();
  const Row small = run(small_s, true, "streaming/small");
  const std::uint64_t small_evictions =
      cache.Evictions() - evictions_before_small;
  const Row large = run(large_s, true, "streaming/large");
  const Row full = run(large_s, false, "full/large");

  // The streaming contract: the bounded-memory path actually engaged, and
  // no mark ever arrived after its record was retired (late marks would
  // mean streaming and full mode could disagree).
  for (const Row* r : {&small, &large}) {
    if (!r->result.tracker.streaming) {
      std::printf("soak: streaming accounting did not engage\n");
      ok = false;
    }
    if (r->result.tracker.late_marks != 0) {
      std::printf("soak: %llu late marks (streaming must see every mark "
                  "before retirement)\n",
                  static_cast<unsigned long long>(r->result.tracker.late_marks));
      ok = false;
    }
  }

  // Bounded memory, deterministic witness: peak concurrent records is set
  // by rate x latency, so 10x the transactions must not move it.
  if (large.result.tracker.records_hwm >
      static_cast<std::uint64_t>(
          kHwmRatioCeiling *
          static_cast<double>(small.result.tracker.records_hwm))) {
    std::printf("soak: streaming records_hwm grew with run length: "
                "%llu -> %llu at 10x txs\n",
                static_cast<unsigned long long>(small.result.tracker.records_hwm),
                static_cast<unsigned long long>(large.result.tracker.records_hwm));
    ok = false;
  }

  // The RSS comparison below assumes the verify cache hit its cap inside
  // the small point (every stripe cleared once drops kMaxEntries entries).
  if (cache.Enabled() && small_evictions < crypto::VerifyCache::kMaxEntries) {
    std::printf("soak: verify cache did not reach its cap in the small "
                "point (%llu evictions)\n",
                static_cast<unsigned long long>(small_evictions));
    ok = false;
  }

  // Bounded memory, host witness: peak RSS flat across 10x the
  // transactions (full mode runs after this check, so its growth cannot
  // contaminate the monotonic ru_maxrss reading).
  if (static_cast<double>(large.rss_kb) >
      kRssRatioCeiling * static_cast<double>(small.rss_kb)) {
    std::printf("soak: streaming peak RSS not flat: %llu kB -> %llu kB "
                "(ceiling %.1fx)\n",
                static_cast<unsigned long long>(small.rss_kb),
                static_cast<unsigned long long>(large.rss_kb),
                kRssRatioCeiling);
    ok = false;
  }

  // Full-record mode at the same scale keeps every record: its high
  // watermark is the total transaction count, which is the unbounded
  // growth streaming removes.
  if (static_cast<double>(full.result.tracker.records_hwm) <
      kUnboundedFactor *
          static_cast<double>(large.result.tracker.records_hwm)) {
    std::printf("soak: full-record mode not measurably unbounded: hwm %llu "
                "vs streaming %llu\n",
                static_cast<unsigned long long>(full.result.tracker.records_hwm),
                static_cast<unsigned long long>(large.result.tracker.records_hwm));
    ok = false;
  }

  // Equivalence spot check at the large scale: the two modes share one fold
  // (metrics::TxTracker), so every reported figure must agree bit-exactly.
  if (full.result.chain_head_hex != large.result.chain_head_hex ||
      full.result.report.goodput_tps != large.result.report.goodput_tps ||
      full.result.report.submitted != large.result.report.submitted ||
      full.result.report.end_to_end.mean_latency_s !=
          large.result.report.end_to_end.mean_latency_s) {
    std::printf("soak: streaming and full-record reports disagree\n");
    ok = false;
  }

  benchutil::PrintTable(table, args);
  std::cout << (ok ? "SOAK OK\n" : "SOAK FAILED\n");
  return benchutil::Finish(args, ok);
}
