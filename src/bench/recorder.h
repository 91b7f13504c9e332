// Bench result recorder: accumulates one measurement point per experiment
// run and serializes the machine-readable result file the CI regression
// gate consumes (see EXPERIMENTS.md, "Bench JSON schema").
//
// Split of responsibilities with bench_diff:
//   - everything under a point's "simulated" object is deterministic
//     (same seed + config ⇒ bit-equal values) and is compared exactly;
//   - everything under "host" wobbles with the machine and is compared
//     with a relative tolerance.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/json.h"
#include "fabric/experiment.h"

namespace fabricsim::bench {

/// Host-side cost of producing one measurement point. `wall_s` holds one
/// entry per kept repetition (warm-up rep already discarded).
struct HostSample {
  std::vector<double> wall_s;
  std::uint64_t sched_events = 0;  // per repetition (identical across reps)
};

/// Mean and (population) standard deviation of `xs`; {0, 0} when empty.
struct MeanStddev {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStddev Summarize(const std::vector<double>& xs);

/// Peak resident set size of this process in kilobytes (ru_maxrss).
std::uint64_t PeakRssKb();

/// MSP identity-cache counters for the result file (see
/// crypto::MspIdentityCache; copied here so the JSON layer does not depend
/// on the crypto headers).
struct MspCacheSample {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// Thread-safe: every mutating entry point locks, so misuse from sweep
/// workers cannot corrupt the document. The sweep harness nevertheless
/// records points from the collecting thread only, in submission order, so
/// the JSON point array is byte-identical between serial and parallel runs.
class Recorder {
 public:
  /// `mode` is the sweep tier the file was produced under ("full", "quick",
  /// "smoke"): baselines only compare against runs of the same tier.
  /// `jobs` is the resolved sweep parallelism — recorded under "host"
  /// (informational), NOT under "config", so baselines recorded at one
  /// parallelism compare cleanly against runs at another.
  Recorder(std::string bench_name, std::string mode, int reps, int jobs = 1);

  /// Records one measurement point. `label` identifies the point within the
  /// bench (config encoded, e.g. "Solo/AND5@250") and must be unique.
  /// A profiled result additionally emits "host.profile" (events/sec plus
  /// the top-10 handler table) — under "host" because the timings wobble
  /// with the machine, and bench_diff only checks host keys it knows.
  void AddPoint(const std::string& label,
                const fabric::ExperimentResult& result,
                const HostSample& host);

  /// Opt in to the deterministic tracker-occupancy block under "simulated"
  /// ("tracker": streaming / records_hwm / retired / late_marks). Off by
  /// default: new simulated keys fail the exact diff against baselines
  /// recorded without them, so only benches whose baselines carry the block
  /// (bench/soak) enable it.
  void SetEmitTrackerStats(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    emit_tracker_stats_ = on;
  }

  /// Set when any repetition of any point disagreed on the chain head — a
  /// determinism violation worth failing loudly over.
  void MarkNondeterministic() {
    std::lock_guard<std::mutex> lock(mu_);
    deterministic_ = false;
  }
  [[nodiscard]] bool Deterministic() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deterministic_;
  }

  [[nodiscard]] std::size_t PointCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_.size();
  }

  /// Snapshot of the MSP identity-cache aggregates (crypto::
  /// MspIdentityCache globals), emitted under "host.msp_cache" — but only
  /// when any counter is nonzero, so benches that never arm --opt-msp-cache
  /// keep their existing document shape.
  void SetMspCacheSample(const MspCacheSample& sample) {
    std::lock_guard<std::mutex> lock(mu_);
    msp_sample_ = sample;
  }

  /// Full document, including the whole-process host summary (total wall
  /// clock, peak RSS, aggregate events/sec).
  [[nodiscard]] Json ToJson() const;

  /// Dumps ToJson() to `path`. Returns false (and prints to stderr) on I/O
  /// failure.
  bool WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::string bench_name_;
  std::string mode_;
  int reps_;
  int jobs_;
  bool deterministic_ = true;
  double total_wall_s_ = 0.0;
  std::uint64_t total_events_ = 0;
  std::optional<MspCacheSample> msp_sample_;
  bool emit_tracker_stats_ = false;
  Json::Array points_;
};

}  // namespace fabricsim::bench
