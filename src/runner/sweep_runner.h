// Host-parallel sweep runner: fans independent measurement points out to a
// thread pool and hands the results back in submission order.
//
// The paper's figures are sweeps over independent points (send rates, OSN
// counts, batch sizes). Each point runs its own fabric::Experiment —
// scheduler, network, and RNG are per-experiment state — so points are
// embarrassingly parallel on the host while each simulation stays
// single-threaded and deterministic. Collecting in submission order makes
// JSON output, stdout tables, and chain-head fingerprints byte-identical to
// a serial run; only host wall-clock differs.
//
// Each experiment runs on exactly one host thread, and nothing below
// src/runner/ starts threads or locks. Points share only host state that is
// read-only after first use: the SHA-256 dispatch once-flag and the
// immutable default calibration table. Everything else a point touches
// (envelopes, blocks, identity registries, caches, counters) it owns.
#pragma once

#include <string>
#include <vector>

#include "fabric/experiment.h"

namespace fabricsim::runner {

/// One queued measurement point.
struct SweepPoint {
  fabric::ExperimentConfig config;
  /// Unique within the sweep; the bench JSON join key.
  std::string label;
};

/// How to run the sweep.
struct SweepOptions {
  /// Worker threads. <= 0 selects ThreadPool::DefaultJobs()
  /// (hardware_concurrency); 1 runs inline on the calling thread — the
  /// exact serial path, no pool.
  int jobs = 0;
  /// Repetitions per point. With reps > 1 the point runs reps + 1 times:
  /// the first repetition warms host-side caches and is discarded; all
  /// repetitions of one point run on the same worker, back to back.
  int reps = 1;
  /// Attach a fresh obs::Tracer per point and capture the per-phase
  /// bottleneck attribution into the result.
  bool attribution = false;
};

/// What one point produced.
struct PointOutcome {
  std::string label;
  fabric::ExperimentResult result;  // from the last repetition
  /// Host wall clock per kept repetition (warm-up already discarded).
  std::vector<double> wall_s;
  /// False when repetitions disagreed on the chain head — a determinism
  /// violation; `mismatch` holds a printable description.
  bool deterministic = true;
  std::string mismatch;
};

/// Runs one point (all its repetitions) on the calling thread.
PointOutcome RunPointOnce(const SweepPoint& point, const SweepOptions& options);

/// Runs every point and returns the outcomes in submission order.
///
/// jobs == 1 executes inline on the calling thread; jobs > 1 fans out to a
/// fixed-size ThreadPool (clamped to the point count) and blocks until all
/// points finish. An exception escaping an experiment is rethrown here, on
/// the calling thread, after the pool drains.
std::vector<PointOutcome> RunSweep(std::vector<SweepPoint> points,
                                   const SweepOptions& options);

}  // namespace fabricsim::runner
