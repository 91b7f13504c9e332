// Validate-phase optimization knobs (Thakkar et al., arXiv:1805.11390).
//
// The source paper characterizes Fabric's saturation; Thakkar et al. found
// the same validate-phase bottleneck and fixed it with an MSP identity
// cache, parallel VSCC workers, and bulk state-db writes. Each fix is a
// toggleable knob here so bench/optimizations can ablate them one at a time
// and show where the bottleneck migrates. All knobs default OFF, and with
// every knob off the simulated timeline is byte-identical to the unmodified
// committer (the determinism suite and the committed BENCH_*.json baselines
// enforce this).
//
// These knobs deliberately CHANGE simulated service times — that is the
// point: they model the optimized peer, not a faster way to simulate the
// baseline one.
#pragma once

namespace fabricsim::fabric {

struct OptimizationOptions {
  /// MSP identity-verification cache at the committer: the first VSCC
  /// touching an identity pays the full certificate deserialize + chain
  /// walk; later VSCCs pay only the ECDSA verify (Calibration::
  /// vscc_cached_* constants).
  bool msp_cache = false;
  /// Dedicated VSCC validation workers: > 0 gives the committer its own
  /// N-core modeled worker pool for per-tx validation instead of sharing
  /// the peer's 4 cores with every other duty (Thakkar's raised
  /// validator-pool size). 0 = baseline shared CPU.
  int vscc_workers = 0;
  /// Bulk state-db commit: one batched ledger+state write per block
  /// (Calibration::bulk_* disk constants) instead of per-tx write costs.
  bool bulk_commit = false;
  /// Endorsement-policy short-circuit: stop verifying endorsement
  /// signatures once the policy is satisfied, and skip them all when the
  /// endorsement set cannot satisfy it (policy::SatisfiedPrefix).
  bool policy_shortcircuit = false;

  [[nodiscard]] bool Any() const {
    return msp_cache || vscc_workers > 0 || bulk_commit || policy_shortcircuit;
  }
};

}  // namespace fabricsim::fabric
