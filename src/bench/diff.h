// Baseline comparison for bench result files (the CI regression gate).
//
// Policy (see EXPERIMENTS.md, "Regression gate"):
//   - anything under a point's "simulated" object is deterministic, so the
//     slightest drift is a correctness change and fails the diff;
//   - "host" metrics (wall clock, events/sec, peak RSS) wobble with the
//     machine, so only a regression beyond a relative tolerance fails, and
//     improvements never do.
#pragma once

#include <string>
#include <vector>

#include "bench/json.h"

namespace fabricsim::bench {

struct DiffOptions {
  /// Relative tolerance for host wall-clock / events-per-sec regressions.
  double host_tol = 0.15;
  /// Relative tolerance for peak-RSS growth (allocator noise is coarser).
  double rss_tol = 0.30;
  /// False skips host metrics entirely (simulated-only comparison).
  bool check_host = true;
};

struct DiffReport {
  std::vector<std::string> failures;
  [[nodiscard]] bool Ok() const { return failures.empty(); }
};

/// Compares `current` against `baseline`. Structural problems (missing
/// points, duplicate point labels, config mismatch) are failures too — the
/// gate must never pass because the comparison silently skipped something.
DiffReport CompareBenchJson(const Json& baseline, const Json& current,
                            const DiffOptions& options);

}  // namespace fabricsim::bench
