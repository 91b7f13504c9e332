// Log-bucketed latency histogram (HDR-style) plus streaming summary stats.
//
// Records simulated durations with ~2% relative bucket error, supports mean
// and arbitrary percentiles without storing samples.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace fabricsim::metrics {

class Histogram {
 public:
  Histogram();

  void Record(sim::SimDuration value);

  [[nodiscard]] std::uint64_t Count() const { return count_; }
  [[nodiscard]] sim::SimDuration Min() const;
  [[nodiscard]] sim::SimDuration Max() const { return max_; }
  [[nodiscard]] double Mean() const;

  /// Approximate percentile (p in [0,100]).
  [[nodiscard]] sim::SimDuration Percentile(double p) const;

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  void Reset();

 private:
  static std::size_t BucketFor(sim::SimDuration v);
  static sim::SimDuration BucketMidpoint(std::size_t bucket);

  // Buckets: 64 octaves x kSubBuckets linear sub-buckets each.
  static constexpr int kSubBuckets = 32;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  sim::SimDuration min_ = 0;
  sim::SimDuration max_ = 0;
  bool has_any_ = false;
};

}  // namespace fabricsim::metrics
