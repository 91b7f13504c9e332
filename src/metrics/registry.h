// Metrics registry: named counters/gauges/histograms with periodic sim-time
// snapshotting — the simulated analogue of a Prometheus scrape loop.
//
// Components register instruments once (O(1) per registration), the registry
// samples every instrument on a fixed simulated cadence, and the resulting
// time series exports as JSON, Prometheus text exposition, or long-format CSV.
// This is the run's one sampling pipeline: per-machine CPU busy cores and
// queue depth, network bytes in flight, admission queues and tracker
// occupancy all land in one timeline — the simulated analogue of running
// `dstat`/`sar` on every testbed machine while the benchmark drives load,
// which is how the paper located saturated resources. Sampling rides the
// scheduler's *observer* events, so attaching a registry never changes
// ExecutedEvents() or any simulated result — the bench regression gate stays
// bit-exact with or without `--metrics-out`.
//
// Lifecycle per experiment run: Reset() → register instruments (they capture
// pointers into the live network) → StartSampling() → run → StopSampling() →
// DropInstruments() (the network is about to die; keep only names + data).
// The experiment runner does all of this when a registry is attached.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/histogram.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace fabricsim::metrics {

/// A monotonically increasing counter. Pointer-stable once created; cheap
/// enough for hot paths (one add).
class Counter {
 public:
  void Inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t Value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// One sampled row: simulated time plus one value per registered series, in
/// registration order (columnar; series names live once in the registry).
struct MetricsSnapshot {
  sim::SimTime t = 0;
  std::vector<double> values;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates (or returns the existing) counter under `name`. The pointer
  /// stays valid until Reset().
  Counter* AddCounter(const std::string& name);

  /// Registers a gauge sampled on every snapshot. `fn` must stay callable
  /// until DropInstruments()/Reset(). Re-registering a name replaces the
  /// callback.
  void AddGauge(const std::string& name, std::function<double()> fn);

  /// Registers a histogram: contributes `<name>.count`, `<name>.mean_s`,
  /// `<name>.p99_s` series (latencies in seconds). `hist` must outlive the
  /// instruments.
  void AddHistogram(const std::string& name, const Histogram* hist);

  [[nodiscard]] std::size_t SeriesCount() const { return series_.size(); }
  [[nodiscard]] const std::vector<std::string>& SeriesNames() const {
    return names_;
  }

  /// Starts periodic snapshotting (observer events; first sample one period
  /// from now). Clears previously collected snapshots, so under `--reps` the
  /// surviving timeline is the last repetition's.
  void StartSampling(sim::Scheduler& sched, sim::SimDuration period);
  void StopSampling();
  [[nodiscard]] bool Sampling() const { return running_; }

  /// Takes one snapshot immediately (also the periodic tick body).
  void SampleNow(sim::SimTime now);

  [[nodiscard]] const std::vector<MetricsSnapshot>& Snapshots() const {
    return snapshots_;
  }

  /// Drops every instrument (closures, counter storage) but keeps series
  /// names and collected snapshots, so the timeline outlives the simulated
  /// network the instruments pointed into.
  void DropInstruments();

  /// Full reset: instruments, names, and snapshots.
  void Reset();

  /// {"period_ms":..., "series":[...], "samples":[[t_s, v0, v1, ...], ...]}
  void WriteJson(std::ostream& os) const;

  /// Prometheus text exposition, one line per (series, sample) with
  /// millisecond simulated timestamps. Dots in series names become
  /// underscores to satisfy the metric-name grammar.
  void WritePrometheus(std::ostream& os) const;

  /// Long format for pandas/gnuplot: a `time_s,resource,metric,value` header,
  /// then one row per (sample, series). Each series name splits at its last
  /// '.' (`osn0.mychannel.ingress_depth` -> `osn0.mychannel`,
  /// `ingress_depth`); a name without a dot has an empty resource.
  void WriteCsv(std::ostream& os) const;

 private:
  // One sampled column; exactly one of counter/gauge is set.
  struct Series {
    const Counter* counter = nullptr;
    std::function<double()> gauge;
  };

  std::size_t AddSeries(const std::string& name, Series series);
  void Tick();

  std::vector<std::string> names_;
  std::vector<Series> series_;
  std::unordered_map<std::string, std::size_t> index_;
  std::deque<Counter> counters_;  // deque: pointer-stable storage
  std::vector<MetricsSnapshot> snapshots_;
  sim::Scheduler* sched_ = nullptr;
  sim::SimDuration period_ = 0;
  sim::EventId tick_event_ = 0;
  bool running_ = false;
};

}  // namespace fabricsim::metrics
