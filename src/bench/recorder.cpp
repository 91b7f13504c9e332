#include "bench/recorder.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace fabricsim::bench {

namespace {

Json PhaseJson(const metrics::PhaseSummary& p) {
  Json out = Json::MakeObject();
  out["completed"] = Json(p.completed);
  out["throughput_tps"] = Json(p.throughput_tps);
  out["mean_latency_s"] = Json(p.mean_latency_s);
  out["p50_latency_s"] = Json(p.p50_latency_s);
  out["p95_latency_s"] = Json(p.p95_latency_s);
  out["p99_latency_s"] = Json(p.p99_latency_s);
  return out;
}

Json SimulatedJson(const fabric::ExperimentResult& r, bool tracker_stats) {
  Json out = Json::MakeObject();
  out["goodput_tps"] = Json(r.report.goodput_tps);
  out["rejection_rate"] = Json(r.report.rejection_rate);
  out["submitted"] = Json(r.report.submitted);
  out["rejected"] = Json(r.report.rejected);
  out["shed"] = Json(r.report.shed);
  out["invalid"] = Json(r.report.invalid);
  Json phases = Json::MakeObject();
  phases["execute"] = PhaseJson(r.report.execute);
  phases["order"] = PhaseJson(r.report.order);
  phases["validate"] = PhaseJson(r.report.validate);
  phases["order_and_validate"] = PhaseJson(r.report.order_and_validate);
  phases["end_to_end"] = PhaseJson(r.report.end_to_end);
  out["phases"] = std::move(phases);
  out["mean_block_time_s"] = Json(r.report.mean_block_time_s);
  out["mean_block_size"] = Json(r.report.mean_block_size);
  out["blocks"] = Json(r.report.blocks);
  out["chain_height"] = Json(r.chain_height);
  out["chain_head_hex"] = Json(r.chain_head_hex);
  out["sched_events"] = Json(r.sched_events);
  if (tracker_stats) {
    Json tracker = Json::MakeObject();
    tracker["streaming"] = Json(r.tracker.streaming);
    tracker["records_hwm"] = Json(r.tracker.records_hwm);
    tracker["retired"] = Json(r.tracker.retired);
    tracker["late_marks"] = Json(r.tracker.late_marks);
    out["tracker"] = std::move(tracker);
  }
  return out;
}

Json ProfileJson(const sim::ProfileReport& p) {
  Json out = Json::MakeObject();
  out["total_events"] = Json(p.total_events);
  out["total_ns"] = Json(p.total_ns);
  out["events_per_sec"] = Json(p.events_per_sec);
  Json::Array top;
  const std::size_t n = std::min<std::size_t>(p.entries.size(), 10);
  for (std::size_t i = 0; i < n; ++i) {
    const sim::ProfileEntry& e = p.entries[i];
    Json row = Json::MakeObject();
    row["name"] = Json(e.name);
    row["count"] = Json(e.count);
    row["total_ns"] = Json(e.total_ns);
    row["frac"] = Json(p.total_ns > 0
                           ? static_cast<double>(e.total_ns) /
                                 static_cast<double>(p.total_ns)
                           : 0.0);
    top.push_back(std::move(row));
  }
  out["top"] = Json(std::move(top));
  return out;
}

}  // namespace

MeanStddev Summarize(const std::vector<double>& xs) {
  MeanStddev out;
  if (xs.empty()) return out;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  out.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - out.mean) * (x - out.mean);
  out.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return out;
}

std::uint64_t PeakRssKb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // Linux: kilobytes
}

Recorder::Recorder(std::string bench_name, std::string mode, int reps,
                   int jobs)
    : bench_name_(std::move(bench_name)),
      mode_(std::move(mode)),
      reps_(reps),
      jobs_(jobs) {}

void Recorder::AddPoint(const std::string& label,
                        const fabric::ExperimentResult& result,
                        const HostSample& host) {
  const MeanStddev wall = Summarize(host.wall_s);
  std::lock_guard<std::mutex> lock(mu_);
  Json point = Json::MakeObject();
  point["label"] = Json(label);
  point["simulated"] = SimulatedJson(result, emit_tracker_stats_);
  Json h = Json::MakeObject();
  h["reps"] = Json(static_cast<int>(host.wall_s.size()));
  h["wall_s_mean"] = Json(wall.mean);
  h["wall_s_stddev"] = Json(wall.stddev);
  h["events_per_sec"] =
      Json(wall.mean > 0.0
               ? static_cast<double>(host.sched_events) / wall.mean
               : 0.0);
  if (result.profile) h["profile"] = ProfileJson(*result.profile);
  point["host"] = std::move(h);
  points_.push_back(std::move(point));

  for (const double w : host.wall_s) total_wall_s_ += w;
  total_events_ += host.sched_events * host.wall_s.size();
  // Every kept repetition makes the same lookups, like sched_events.
  msp_cache_.hits += result.msp_cache_hits * host.wall_s.size();
  msp_cache_.misses += result.msp_cache_misses * host.wall_s.size();
  msp_cache_.evictions += result.msp_cache_evictions * host.wall_s.size();
}

Json Recorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json doc = Json::MakeObject();
  doc["schema_version"] = Json(1);
  doc["bench"] = Json(bench_name_);
  Json config = Json::MakeObject();
  config["mode"] = Json(mode_);
  config["reps"] = Json(reps_);
  doc["config"] = std::move(config);
  doc["deterministic"] = Json(deterministic_);
  doc["points"] = Json(points_);
  Json host = Json::MakeObject();
  host["total_wall_s"] = Json(total_wall_s_);
  host["events_per_sec"] =
      Json(total_wall_s_ > 0.0
               ? static_cast<double>(total_events_) / total_wall_s_
               : 0.0);
  host["peak_rss_kb"] = Json(PeakRssKb());
  host["jobs"] = Json(jobs_);
  if (msp_cache_.hits + msp_cache_.misses + msp_cache_.evictions > 0) {
    Json cache = Json::MakeObject();
    cache["hits"] = Json(msp_cache_.hits);
    cache["misses"] = Json(msp_cache_.misses);
    cache["evictions"] = Json(msp_cache_.evictions);
    const double total =
        static_cast<double>(msp_cache_.hits + msp_cache_.misses);
    cache["hit_rate"] =
        Json(total > 0.0 ? static_cast<double>(msp_cache_.hits) / total
                         : 0.0);
    host["msp_cache"] = std::move(cache);
  }
  doc["host"] = std::move(host);
  return doc;
}

bool Recorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << ToJson().Dump();
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench: write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace fabricsim::bench
