#include "runner/sweep_runner.h"

#include <chrono>
#include <future>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "runner/thread_pool.h"

namespace fabricsim::runner {

PointOutcome RunPointOnce(const SweepPoint& point,
                          const SweepOptions& options) {
  using Clock = std::chrono::steady_clock;

  PointOutcome out;
  out.label = point.label;
  std::optional<fabric::ExperimentResult> result;
  const int total_runs = options.reps > 1 ? options.reps + 1 : 1;
  for (int rep = 0; rep < total_runs; ++rep) {
    // Each run records into a tracer of its own; the attribution itself is
    // captured by value into the result before the tracer dies.
    fabric::ExperimentConfig config = point.config;
    std::optional<obs::Tracer> tracer;
    if (options.attribution) {
      tracer.emplace();
      config.network.tracer = &*tracer;
    }
    const auto t0 = Clock::now();
    fabric::ExperimentResult r = fabric::RunExperiment(config);
    const std::chrono::duration<double> wall = Clock::now() - t0;
    const bool warmup_rep = options.reps > 1 && rep == 0;
    if (!warmup_rep) out.wall_s.push_back(wall.count());
    if (result && r.chain_head_hex != result->chain_head_hex) {
      out.deterministic = false;
      out.mismatch = "rep " + std::to_string(rep) + ": chain head " +
                     r.chain_head_hex + " != " + result->chain_head_hex;
    }
    result = std::move(r);
  }
  out.result = std::move(*result);
  return out;
}

std::vector<PointOutcome> RunSweep(std::vector<SweepPoint> points,
                                   const SweepOptions& options) {
  std::vector<PointOutcome> outcomes;
  outcomes.reserve(points.size());
  if (points.empty()) return outcomes;

  unsigned jobs = options.jobs <= 0
                      ? ThreadPool::DefaultJobs()
                      : static_cast<unsigned>(options.jobs);
  if (jobs > points.size()) jobs = static_cast<unsigned>(points.size());

  if (jobs <= 1) {
    for (const SweepPoint& point : points) {
      outcomes.push_back(RunPointOnce(point, options));
    }
    return outcomes;
  }

  ThreadPool pool(jobs);
  std::vector<std::future<PointOutcome>> futures;
  futures.reserve(points.size());
  for (const SweepPoint& point : points) {
    futures.push_back(
        pool.Submit([&point, &options] { return RunPointOnce(point, options); }));
  }
  // get() in submission order: rethrows the first failing point's exception
  // on this thread; the pool destructor still drains and joins behind it.
  for (std::future<PointOutcome>& future : futures) {
    outcomes.push_back(future.get());
  }
  return outcomes;
}

}  // namespace fabricsim::runner
