// The metrics registry: named instruments, observer-event sampling that
// never disturbs simulated results, and the JSON / Prometheus / long-format
// CSV expositions.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/experiment.h"
#include "metrics/registry.h"
#include "sim/cpu.h"
#include "sim/scheduler.h"

namespace fabricsim::metrics {
namespace {

TEST(Registry, CountersAreSharedByNameAndPointerStable) {
  Registry reg;
  Counter* a = reg.AddCounter("commits");
  Counter* b = reg.AddCounter("commits");
  EXPECT_EQ(a, b);
  a->Inc();
  b->Inc(4);
  EXPECT_EQ(a->Value(), 5u);
  EXPECT_EQ(reg.SeriesCount(), 1u);
  // A different name gets distinct storage, and the first pointer survives
  // the deque growth.
  Counter* c = reg.AddCounter("rejects");
  EXPECT_NE(c, a);
  EXPECT_EQ(a->Value(), 5u);
  EXPECT_EQ(reg.SeriesCount(), 2u);
}

TEST(Registry, SnapshotsCaptureInstrumentsInRegistrationOrder) {
  Registry reg;
  Counter* counter = reg.AddCounter("events");
  double level = 1.5;
  reg.AddGauge("queue_depth", [&level] { return level; });
  ASSERT_EQ(reg.SeriesNames(),
            (std::vector<std::string>{"events", "queue_depth"}));

  counter->Inc(3);
  reg.SampleNow(sim::FromSeconds(1));
  level = 7.0;
  counter->Inc();
  reg.SampleNow(sim::FromSeconds(2));

  ASSERT_EQ(reg.Snapshots().size(), 2u);
  EXPECT_EQ(reg.Snapshots()[0].t, sim::FromSeconds(1));
  EXPECT_EQ(reg.Snapshots()[0].values, (std::vector<double>{3.0, 1.5}));
  EXPECT_EQ(reg.Snapshots()[1].values, (std::vector<double>{4.0, 7.0}));
}

TEST(Registry, HistogramContributesDerivedSeries) {
  Registry reg;
  Histogram hist;
  reg.AddHistogram("commit_latency", &hist);
  ASSERT_EQ(reg.SeriesNames(),
            (std::vector<std::string>{"commit_latency.count",
                                      "commit_latency.mean_s",
                                      "commit_latency.p99_s"}));
  hist.Record(sim::FromSeconds(2));
  hist.Record(sim::FromSeconds(2));
  reg.SampleNow(0);
  ASSERT_EQ(reg.Snapshots().size(), 1u);
  EXPECT_EQ(reg.Snapshots()[0].values[0], 2.0);
  EXPECT_NEAR(reg.Snapshots()[0].values[1], 2.0, 1e-9);
  EXPECT_NEAR(reg.Snapshots()[0].values[2], 2.0, 0.1);  // ~2% bucket error
}

TEST(Registry, PeriodicSamplingRidesObserverEventsOnly) {
  // The load-bearing invariant: attaching a sampling registry must not move
  // ExecutedEvents(), which the bench regression gate compares bit-exactly.
  sim::Scheduler sched;
  int component_fires = 0;
  for (int i = 1; i <= 5; ++i) {
    sched.ScheduleAt(sim::FromSeconds(i), [&component_fires] {
      ++component_fires;
    });
  }

  Registry reg;
  int depth = 0;
  reg.AddGauge("depth", [&depth] { return static_cast<double>(depth++); });
  reg.StartSampling(sched, sim::FromSeconds(1));
  EXPECT_TRUE(reg.Sampling());

  // RunUntil, not Run: the sampler tick reschedules itself for as long as
  // sampling runs (exactly like the experiment runner, which drives the
  // clock to a horizon and then StopSampling()s).
  sched.RunUntil(sim::FromSeconds(5));
  reg.StopSampling();
  EXPECT_FALSE(reg.Sampling());
  EXPECT_EQ(component_fires, 5);
  // Exactly the 5 component events — the interleaved sampler ticks are
  // excluded from the count the regression gate compares.
  EXPECT_EQ(sched.ExecutedEvents(), 5u);
  EXPECT_EQ(reg.Snapshots().size(), 5u);
  // Cancelled tick: nothing left to fire.
  EXPECT_EQ(sched.PendingEvents(), 0u);
}

TEST(Registry, SamplesCpuGaugesOnTheTickAndStopsWhenAsked) {
  sim::Scheduler sched;
  sim::Cpu cpu(sched, 2);
  Registry reg;
  reg.AddGauge("station.busy_cores",
               [&cpu] { return static_cast<double>(cpu.BusyCores()); });
  reg.AddGauge("station.queue_len",
               [&cpu] { return static_cast<double>(cpu.QueueLength()); });
  reg.StartSampling(sched, sim::SimDuration{100});

  for (int i = 0; i < 5; ++i) cpu.Submit(150, [] {});
  sched.RunUntil(250);
  reg.StopSampling();
  sched.Run();

  // Ticks at t=100 and t=200 only (stopped before 300). Both cores stay busy
  // throughout; the queue drains from 3 to 1 when the first pair finishes
  // at t=150.
  ASSERT_EQ(reg.Snapshots().size(), 2u);
  EXPECT_EQ(reg.Snapshots()[0].t, 100);
  EXPECT_EQ(reg.Snapshots()[0].values, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(reg.Snapshots()[1].t, 200);
  EXPECT_EQ(reg.Snapshots()[1].values, (std::vector<double>{2.0, 1.0}));
}

TEST(Registry, StartSamplingClearsThePreviousTimeline) {
  // Under --reps each repetition restarts sampling; the surviving timeline
  // must be the last repetition's, not a concatenation.
  sim::Scheduler sched;
  Registry reg;
  reg.AddGauge("g", [] { return 1.0; });
  reg.SampleNow(sim::FromSeconds(99));
  ASSERT_EQ(reg.Snapshots().size(), 1u);
  sched.ScheduleAt(sim::FromSeconds(3), [] {});
  reg.StartSampling(sched, sim::FromSeconds(1));
  sched.RunUntil(sim::FromSeconds(3));
  reg.StopSampling();
  ASSERT_FALSE(reg.Snapshots().empty());
  EXPECT_LT(reg.Snapshots().front().t, sim::FromSeconds(99));
}

TEST(Registry, DropInstrumentsKeepsNamesAndTimeline) {
  Registry reg;
  Counter* counter = reg.AddCounter("c");
  counter->Inc(9);
  reg.SampleNow(0);
  reg.DropInstruments();
  // Names and collected data survive; further samples read zeros instead of
  // chasing dangling pointers into a dead network.
  EXPECT_EQ(reg.SeriesCount(), 1u);
  ASSERT_EQ(reg.Snapshots().size(), 1u);
  EXPECT_EQ(reg.Snapshots()[0].values[0], 9.0);
  reg.SampleNow(1);
  EXPECT_EQ(reg.Snapshots()[1].values[0], 0.0);
  reg.Reset();
  EXPECT_EQ(reg.SeriesCount(), 0u);
  EXPECT_TRUE(reg.Snapshots().empty());
}

TEST(Registry, WriteJsonEmitsSeriesAndSampleRows) {
  Registry reg;
  Counter* counter = reg.AddCounter("tx.count");
  reg.AddGauge("queue", [] { return 2.5; });
  counter->Inc(7);
  reg.SampleNow(sim::FromSeconds(1));
  reg.SampleNow(sim::FromSeconds(2));

  std::ostringstream os;
  reg.WriteJson(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"series\":[\"tx.count\",\"queue\"]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("[1,7,2.5]"), std::string::npos) << out;
  EXPECT_NE(out.find("[2,7,2.5]"), std::string::npos) << out;
}

TEST(Registry, WritePrometheusSanitizesNamesAndStampsMillis) {
  Registry reg;
  reg.AddGauge("osn0.ch-0.ingress_depth", [] { return 3.0; });
  reg.SampleNow(sim::FromSeconds(2));

  std::ostringstream os;
  reg.WritePrometheus(os);
  const std::string out = os.str();
  // Dots and dashes become underscores to satisfy the metric-name grammar;
  // the timestamp is simulated milliseconds.
  EXPECT_NE(out.find("# TYPE fabricsim_osn0_ch_0_ingress_depth gauge"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("fabricsim_osn0_ch_0_ingress_depth 3 2000"),
            std::string::npos)
      << out;
}

TEST(Registry, WriteCsvIsLongFormat) {
  Registry reg;
  reg.AddGauge("peer-machine0.busy_cores", [] { return 0.0; });
  reg.AddGauge("osn0.mychannel.ingress_depth", [] { return 3.0; });
  reg.AddGauge("depth", [] { return 1.0; });
  reg.SampleNow(sim::FromMillis(1500));

  std::ostringstream os;
  reg.WriteCsv(os);
  // One row per (sample, series); each name splits at its last '.', and a
  // name without one has an empty resource.
  EXPECT_EQ(os.str(),
            "time_s,resource,metric,value\n"
            "1.5,peer-machine0,busy_cores,0\n"
            "1.5,osn0.mychannel,ingress_depth,3\n"
            "1.5,,depth,1\n");
}

TEST(Registry, ExportersKeepEveryDigit) {
  // A counter past 10^6 and a timestamp three hours in: six significant
  // digits would print `1.75074e+06` and `10800.2`.
  Registry reg;
  reg.AddGauge("scheduler.executed_events", [] { return 1750741.0; });
  reg.SampleNow(sim::FromMillis(10800250));

  std::ostringstream csv;
  reg.WriteCsv(csv);
  EXPECT_NE(csv.str().find("10800.25,scheduler,executed_events,1750741\n"),
            std::string::npos)
      << csv.str();
  std::ostringstream json;
  reg.WriteJson(json);
  EXPECT_NE(json.str().find("[10800.25,1750741]"), std::string::npos)
      << json.str();
  std::ostringstream prom;
  reg.WritePrometheus(prom);
  EXPECT_NE(prom.str().find("fabricsim_scheduler_executed_events 1750741 "
                            "10800250\n"),
            std::string::npos)
      << prom.str();
}

// ------------------------------------------------------ experiment level

TEST(RegistryExperiment, AttachingARegistryChangesNoSimulatedResult) {
  fabric::ExperimentConfig config =
      fabric::StandardConfig(fabric::OrderingType::kSolo, 0, 120);
  config.warmup = sim::FromSeconds(3);
  config.workload.duration = sim::FromSeconds(6);
  config.drain = sim::FromSeconds(6);

  const fabric::ExperimentResult bare = fabric::RunExperiment(config);

  Registry reg;
  config.registry = &reg;
  config.metrics_period = sim::FromMillis(100);
  const fabric::ExperimentResult sampled = fabric::RunExperiment(config);

  // The whole point of observer events: same chain, same event count.
  EXPECT_EQ(bare.chain_head_hex, sampled.chain_head_hex);
  EXPECT_EQ(bare.sched_events, sampled.sched_events);
  EXPECT_EQ(bare.report.goodput_tps, sampled.report.goodput_tps);

  // And the registry actually collected a timeline of the standard set.
  EXPECT_GT(reg.SeriesCount(), 10u);
  EXPECT_GT(reg.Snapshots().size(), 50u);  // 15 s run at 100 ms cadence
  const auto& names = reg.SeriesNames();
  for (const char* expected :
       {"scheduler.pending_events", "tracker.inflight_records",
        "validator.deferred_blocks", "peer-machine0.busy_cores",
        "peer-machine0.queue_len", "validator-disk.busy_cores",
        "validator-disk.queue_len", "network.bytes_in_flight"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // Instruments were dropped before the network died; sampling post-run is
  // safe and reads zeros.
  reg.SampleNow(0);
  EXPECT_EQ(reg.Snapshots().back().values[0], 0.0);
}

TEST(RegistryExperiment, DefaultLengthRunEndsWithOneSnapshotPerInstant) {
  // The CLI's default run length (10 s warm-up, 30 s window, 15 s drain) is
  // a multiple of the default 250 ms period, so the last tick lands on the
  // closing instant; the closing sample must not repeat it.
  fabric::ExperimentConfig config =
      fabric::StandardConfig(fabric::OrderingType::kSolo, 0, 50);
  config.workload.duration = sim::FromSeconds(30);
  Registry reg;
  config.registry = &reg;
  (void)fabric::RunExperiment(config);

  const auto& snapshots = reg.Snapshots();
  ASSERT_FALSE(snapshots.empty());
  EXPECT_EQ(snapshots.back().t, sim::FromSeconds(55));
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    ASSERT_LT(snapshots[i - 1].t, snapshots[i].t) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace fabricsim::metrics
