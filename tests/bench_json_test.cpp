// The bench harness's machine-readable side: the JSON value type
// (stable formatting, parse/dump roundtrip) and the baseline comparator
// that gates CI (exact on simulated metrics, tolerance-with-direction on
// host metrics).
#include <string>

#include <gtest/gtest.h>

#include "bench/diff.h"
#include "bench/json.h"

namespace fabricsim::bench {
namespace {

// ---------------------------------------------------------------- Json ----

TEST(BenchJson, DumpIsStableAndSorted) {
  Json doc = Json::MakeObject();
  doc["zeta"] = 1;
  doc["alpha"] = "x";
  doc["mid"] = true;
  const std::string dump = doc.Dump();
  // std::map keys: alpha before mid before zeta, independent of insertion.
  EXPECT_LT(dump.find("alpha"), dump.find("mid"));
  EXPECT_LT(dump.find("mid"), dump.find("zeta"));
  EXPECT_EQ(dump, doc.Dump());
  EXPECT_EQ(dump.back(), '\n');
}

TEST(BenchJson, NumberFormatting) {
  EXPECT_EQ(FormatNumber(0), "0");
  EXPECT_EQ(FormatNumber(42), "42");
  EXPECT_EQ(FormatNumber(-7), "-7");
  EXPECT_EQ(FormatNumber(1e6), "1000000");
  EXPECT_EQ(FormatNumber(0.5), "0.5");
  EXPECT_EQ(FormatNumber(142.857142857), "142.857142857");
}

TEST(BenchJson, ParseDumpRoundtrip) {
  Json doc = Json::MakeObject();
  doc["name"] = "fig2";
  doc["count"] = std::uint64_t{1000};
  doc["rate"] = 142.857142857;
  doc["ok"] = true;
  doc["nothing"] = Json();
  Json arr = Json::MakeArray();
  arr.AsArray().emplace_back(1);
  arr.AsArray().emplace_back("two");
  Json nested = Json::MakeObject();
  nested["deep"] = 0.125;
  arr.AsArray().push_back(nested);
  doc["items"] = arr;

  std::string err;
  const Json back = Json::Parse(doc.Dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.Dump(), doc.Dump());
}

TEST(BenchJson, ParseHandlesEscapes) {
  std::string err;
  const Json doc = Json::Parse(R"({"s": "a\"b\\c\n\tA"})", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc.Find("s")->AsString(), "a\"b\\c\n\tA");
}

TEST(BenchJson, ParseRejectsGarbage) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "{\"a\":1} x",
                          "{'a':1}"}) {
    std::string err;
    const Json doc = Json::Parse(bad, &err);
    EXPECT_TRUE(doc.IsNull()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(BenchJson, FindDoesNotInsert) {
  Json doc = Json::MakeObject();
  doc["present"] = 1;
  EXPECT_NE(doc.Find("present"), nullptr);
  EXPECT_EQ(doc.Find("absent"), nullptr);
  EXPECT_EQ(doc.AsObject().size(), 1u);
  EXPECT_EQ(Json("not an object").Find("x"), nullptr);
}

// ---------------------------------------------------------------- diff ----

// A minimal two-point bench document matching the recorder schema.
Json Doc() {
  Json host = Json::MakeObject();
  host["total_wall_s"] = 10.0;
  host["events_per_sec"] = 200000.0;
  host["peak_rss_kb"] = 100000.0;

  Json doc = Json::MakeObject();
  doc["schema_version"] = 1;
  doc["bench"] = "paper_sweep";
  Json config = Json::MakeObject();
  config["mode"] = "smoke";
  config["reps"] = 3;
  doc["config"] = config;
  doc["deterministic"] = true;
  doc["host"] = host;

  Json points = Json::MakeArray();
  for (const char* label : {"Solo/OR@150", "Solo/OR@250"}) {
    Json sim = Json::MakeObject();
    sim["goodput_tps"] = 142.857142857;
    sim["chain_head_hex"] = "abc123";
    sim["blocks"] = 10;
    Json phost = Json::MakeObject();
    phost["wall_s_mean"] = 0.5;
    phost["events_per_sec"] = 300000.0;
    Json point = Json::MakeObject();
    point["label"] = label;
    point["simulated"] = sim;
    point["host"] = phost;
    points.AsArray().push_back(point);
  }
  doc["points"] = points;
  return doc;
}

Json& Point(Json& doc, int i) { return doc["points"].AsArray()[size_t(i)]; }

TEST(BenchDiff, IdenticalDocumentsPass) {
  const Json doc = Doc();
  EXPECT_TRUE(CompareBenchJson(doc, doc, DiffOptions{}).Ok());
}

TEST(BenchDiff, SimulatedDriftFailsEvenWhenTiny) {
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 0)["simulated"]["goodput_tps"] = 142.857143857;  // +7e-9 rel
  const auto report = CompareBenchJson(base, cur, DiffOptions{});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("Solo/OR@150"), std::string::npos);
  EXPECT_NE(report.failures[0].find("goodput_tps"), std::string::npos);
}

TEST(BenchDiff, SimulatedSurvivesTextRoundtripSlack) {
  // Sub-1e-9 relative wobble is dump/parse noise, not a regression.
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 0)["simulated"]["goodput_tps"] = 142.857142857 * (1.0 + 1e-12);
  EXPECT_TRUE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, HostRegressionBeyondToleranceFails) {
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 1)["host"]["wall_s_mean"] = 0.5 * 1.20;  // +20% > 15%
  const auto report = CompareBenchJson(base, cur, DiffOptions{});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("wall_s_mean"), std::string::npos);
}

TEST(BenchDiff, HostRegressionWithinTolerancePasses) {
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 1)["host"]["wall_s_mean"] = 0.5 * 1.10;  // +10% < 15%
  cur["host"]["total_wall_s"] = 10.0 * 1.10;
  EXPECT_TRUE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, HostImprovementNeverFails) {
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 0)["host"]["wall_s_mean"] = 0.1;          // 5x faster
  Point(cur, 0)["host"]["events_per_sec"] = 1.5e6;     // 5x more
  cur["host"]["total_wall_s"] = 2.0;
  cur["host"]["peak_rss_kb"] = 50000.0;
  EXPECT_TRUE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, EventsPerSecDropFails) {
  const Json base = Doc();
  Json cur = Doc();
  cur["host"]["events_per_sec"] = 200000.0 * 0.80;  // -20% > 15%
  const auto report = CompareBenchJson(base, cur, DiffOptions{});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("events_per_sec"), std::string::npos);
}

TEST(BenchDiff, RssUsesItsOwnCoarserTolerance) {
  const Json base = Doc();
  Json cur = Doc();
  cur["host"]["peak_rss_kb"] = 100000.0 * 1.25;  // +25%: > host 15%, < rss 30%
  EXPECT_TRUE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
  cur["host"]["peak_rss_kb"] = 100000.0 * 1.40;  // +40% > 30%
  EXPECT_FALSE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, IgnoreHostSkipsHostChecksOnly) {
  const Json base = Doc();
  Json cur = Doc();
  cur["host"]["total_wall_s"] = 100.0;  // 10x, would fail with host checks
  DiffOptions options;
  options.check_host = false;
  EXPECT_TRUE(CompareBenchJson(base, cur, options).Ok());
  Point(cur, 0)["simulated"]["blocks"] = 11;  // simulated still gates
  EXPECT_FALSE(CompareBenchJson(base, cur, options).Ok());
}

TEST(BenchDiff, MissingPointFailsBothDirections) {
  const Json base = Doc();
  Json dropped = Doc();
  dropped["points"].AsArray().pop_back();
  EXPECT_FALSE(CompareBenchJson(base, dropped, DiffOptions{}).Ok());
  // Extra current points mean the baseline is stale: also a failure.
  EXPECT_FALSE(CompareBenchJson(dropped, base, DiffOptions{}).Ok());
}

TEST(BenchDiff, DuplicateLabelFails) {
  // Points join on their label: a repeated label would leave one of its
  // points uncompared, so it is a structural failure in either document.
  const Json base = Doc();
  Json dup = Doc();
  dup["points"].AsArray()[1]["label"] = "Solo/OR@150";
  Json dup_extra = Doc();
  const Json first = Point(dup_extra, 0);
  dup_extra["points"].AsArray().push_back(first);
  for (const Json* cur : {&dup, &dup_extra}) {
    const auto report = CompareBenchJson(base, *cur, DiffOptions{});
    ASSERT_FALSE(report.Ok());
    EXPECT_NE(report.failures[0].find("current: duplicate point label"),
              std::string::npos)
        << report.failures[0];
    EXPECT_FALSE(CompareBenchJson(*cur, base, DiffOptions{}).Ok());
  }
  // Both documents carrying the same duplicate still fails.
  EXPECT_FALSE(CompareBenchJson(dup_extra, dup_extra, DiffOptions{}).Ok());
}

TEST(BenchDiff, ConfigMismatchFailsBeforeMetricComparison) {
  const Json base = Doc();
  Json cur = Doc();
  cur["config"]["mode"] = "quick";
  const auto report = CompareBenchJson(base, cur, DiffOptions{});
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("config"), std::string::npos);
}

TEST(BenchDiff, NondeterministicRunFails) {
  const Json base = Doc();
  Json cur = Doc();
  cur["deterministic"] = false;
  EXPECT_FALSE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, HostProfileSubtreeNeverGates) {
  // `--profile` adds a host.profile subtree (top-N handler table, host-ns
  // totals). Host metrics are compared by named key only, so profile data —
  // present, absent, or wildly different — must never fail the gate.
  const Json base = Doc();
  Json cur = Doc();
  Json profile = Json::MakeObject();
  profile["total_events"] = 123456;
  profile["events_per_sec_profiled"] = 1.0;  // absurd: must still not gate
  Json entry = Json::MakeObject();
  entry["name"] = "net/deliver";
  entry["total_ns"] = 999999999;
  Json entries = Json::MakeArray();
  entries.AsArray().push_back(entry);
  profile["top"] = entries;
  cur["host"]["profile"] = profile;
  Point(cur, 0)["host"]["profile"] = profile;
  EXPECT_TRUE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
  // Symmetric: baseline recorded with --profile, current without.
  EXPECT_TRUE(CompareBenchJson(cur, base, DiffOptions{}).Ok());
  // And profile noise never masks a real simulated regression.
  Point(cur, 0)["simulated"]["blocks"] = 11;
  EXPECT_FALSE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
}

TEST(BenchDiff, SimulatedKeySetChangesFail) {
  const Json base = Doc();
  Json cur = Doc();
  Point(cur, 0)["simulated"].AsObject().erase("blocks");
  EXPECT_FALSE(CompareBenchJson(base, cur, DiffOptions{}).Ok());
  Json extra = Doc();
  Point(extra, 0)["simulated"]["new_metric"] = 1;
  EXPECT_FALSE(CompareBenchJson(base, extra, DiffOptions{}).Ok());
}

}  // namespace
}  // namespace fabricsim::bench
