// Sweep-grid tests: axis expansion counts and order, label defaults and
// overrides, multi-spec documents, error paths, repeat expansion with
// derived seeds, derived reports over synthetic outcomes, and the
// checked-in examples/configs documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "harness/sweep_cli.h"
#include "harness/sweep_reports.h"
#include "harness/sweep_spec.h"

namespace lion {
namespace {

Json MustParse(const std::string& text) {
  Json v;
  Status s = Json::Parse(text, &v);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return v;
}

TEST(SweepSpecTest, ExpandsCartesianProductFirstAxisOutermost) {
  Json doc = MustParse(R"({
    "name": "G",
    "base": {"workload": "ycsb", "duration_s": 1},
    "axes": [
      {"path": "protocol", "values": ["2PC", "Lion"]},
      {"path": "ycsb.cross_ratio", "values": [0, 0.5, 1]}
    ]
  })");
  SweepSpec spec;
  ASSERT_TRUE(SweepSpec::FromJson(doc, &spec).ok());
  EXPECT_EQ(spec.num_points(), 6u);

  std::vector<SweepPoint> points;
  ASSERT_TRUE(spec.Expand(&points).ok());
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].name, "G/protocol=2PC/cross_ratio=0");
  EXPECT_EQ(points[1].name, "G/protocol=2PC/cross_ratio=0.5");
  EXPECT_EQ(points[3].name, "G/protocol=Lion/cross_ratio=0");
  EXPECT_EQ(points[0].config.protocol, "2PC");
  EXPECT_EQ(points[3].config.protocol, "Lion");
  EXPECT_DOUBLE_EQ(points[4].config.ycsb.cross_ratio, 0.5);
  // base applied to every point
  for (const SweepPoint& p : points) {
    EXPECT_EQ(p.config.workload, "ycsb");
    EXPECT_EQ(p.config.duration, 1 * kSecond);
  }
}

TEST(SweepSpecTest, ExplicitLabelsNamePoints) {
  Json doc = MustParse(R"({
    "name": "Fig7a",
    "axes": [
      {"path": "ycsb.cross_ratio", "values": [0, 0.2],
       "labels": ["cross=0", "cross=20"]}
    ]
  })");
  SweepSpec spec;
  ASSERT_TRUE(SweepSpec::FromJson(doc, &spec).ok());
  std::vector<SweepPoint> points;
  ASSERT_TRUE(spec.Expand(&points).ok());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].name, "Fig7a/cross=0");
  EXPECT_EQ(points[1].name, "Fig7a/cross=20");
}

TEST(SweepSpecTest, NoAxesYieldsSinglePoint) {
  Json doc = MustParse(R"({"name": "solo", "base": {"protocol": "Leap"}})");
  std::vector<SweepPoint> points;
  ASSERT_TRUE(ExpandSweepDocument(doc, &points).ok());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].name, "solo");
  EXPECT_EQ(points[0].config.protocol, "Leap");
}

TEST(SweepSpecTest, ArrayDocumentConcatenatesSpecsInOrder) {
  Json doc = MustParse(R"([
    {"name": "A", "axes": [{"path": "seed", "values": [1, 2]}]},
    {"name": "B", "axes": [{"path": "seed", "values": [3]}]}
  ])");
  std::vector<SweepPoint> points;
  ASSERT_TRUE(ExpandSweepDocument(doc, &points).ok());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].name, "A/seed=1");
  EXPECT_EQ(points[2].name, "B/seed=3");
  EXPECT_EQ(points[2].config.seed, 3u);
}

TEST(SweepSpecTest, ErrorsCarryContext) {
  SweepSpec spec;
  Status s = SweepSpec::FromJson(MustParse(R"({"axes": []})"), &spec);
  ASSERT_TRUE(s.IsInvalidArgument());  // missing name
  s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "bogus": 1})"), &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("bogus"), std::string::npos);
  s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "base": {"typo": 1}})"), &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("base.typo"), std::string::npos) << s.message();
  s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "axes": [{"path": "seed", "values": []}]})"),
      &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  s = SweepSpec::FromJson(
      MustParse(
          R"({"name": "x",
              "axes": [{"path": "seed", "values": [1, 2], "labels": ["a"]}]})"),
      &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("labels"), std::string::npos);

  // Unknown axis path surfaces at Expand with its location.
  ASSERT_TRUE(SweepSpec::FromJson(
                  MustParse(
                      R"({"name": "x",
                          "axes": [{"path": "nope.field", "values": [1]}]})"),
                  &spec)
                  .ok());
  std::vector<SweepPoint> points;
  s = spec.Expand(&points);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("nope.field"), std::string::npos) << s.message();
}

TEST(SweepSpecTest, ExpandRepeatDerivesSeedsAndNames) {
  std::vector<SweepPoint> points(2);
  points[0].name = "p0";
  points[0].config.seed = 10;
  points[1].name = "p1";
  points[1].config.seed = 20;

  std::vector<SweepPoint> same = ExpandRepeat(points, 1);
  ASSERT_EQ(same.size(), 2u);
  EXPECT_EQ(same[0].name, "p0");

  std::vector<SweepPoint> runs = ExpandRepeat(points, 3);
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].name, "p0/rep=0");
  EXPECT_EQ(runs[2].name, "p0/rep=2");
  EXPECT_EQ(runs[3].name, "p1/rep=0");
  EXPECT_EQ(runs[0].config.seed, 10u);
  EXPECT_EQ(runs[2].config.seed, 12u);
  EXPECT_EQ(runs[5].config.seed, 22u);
}

// The checked-in specs are the only definition of each paper figure, so a
// typo in one (a misspelled protocol, a bad value) must fail here rather
// than at the end of a long sweep. A document is a sweep when it is an
// array or carries a "name"; otherwise it is a single-run config.
TEST(SweepSpecTest, CheckedInSpecsExpandAndValidate) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& e :
       fs::directory_iterator(fs::path(LION_SOURCE_DIR) / "examples/configs")) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  size_t sweeps = 0;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    Json doc;
    Status s = Json::ParseFile(file.string(), &doc);
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (!doc.is_array() && doc.Find("name") == nullptr) {
      ExperimentConfig cfg;
      s = ParseExperimentConfig(doc, &cfg);
      if (s.ok()) s = ExperimentBuilder(cfg).Validate();
      EXPECT_TRUE(s.ok()) << s.ToString();
      continue;
    }
    sweeps++;
    std::vector<SweepPoint> points;
    s = LoadSweepFile(file.string(), &points);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_FALSE(points.empty());
    std::set<std::string> names;
    for (const SweepPoint& p : points) {
      EXPECT_TRUE(names.insert(p.name).second) << "duplicate point " << p.name;
      s = ExperimentBuilder(p.config).Validate();
      EXPECT_TRUE(s.ok()) << p.name << ": " << s.ToString();
    }
  }
  EXPECT_GT(sweeps, 0u);
}

// --- derived reports ---------------------------------------------------------

std::string ConfigPath(const std::string& file) {
  return std::string(LION_SOURCE_DIR) + "/examples/configs/" + file;
}

/// A synthetic, distinguishable result for point `i`, run `rep`: every
/// field a report reads differs between points and between repeats.
ExperimentResult SyntheticResult(const SweepPoint& p, size_t i, int rep) {
  ExperimentResult r;
  double salt = static_cast<double>(i) + 100.0 * rep;
  r.protocol = p.config.protocol;
  r.seed = p.config.seed + static_cast<uint64_t>(rep);
  r.throughput = 1000.0 + salt;
  r.p99_us = 5000.0 + salt;
  r.window = 100 * kMillisecond;
  if (!p.config.chaos.schedule.empty()) {
    r.chaos.emplace();
    for (int w = 0; w < 30; ++w) {
      r.chaos->window_availability.push_back(w < 25 ? 1.0 : 0.5 + salt / 1e3);
    }
  }
  if (p.config.recovery.enabled) {
    r.recovery.emplace();
    r.recovery->log_entries_lost = 10 + static_cast<uint64_t>(salt);
    r.recovery->recovery_events.push_back({2000.0, 1, 2.5 + salt, 4});
  }
  if (p.config.protocol == "meta") {
    r.meta.emplace();
    r.meta->protocol_switches.resize(3 + static_cast<size_t>(rep));
  }
  return r;
}

std::vector<SweepOutcome> SyntheticOutcomes(
    const std::vector<SweepPoint>& points, int repeat) {
  std::vector<SweepPoint> runs = ExpandRepeat(points, repeat);
  std::vector<SweepOutcome> outcomes;
  for (size_t k = 0; k < runs.size(); ++k) {
    size_t i = k / static_cast<size_t>(repeat);
    int rep = static_cast<int>(k % static_cast<size_t>(repeat));
    outcomes.push_back(SweepOutcome{runs[k].name, Status::OK(),
                                    SyntheticResult(points[i], i, rep)});
  }
  return outcomes;
}

TEST(SweepReportsTest, ReferenceBoundComesFromEachPointsTopology) {
  // geo_smoke.json runs 3 regions with an explicit 80 ms worst one-way
  // link, so the bound is one 160 ms round trip — not the 60 ms of the
  // default 30 ms cross-region latency.
  std::vector<SweepPoint> points;
  ASSERT_TRUE(LoadSweepFile(ConfigPath("geo_smoke.json"), &points).ok());
  ASSERT_EQ(points.size(), 2u);
  for (SweepPoint& p : points) p.reports = {"reference"};
  auto derived =
      RunSweepReports({"reference"}, points, SyntheticOutcomes(points, 1), 1);
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_EQ(derived[0].first, "reference");
  Json ref = MustParse(derived[0].second);
  const Json* bounds = ref.Find("didona_lower_bound_us");
  ASSERT_NE(bounds, nullptr);
  ASSERT_EQ(bounds->members().size(), 1u);
  EXPECT_EQ(bounds->members()[0].first, "regions=3");
  double bound = 0.0;
  ASSERT_TRUE(bounds->members()[0].second.GetDouble(&bound).ok());
  EXPECT_EQ(bound, 160000.0);
  const Json* distance = ref.Find("distance_from_bound_us");
  ASSERT_NE(distance, nullptr);
  ASSERT_EQ(distance->members().size(), 2u);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(distance->members()[i].first, points[i].name);
    double d = 0.0;
    ASSERT_TRUE(distance->members()[i].second.GetDouble(&d).ok());
    EXPECT_EQ(d, 5000.0 + static_cast<double>(i) - 160000.0);
  }
}

TEST(SweepReportsTest, RepeatReportsMatchSingleRun) {
  std::vector<SweepPoint> points;
  std::vector<std::string> reports;
  for (const char* file : {"fig_chaos.json", "fig_geo.json", "fig_meta.json"}) {
    ASSERT_TRUE(LoadSweepFile(ConfigPath(file), &points, &reports).ok());
  }
  ASSERT_EQ(reports, (std::vector<std::string>{"recovery_panel", "reference",
                                               "meta_summary"}));
  auto single =
      RunSweepReports(reports, points, SyntheticOutcomes(points, 1), 1);
  auto repeated =
      RunSweepReports(reports, points, SyntheticOutcomes(points, 2), 2);
  ASSERT_EQ(single.size(), 3u);
  EXPECT_EQ(repeated, single);
  for (const auto& [name, value] : repeated) {
    EXPECT_EQ(value.find("/rep="), std::string::npos) << name << ": " << value;
  }

  // The recovery panel spans both FigChaosRecovery entries, in declaration
  // order, with each point's configured lag (-1: recovery off).
  Json panel = MustParse(single[0].second);
  ASSERT_EQ(panel.items().size(), 4u);
  const std::pair<const char*, int64_t> expected[] = {
      {"FigChaosRecovery/rejoin_empty", -1},
      {"FigChaosRecovery/lag_0us", 0},
      {"FigChaosRecovery/lag_1000us", 1000},
      {"FigChaosRecovery/lag_20000us", 20000}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(panel.items()[i].Find("name")->str(), expected[i].first);
    int64_t lag = 0;
    const Json* lag_us = panel.items()[i].Find("durability_lag_us");
    ASSERT_TRUE(lag_us->GetInt64(&lag).ok());
    EXPECT_EQ(lag, expected[i].second);
  }
  // Windows after the 2500 ms crash: 26..29 of the synthetic series.
  EXPECT_NE(single[0].second.find("\"post_crash_availability\":0.5030"),
            std::string::npos)
      << single[0].second;
  // meta_summary finds the meta point by its meta section.
  EXPECT_NE(single[2].second.find("\"switches\":3}"), std::string::npos)
      << single[2].second;
}

TEST(SweepReportsTest, UnknownOrRepeatedReportIsRejected) {
  SweepSpec spec;
  Status s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "reports": ["reference", "nope"]})"), &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("reports[1]"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("nope"), std::string::npos) << s.message();

  s = SweepSpec::FromJson(
      MustParse(R"({"name": "x", "reports": ["reference", "reference"]})"),
      &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("reports[1]"), std::string::npos) << s.message();

  s = SweepSpec::FromJson(MustParse(R"({"name": "x", "reports": [1]})"),
                          &spec);
  ASSERT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("reports[0]"), std::string::npos) << s.message();
}

}  // namespace
}  // namespace lion
