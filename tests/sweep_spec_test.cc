// Sweep-grid tests: axis expansion counts and order, label defaults and
// overrides, multi-spec documents, error paths, repeat expansion with
// derived seeds, and the checked-in examples/configs documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "harness/config_schema.h"
#include "harness/experiment.h"
#include "harness/sweep_cli.h"
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

}  // namespace
}  // namespace lion
