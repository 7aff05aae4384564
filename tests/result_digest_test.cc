// Fixed-seed result digests: a short, fixed set of runs whose result JSON
// is hashed and compared with the checked-in table tests/result_digests.txt,
// so "byte-identical results" is a test rather than a manual diff.
//
// The set: examples/configs/quickstart.json, every *_smoke / smoke_sweep
// sweep in full, the first point of every fig*_* and ablation_design spec
// shortened to kShortWarmup + kShortDuration, and one short YCSB run per
// registered protocol.
//
// A change that moves results on purpose regenerates the table with
//
//   LION_UPDATE_DIGESTS=1 ./build/lion_tests --gtest_filter='ResultDigestTest.*'
//
// and lists every changed entry, with the reason, in CHANGES.md.
#include <gtest/gtest.h>

#include <gnu/libc-version.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>

#include "harness/config_schema.h"
#include "harness/registry.h"
#include "harness/sweep_runner.h"
#include "harness/sweep_spec.h"

namespace lion {
namespace {

namespace fs = std::filesystem;

constexpr SimTime kShortWarmup = 100 * kMillisecond;
constexpr SimTime kShortDuration = 200 * kMillisecond;

const fs::path kConfigDir = fs::path(LION_SOURCE_DIR) / "examples/configs";
const fs::path kTablePath = fs::path(LION_SOURCE_DIR) / "tests/result_digests.txt";

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(h));
  return out;
}

std::string Toolchain() {
#if defined(__clang__)
  std::string compiler = __VERSION__;
#else
  std::string compiler = "GCC " __VERSION__;
#endif
  return compiler + ", glibc " + gnu_get_libc_version();
}

std::vector<fs::path> SpecFiles(bool (*match)(const std::string& stem)) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(kConfigDir)) {
    if (e.path().extension() == ".json" && match(e.path().stem().string()))
      files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The fixed run set, in table order.
std::vector<SweepPoint> DigestRuns() {
  std::vector<SweepPoint> runs;
  auto load = [](const fs::path& file, std::vector<SweepPoint>* out) {
    Status s = LoadSweepFile(file.string(), out);
    EXPECT_TRUE(s.ok()) << file << ": " << s.ToString();
  };

  Json doc;
  SweepPoint quickstart{"quickstart", ExperimentConfig{}};
  Status s = Json::ParseFile((kConfigDir / "quickstart.json").string(), &doc);
  if (s.ok()) s = ParseExperimentConfig(doc, &quickstart.config);
  EXPECT_TRUE(s.ok()) << s.ToString();
  runs.push_back(quickstart);

  auto is_smoke = [](const std::string& stem) {
    return stem == "smoke_sweep" ||
           (stem.size() > 6 && stem.compare(stem.size() - 6, 6, "_smoke") == 0);
  };
  for (const fs::path& file : SpecFiles(is_smoke)) load(file, &runs);

  auto is_figure = [](const std::string& stem) {
    return stem.rfind("fig", 0) == 0 || stem == "ablation_design";
  };
  for (const fs::path& file : SpecFiles(is_figure)) {
    std::vector<SweepPoint> points;
    load(file, &points);
    if (points.empty()) continue;
    points[0].config.warmup = kShortWarmup;
    points[0].config.duration = kShortDuration;
    runs.push_back(points[0]);
  }

  for (const std::string& protocol : ProtocolRegistry::Global().Names()) {
    SweepPoint p{"ycsb/" + protocol, ExperimentConfig{}};
    p.config.protocol = protocol;
    p.config.workload = "ycsb";
    p.config.ycsb.cross_ratio = 0.5;
    p.config.warmup = kShortWarmup;
    p.config.duration = kShortDuration;
    runs.push_back(p);
  }
  return runs;
}

/// Reads "name digest" lines; '#' lines are comments, and the one naming
/// the toolchain is copied to `*made_with`.
std::map<std::string, std::string> ReadTable(std::string* made_with) {
  std::map<std::string, std::string> table;
  std::ifstream in(kTablePath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# Made with ", 0) == 0) *made_with = line.substr(2);
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    table[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return table;
}

void WriteTable(const std::vector<std::pair<std::string, std::string>>& rows) {
  std::ofstream out(kTablePath);
  out << "# Fixed-seed result digests (FNV-1a 64 of ExperimentResult::ToJson)\n"
         "# for the run set of tests/result_digest_test.cc.\n"
         "# Made with "
      << Toolchain()
      << ".\n"
         "# Regenerate: LION_UPDATE_DIGESTS=1 ./build/lion_tests "
         "--gtest_filter='ResultDigestTest.*'\n";
  for (const auto& [name, digest] : rows) out << name << ' ' << digest << '\n';
}

TEST(ResultDigestTest, FixedSeedRunsMatchCheckedInTable) {
  SweepRunner runner;
  for (SweepPoint& p : DigestRuns()) runner.Add(std::move(p));
  std::vector<SweepOutcome> outcomes = runner.Run();

  std::vector<std::pair<std::string, std::string>> rows;
  for (const SweepOutcome& o : outcomes) {
    ASSERT_TRUE(o.status.ok()) << o.name << ": " << o.status.ToString();
    rows.emplace_back(o.name, Digest(o.result.ToJson()));
  }

  if (std::getenv("LION_UPDATE_DIGESTS") != nullptr) {
    WriteTable(rows);
    GTEST_SKIP() << "rewrote " << kTablePath;
  }

  std::string made_with;
  std::map<std::string, std::string> table = ReadTable(&made_with);
  ASSERT_FALSE(table.empty()) << "missing or empty " << kTablePath;
  // A toolchain change can move libm results; name both so a reader can
  // tell that apart from a behaviour change.
  SCOPED_TRACE("table: " + made_with + "; this build: " + Toolchain());
  for (const auto& [name, digest] : rows) {
    auto it = table.find(name);
    if (it == table.end()) {
      ADD_FAILURE() << name << ": no digest in the table";
      continue;
    }
    EXPECT_EQ(it->second, digest) << name << ": result JSON changed";
    table.erase(it);
  }
  for (const auto& [name, digest] : table) {
    ADD_FAILURE() << name << ": table entry matches no run";
  }
}

}  // namespace
}  // namespace lion
