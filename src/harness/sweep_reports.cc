#include "harness/sweep_reports.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "replication/chaos_config.h"
#include "replication/recovery_config.h"
#include "sim/topology.h"

namespace lion {

namespace {

/// One point a report sees: its declared name and config, and the result
/// of its base-seed run.
struct ReportPoint {
  const std::string* name;
  const ExperimentConfig* config;
  const ExperimentResult* result;
};

using ReportFn = std::string (*)(const std::vector<ReportPoint>& points);

// --- reference ---------------------------------------------------------------

/// Didona et al.: a transaction that conflicts across regions cannot commit
/// in less than one WAN round trip, i.e. 2x the largest one-way
/// inter-region latency of the topology (0 for a single region).
double DidonaBoundUs(const ExperimentConfig& cfg) {
  Topology topo(cfg.cluster.net, cfg.cluster.num_nodes);
  return 2.0 * static_cast<double>(topo.max_cross_region_latency()) / 1000.0;
}

// {"didona_lower_bound_us":{"regions=1":0,...},
//  "distance_from_bound_us":{"<point>":...,...}}. The bound comes from the
// topology each point ran, so a changed latency matrix moves the bound with
// the measurements; per region count it is the first such point's bound.
// The distance is each point's p99 commit latency minus its own bound: the
// bound constrains only cross-region conflicting commits, which live in the
// tail, so p99 is the percentile it binds. A negative distance means the
// protocol kept even its tail free of cross-region conflicts (Lion's
// remastering does exactly this).
std::string Reference(const std::vector<ReportPoint>& points) {
  std::vector<double> bounds;
  std::map<int, double> by_regions;
  for (const ReportPoint& p : points) {
    bounds.push_back(DidonaBoundUs(*p.config));
    by_regions.emplace(p.config->cluster.net.regions, bounds.back());
  }
  char buf[64];
  std::string out = "{\"didona_lower_bound_us\":{";
  bool first = true;
  for (const auto& [regions, bound] : by_regions) {
    std::snprintf(buf, sizeof(buf), "%s\"regions=%d\":%.6g",
                  first ? "" : ",", regions, bound);
    out += buf;
    first = false;
  }
  out += "},\"distance_from_bound_us\":{";
  for (size_t i = 0; i < points.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    AppendJsonEscaped(&out, *points[i].name);
    std::snprintf(buf, sizeof(buf), "\":%.6g",
                  points[i].result->p99_us - bounds[i]);
    out += buf;
  }
  out += "}}";
  return out;
}

// --- recovery_panel ----------------------------------------------------------

/// Mean availability over the stats windows that start after the
/// schedule's last crash (the whole run when it has none). In the recovery
/// figure that crash removes the last pre-crash copy of the failed-over
/// partitions, so only a replayed rejoin keeps them serving.
double PostCrashAvailability(const ExperimentConfig& cfg,
                             const ExperimentResult& res) {
  SimTime last_crash = -1;
  for (const std::string& entry : cfg.chaos.schedule) {
    ChaosEvent ev;
    if (ChaosEvent::Parse(entry, &ev).ok() &&
        (ev.kind == ChaosEventKind::kCrash ||
         ev.kind == ChaosEventKind::kCrashDirty)) {
      last_crash = std::max(last_crash, ev.at);
    }
  }
  if (!res.chaos) return 0.0;
  const std::vector<double>& availability = res.chaos->window_availability;
  size_t from = last_crash >= 0 && res.window > 0
                    ? static_cast<size_t>(last_crash / res.window) + 1
                    : 0;
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = from; i < availability.size(); ++i) {
    sum += availability[i];
    n++;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// [{"name":...,"durability_lag_us":...,"recovery_ms":...,
//   "post_crash_availability":...,"log_entries_lost":...},...];
// durability_lag_us is -1 for a point with recovery off (rejoin empty).
std::string RecoveryPanel(const std::vector<ReportPoint>& points) {
  std::string out = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    const ExperimentConfig& cfg = *points[i].config;
    const ExperimentResult& res = *points[i].result;
    double recovery_ms = 0.0;
    uint64_t lost = 0;
    if (res.recovery) {
      for (const RecoverySection::RecoveryEvent& ev :
           res.recovery->recovery_events) {
        recovery_ms += ev.duration_ms;
      }
      lost = res.recovery->log_entries_lost;
    }
    out += i > 0 ? ",{\"name\":\"" : "{\"name\":\"";
    AppendJsonEscaped(&out, *points[i].name);
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "\",\"durability_lag_us\":%lld,\"recovery_ms\":%.3f,"
        "\"post_crash_availability\":%.4f,\"log_entries_lost\":%llu}",
        static_cast<long long>(RecoveryActive(cfg.recovery)
                                   ? cfg.recovery.durability_lag / kMicrosecond
                                   : -1),
        recovery_ms, PostCrashAvailability(cfg, res),
        static_cast<unsigned long long>(lost));
    out += buf;
  }
  out += "]";
  return out;
}

// --- meta_summary ------------------------------------------------------------

// The meta point's throughput against the best and worst static point, plus
// its switch count, so an acceptance check or plot script reads one block
// instead of re-deriving ratios.
std::string MetaSummary(const std::vector<ReportPoint>& points) {
  double meta = 0.0, best = 0.0, worst = 0.0;
  uint64_t switches = 0;
  for (const ReportPoint& p : points) {
    const ExperimentResult& r = *p.result;
    if (r.meta) {
      meta = r.throughput;
      switches = r.meta->protocol_switches.size();
    } else {
      if (best == 0.0 || r.throughput > best) best = r.throughput;
      if (worst == 0.0 || r.throughput < worst) worst = r.throughput;
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"meta_txn_s\":%.1f,\"best_static_txn_s\":%.1f,"
                "\"worst_static_txn_s\":%.1f,\"meta_vs_best\":%.4f,"
                "\"meta_vs_worst\":%.4f,\"switches\":%llu}",
                meta, best, worst, best > 0.0 ? meta / best : 0.0,
                worst > 0.0 ? meta / worst : 0.0,
                static_cast<unsigned long long>(switches));
  return buf;
}

struct NamedReport {
  const char* name;
  ReportFn fn;
};

const NamedReport kReports[] = {
    {"meta_summary", MetaSummary},
    {"recovery_panel", RecoveryPanel},
    {"reference", Reference},
};

const NamedReport* FindReport(const std::string& name) {
  for (const NamedReport& r : kReports) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

}  // namespace

Status CheckSweepReport(const std::string& name) {
  if (FindReport(name) != nullptr) return Status::OK();
  std::string known;
  for (const NamedReport& r : kReports) {
    known += known.empty() ? "" : ", ";
    known += r.name;
  }
  return Status::InvalidArgument("unknown report \"" + name + "\" (known: " +
                                 known + ")");
}

std::vector<std::pair<std::string, std::string>> RunSweepReports(
    const std::vector<std::string>& reports,
    const std::vector<SweepPoint>& points,
    const std::vector<SweepOutcome>& outcomes, int repeat) {
  const size_t runs = repeat > 1 ? static_cast<size_t>(repeat) : 1;
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : reports) {
    const NamedReport* report = FindReport(name);
    if (report == nullptr) continue;  // names are checked at load
    std::vector<ReportPoint> selected;
    for (size_t i = 0; i < points.size() && i * runs < outcomes.size(); ++i) {
      // Run 0 of each point carries the base seed.
      const SweepOutcome& base = outcomes[i * runs];
      const std::vector<std::string>& tags = points[i].reports;
      if (!base.status.ok() ||
          std::find(tags.begin(), tags.end(), name) == tags.end()) {
        continue;
      }
      selected.push_back(
          ReportPoint{&points[i].name, &points[i].config, &base.result});
    }
    out.emplace_back(name, report->fn(selected));
  }
  return out;
}

}  // namespace lion
