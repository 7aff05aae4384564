// lionbench: runs one benchmark workload end to end and prints its metrics.
//
//   lionbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH] [--sub-runs K]
//             [--spin-next-ns NS] [--spin-ontxn-ns NS]
//
// --trace 0 (timed run): builds and runs the workload's K sub-runs (one
// derived seed each) and keeps cycling through them until S seconds have
// passed. Prints the end-to-end metrics: host timings as medians over all
// repetitions, sim_* metrics pooled over the K sub-runs.
//
// --trace 1 (traced run): runs sub-run 0 plainly and again through the
// tracing decorators, checks both simulate identically, then replays each
// layer's public functions. Prints the per-layer metrics.
//
// Every run drains the simulator and checks cluster integrity; any
// violation, a run without commits, a transaction given up, or a
// nondeterministic repeat exits non-zero without printing a result. The last
// stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/histogram.h"
#include "core/lion_protocol.h"
#include "core/template_predictor.h"
#include "replication/integrity.h"
#include "replication/recovery_log.h"

namespace lionbench {

namespace {

using lion::ExperimentConfig;
using Clock = std::chrono::steady_clock;

/// Set-up repetitions added to the one each sub-run performs, so setup_s is
/// a median even when few sub-runs fit.
constexpr int kExtraSetups = 16;

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "lionbench: FAIL: %s\n", message.c_str());
  std::exit(1);
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile in µs, interpolated linearly inside the histogram bucket that
/// holds it: the bucket's lower edge and cumulative share are found through
/// Histogram::Percentile, so seed-to-seed changes within one bucket show.
double PercentileUs(const lion::Histogram& h, double q) {
  if (h.Count() == 0) return 0.0;
  const int64_t low = h.Percentile(q);
  double below = 0.0, at = q;  // last share under `low`, first share at it
  for (int i = 0; i < 64; ++i) {
    double mid = 0.5 * (below + at);
    (h.Percentile(mid) < low ? below : at) = mid;
  }
  double last = q, above = 1.0;  // last share at `low`, first share above
  for (int i = 0; i < 64; ++i) {
    double mid = 0.5 * (last + above);
    (h.Percentile(mid) > low ? above : last) = mid;
  }
  int64_t next = h.Percentile(above);
  if (next <= low) {  // `low` is the top bucket
    next = h.Max();
    above = 1.0;
  }
  const double frac = above > below ? (q - below) / (above - below) : 0.0;
  return (static_cast<double>(low) +
          frac * static_cast<double>(next - low)) / 1000.0;
}

// --- one sub-run -------------------------------------------------------------

/// Everything a sub-run simulated. Deterministic for a fixed config: the
/// determinism and no-perturbation checks compare these field by field.
struct SimStats {
  // measured window
  uint64_t committed = 0, aborts = 0, distributed = 0, bytes = 0;
  lion::SimTime measured = 0;
  lion::PhaseBreakdown breakdown;
  lion::Histogram latency;
  // whole run (warmup included)
  uint64_t run_commits = 0, events = 0, messages = 0;
  uint64_t remasters = 0, migrations = 0, migrated_bytes = 0;
  uint64_t remaster_requests = 0, fallback_distributed = 0, plan_entries = 0;
  uint64_t pre_replications = 0, log_entries = 0;
  uint64_t records_setup = 0, records_end = 0;
  double busy_share = 0.0;
  bool lion = false;  // the protocol runs Lion's router/planner/predictor

  bool operator==(const SimStats& o) const {
    auto key = [](const SimStats& s) {
      return std::vector<double>{
          double(s.committed), double(s.aborts), double(s.distributed),
          double(s.bytes), double(s.measured), double(s.breakdown.Total()),
          double(s.latency.Count()), s.latency.Mean(),
          double(s.latency.Percentile(0.5)), double(s.latency.Percentile(0.99)),
          double(s.latency.Percentile(0.999)), double(s.latency.Max()),
          double(s.run_commits), double(s.events), double(s.messages),
          double(s.remasters), double(s.migrations), double(s.migrated_bytes),
          double(s.remaster_requests), double(s.fallback_distributed),
          double(s.plan_entries), double(s.pre_replications),
          double(s.log_entries), double(s.records_end), s.busy_share};
    };
    return key(*this) == key(o);
  }
};

struct SubRun {
  SimStats sim;
  double setup_s = 0.0;
  double run_s = 0.0;
};

uint64_t TotalRecords(lion::Cluster* cluster) {
  uint64_t records = 0;
  for (int p = 0; p < cluster->num_partitions(); ++p) {
    records += cluster->store(p)->record_count();
  }
  return records;
}

std::unique_ptr<lion::Experiment> Build(const ExperimentConfig& cfg,
                                        double* seconds) {
  std::unique_ptr<lion::Experiment> ex;
  auto t0 = Clock::now();
  lion::Status s = lion::ExperimentBuilder(cfg).Build(&ex);
  *seconds = SecondsSince(t0);
  if (!s.ok()) Fail("build: " + s.ToString());
  return ex;
}

/// Builds and runs one experiment, then (untimed) drains it and applies the
/// correctness gate. With `ledger`, every commit is recorded and the
/// integrity check verifies each committed write against the stores (and
/// against the recovery log's reconstruction when one is attached).
SubRun RunOne(const ExperimentConfig& cfg, bool ledger) {
  SubRun r;
  std::unique_ptr<lion::Experiment> ex = Build(cfg, &r.setup_s);
  lion::Cluster* cluster = ex->cluster();
  lion::MetricsCollector* metrics = ex->metrics();
  SimStats& s = r.sim;
  s.records_setup = TotalRecords(cluster);
  std::unique_ptr<lion::CommitLedger> commit_ledger;
  if (ledger) {
    commit_ledger = std::make_unique<lion::CommitLedger>(cluster->num_partitions());
    lion::CommitLedger* l = commit_ledger.get();
    metrics->SetCommitListener([l](const lion::Transaction& t) { l->Record(t); });
  }

  auto t0 = Clock::now();
  lion::ExperimentResult res = ex->Run();
  r.run_s = SecondsSince(t0);

  // Snapshot before the drain so post-measurement work cannot leak in.
  s.committed = res.committed;
  s.aborts = res.aborts;
  s.distributed = res.distributed;
  s.measured = cfg.duration;
  s.breakdown = res.breakdown;
  s.latency = metrics->latency();
  const lion::SimTime window = metrics->window();
  const auto& window_bytes = cluster->network().window_bytes();
  for (size_t i = static_cast<size_t>(cfg.warmup / window);
       i < window_bytes.size() &&
       static_cast<lion::SimTime>(i) < (cfg.warmup + cfg.duration) / window;
       ++i) {
    s.bytes += window_bytes[i];
  }
  for (uint64_t c : metrics->window_commits()) s.run_commits += c;
  s.events = ex->sim()->processed_events();
  s.messages = cluster->network().total_messages();
  s.remasters = res.remasters;
  s.migrations = res.migrations;
  s.migrated_bytes = res.migrated_bytes;
  if (auto* lion_protocol =
          dynamic_cast<lion::LionProtocol*>(Undecorated(ex->protocol()))) {
    s.lion = true;
    s.remaster_requests = lion_protocol->remaster_requests();
    s.fallback_distributed = lion_protocol->fallback_distributed();
    if (lion_protocol->planner() != nullptr) {
      s.plan_entries = lion_protocol->planner()->entries_dispatched();
    }
    if (auto* predictor = dynamic_cast<lion::TemplateClassPredictor*>(
            Undecorated(lion_protocol->predictor()))) {
      s.pre_replications = predictor->pre_replications_triggered();
    }
  }
  if (cluster->recovery_log() != nullptr) {
    s.log_entries = cluster->recovery_log()->entries_appended();
  }
  s.records_end = TotalRecords(cluster);
  double busy = 0.0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    busy += static_cast<double>(cluster->pool(n)->busy_time());
  }
  s.busy_share = busy / (static_cast<double>(cluster->num_nodes()) *
                         cfg.cluster.workers_per_node *
                         static_cast<double>(cfg.warmup + cfg.duration));

  // Correctness gate.
  ex->sim()->RunUntilIdle();
  const uint64_t given_up = metrics->aborted_unavailable();
  if (s.committed == 0) Fail("no transaction committed");
  if (given_up > 0) Fail(std::to_string(given_up) + " transactions given up");
  lion::IntegrityReport report =
      lion::CheckClusterIntegrity(cluster, nullptr, commit_ledger.get());
  if (!report.ok()) {
    Fail(std::to_string(report.violations.size()) +
         " integrity violations, first: " + report.violations.front());
  }
  if (commit_ledger != nullptr && report.committed_writes_checked == 0 &&
      commit_ledger->writes_recorded() > 0) {
    Fail("ledger recorded writes but the integrity check verified none");
  }
  return r;
}

/// sim_* metrics and layer counts pooled over several sub-runs.
struct Pooled {
  uint64_t committed = 0, aborts = 0, distributed = 0, bytes = 0;
  lion::SimTime measured = 0;
  lion::Histogram latency;
  uint64_t remaster_requests = 0, plan_entries = 0, pre_replications = 0;
  uint64_t log_entries = 0, records_setup = 0, records_end = 0;

  void Add(const SimStats& s) {
    committed += s.committed;
    aborts += s.aborts;
    distributed += s.distributed;
    bytes += s.bytes;
    measured += s.measured;
    latency.Merge(s.latency);
    remaster_requests += s.remaster_requests;
    plan_entries += s.plan_entries;
    pre_replications += s.pre_replications;
    log_entries += s.log_entries;
    records_setup += s.records_setup;
    records_end += s.records_end;
  }
  double distributed_pct() const { return 100.0 * distributed / committed; }
  double abort_pct() const { return 100.0 * aborts / (aborts + committed); }
};

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Every printed result is correct and has no failures: any failed check
/// exits before this point.
void PrintResult(uint64_t attempted, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) + ", \"failed\": 0, \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- coverage ----------------------------------------------------------------

/// Fails loudly if config drift stopped a workload from exercising the layer
/// it exists for.
void CheckCoverage(const Workload& w, const Pooled& counts) {
  auto require = [&w](bool ok, const char* what) {
    if (!ok) Fail(std::string(w.name) + " coverage: " + what);
  };
  const std::string name = w.name;
  if (name == "hotspot_lion") {
    require(counts.remaster_requests > 0, "core.remaster_requests == 0");
    require(counts.plan_entries > 0, "core.plan_entries == 0");
    require(counts.pre_replications > 0, "predictor.pre_replications == 0");
    require(counts.distributed_pct() < 1.0, "sim_distributed_pct >= 1");
  } else if (name == "ycsb_2pc") {
    require(counts.distributed_pct() >= 40.0 && counts.distributed_pct() <= 60.0,
            "sim_distributed_pct outside [40, 60]");
    require(counts.plan_entries == 0 && counts.pre_replications == 0,
            "planner or predictor ran");
  } else if (name == "tpcc_lion_durable") {
    require(counts.log_entries > 0, "replication.log_entries == 0");
    require(counts.records_end > counts.records_setup,
            "storage.records did not grow over setup");
    require(counts.abort_pct() > 0.0, "sim_abort_pct == 0");
  }
}

// --- modes -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int sub_runs = 0;  // 0: the workload's default
  std::string spans_out;
  TraceOptions trace_options;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int TimedRun(const Workload& w, const Args& args) {
  const int k = args.sub_runs > 0 ? args.sub_runs : w.sub_runs;
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < k; ++i) {
    configs.push_back(w.make(SubSeed(args.seed, i)));
    if (DecoratorsNeeded()) UseDecorators(&configs.back());
  }

  std::vector<double> setup_s, host_us;
  for (int i = 0; i < kExtraSetups; ++i) {
    double seconds = 0.0;
    Build(configs[static_cast<size_t>(i % k)], &seconds);
    setup_s.push_back(seconds);
  }

  std::vector<SimStats> first(static_cast<size_t>(k));
  Pooled pooled;
  uint64_t attempted = 0;
  auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    const double elapsed = SecondsSince(start);
    if (rep >= k && elapsed * (rep + 1) / rep > args.seconds) break;
    const size_t i = static_cast<size_t>(rep % k);
    SubRun r = RunOne(configs[i], /*ledger=*/false);
    if (rep < k) {
      first[i] = r.sim;
      pooled.Add(r.sim);
    } else if (!(r.sim == first[i])) {
      Fail("sub-run " + std::to_string(i) + " simulated differently on repeat");
    }
    setup_s.push_back(r.setup_s);
    host_us.push_back(r.run_s * 1e6 / static_cast<double>(r.sim.run_commits));
    std::fprintf(stderr, "# repetition %d sub-run %zu: setup %.6f s, %.4f us/txn\n",
                 rep, i, r.setup_s, host_us.back());
    attempted += r.sim.run_commits;
  }
  CheckCoverage(w, pooled);

  const double measured_s = static_cast<double>(pooled.measured) / 1e9;
  std::vector<Metric> metrics = {
      {"host_us_per_txn", "us", Median(host_us)},
      {"setup_s", "s", Median(setup_s)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"sim_throughput_txn_s", "txn/s", pooled.committed / measured_s},
      {"sim_p50_us", "us", PercentileUs(pooled.latency, 0.50)},
      {"sim_p99_us", "us", PercentileUs(pooled.latency, 0.99)},
      {"sim_p999_us", "us", PercentileUs(pooled.latency, 0.999)},
      {"sim_distributed_pct", "%", pooled.distributed_pct()},
      {"sim_abort_pct", "%", pooled.abort_pct()},
      {"sim_bytes_per_txn", "B/txn",
       static_cast<double>(pooled.bytes) / pooled.committed},
  };
  std::printf("# %s seed=%llu sub_runs=%d repetitions=%zu latency_samples=%llu\n",
              w.name, static_cast<unsigned long long>(args.seed), k,
              host_us.size(),
              static_cast<unsigned long long>(pooled.latency.Count()));
  PrintResult(attempted, metrics);
  return 0;
}

int TracedRun(const Workload& w, const Args& args) {
  const ExperimentConfig cfg = w.make(SubSeed(args.seed, 0));

  // (A) plain run, then the same config through the span decorators.
  ExperimentConfig plain_cfg = cfg;
  if (DecoratorsNeeded()) UseDecorators(&plain_cfg);
  SubRun plain = RunOne(plain_cfg, /*ledger=*/true);
  TraceOptions options = args.trace_options;
  options.record = true;
  SetTraceOptions(options);
  ExperimentConfig traced_cfg = cfg;
  UseDecorators(&traced_cfg);
  SubRun traced = RunOne(traced_cfg, /*ledger=*/true);
  if (!(plain.sim == traced.sim)) Fail("tracing changed the simulation");
  const SpanTotals spans = SummarizeSpans();
  if (!args.spans_out.empty() && !WriteSpans(args.spans_out)) {
    Fail("cannot write spans to " + args.spans_out);
  }

  const SimStats& s = plain.sim;
  Pooled one;
  one.Add(s);
  CheckCoverage(w, one);
  const auto on_txn = static_cast<int>(SpanKind::kOnTxn);
  const auto round = static_cast<int>(SpanKind::kRound);
  if (!s.lion && spans.calls[on_txn] + spans.calls[round] > 0) {
    Fail(std::string(w.name) + " coverage: predictor spans recorded");
  }

  // (B) layer replay.
  std::map<std::string, double> v = RunLayerReplay(cfg, s.lion);

  const double run_ns = traced.run_s * 1e9;
  auto per_call = [&spans](SpanKind kind, bool self, double scale) {
    const int k = static_cast<int>(kind);
    if (spans.calls[k] == 0) return 0.0;
    const double ns = static_cast<double>(self ? spans.self_ns[k] : spans.total_ns[k]);
    return ns / static_cast<double>(spans.calls[k]) / scale;
  };
  auto share = [run_ns](double ns) { return 100.0 * ns / run_ns; };
  const double commits = static_cast<double>(s.committed);
  const double run_commits = static_cast<double>(s.run_commits);
  v["storage.records"] = static_cast<double>(s.records_end);
  v["sim.events_per_txn"] = static_cast<double>(s.events) / run_commits;
  v["network.msgs_per_txn"] = static_cast<double>(s.messages) / run_commits;
  v["worker_pool.busy_pct"] = 100.0 * s.busy_share;
  v["phase.scheduling_us"] = s.breakdown.scheduling / commits / 1e3;
  v["phase.execution_us"] = s.breakdown.execution / commits / 1e3;
  v["phase.commit_us"] = s.breakdown.commit / commits / 1e3;
  v["phase.replication_us"] = s.breakdown.replication / commits / 1e3;
  v["core.remaster_requests"] = static_cast<double>(s.remaster_requests);
  v["core.fallback_distributed"] = static_cast<double>(s.fallback_distributed);
  v["core.plan_entries"] = static_cast<double>(s.plan_entries);
  v["predictor.pre_replications"] = static_cast<double>(s.pre_replications);
  v["predictor.on_txn_ns"] = per_call(SpanKind::kOnTxn, false, 1.0);
  v["predictor.round_ms"] = per_call(SpanKind::kRound, false, 1e6);
  v["predictor.share_pct"] = share(static_cast<double>(
      spans.total_ns[on_txn] + spans.total_ns[round]));
  v["replication.remasters"] = static_cast<double>(s.remasters);
  v["replication.migrations"] = static_cast<double>(s.migrations);
  v["replication.migrated_mb"] = static_cast<double>(s.migrated_bytes) / 1e6;
  v["replication.log_entries"] = static_cast<double>(s.log_entries);
  v["workload.next_ns"] = per_call(SpanKind::kNext, false, 1.0);
  v["workload.share_pct"] =
      share(static_cast<double>(spans.total_ns[static_cast<int>(SpanKind::kNext)]));
  v["protocol.submit_ns"] = per_call(SpanKind::kSubmit, true, 1.0);
  v["protocol.share_pct"] =
      share(static_cast<double>(spans.self_ns[static_cast<int>(SpanKind::kSubmit)]));
  v["events.share_pct"] = share(run_ns - static_cast<double>(spans.top_level_ns));
  v["metrics.latency_samples"] = static_cast<double>(s.latency.Count());
  v["trace.overhead_pct"] = 100.0 * (traced.run_s - plain.run_s) / plain.run_s;

  static const char* const kUnits[][2] = {
      {"storage_occ.read_ns", "ns"},          {"storage_occ.validate_ns", "ns"},
      {"storage_occ.apply_ns", "ns"},         {"storage.records", "count"},
      {"sim.events_per_txn", "events/txn"},   {"sim.schedule_run_ns", "ns"},
      {"network.msgs_per_txn", "msgs/txn"},   {"network.send_ns", "ns"},
      {"worker_pool.submit_ns", "ns"},        {"worker_pool.busy_pct", "%"},
      {"txn.engine_single_us", "us"},         {"txn.engine_distributed_us", "us"},
      {"phase.commit_us", "us"},              {"core.route_ns", "ns"},
      {"core.planner_record_ns", "ns"},       {"core.planner_round_ms", "ms"},
      {"core.remaster_requests", "count"},    {"core.fallback_distributed", "count"},
      {"core.plan_entries", "count"},         {"predictor.on_txn_ns", "ns"},
      {"predictor.round_ms", "ms"},           {"predictor.pre_replications", "count"},
      {"ml.lstm_train_ms", "ms"},             {"ml.lstm_forecast_us", "us"},
      {"replication.remasters", "count"},     {"replication.migrations", "count"},
      {"replication.migrated_mb", "MB"},      {"phase.replication_us", "us"},
      {"replication.log_entries", "count"},   {"workload.next_ns", "ns"},
      {"workload.share_pct", "%"},            {"protocol.submit_ns", "ns"},
      {"protocol.share_pct", "%"},            {"predictor.share_pct", "%"},
      {"events.share_pct", "%"},              {"phase.scheduling_us", "us"},
      {"phase.execution_us", "us"},           {"metrics.latency_samples", "count"},
      {"trace.overhead_pct", "%"},
  };
  // Layers this workload never instantiates report 0 and are listed as not
  // applicable on the line before the result.
  std::vector<std::string> not_applicable;
  std::vector<Metric> metrics;
  for (const auto& entry : kUnits) {
    const std::string name = entry[0];
    const bool lion_only = name.rfind("core.", 0) == 0 ||
                           name.rfind("predictor.", 0) == 0 ||
                           name.rfind("ml.", 0) == 0 ||
                           name == "replication.remasters" ||
                           name == "replication.migrations" ||
                           name == "replication.migrated_mb";
    const bool na = (lion_only && !s.lion) ||
                    (name == "replication.log_entries" && !cfg.recovery.enabled);
    if (na) not_applicable.push_back(name);
    metrics.push_back(Metric{name, entry[1], na ? 0.0 : v.at(name)});
  }
  std::string na_line;
  for (const std::string& name : not_applicable) na_line += " " + name;
  std::printf("# %s seed=%llu traced sub-run 0: %llu spans, not applicable:%s\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(
                  spans.calls[0] + spans.calls[1] + spans.calls[2] + spans.calls[3]),
              na_line.empty() ? " none" : na_line.c_str());
  PrintResult(plain.sim.run_commits + traced.sim.run_commits, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--spans-out") {
      args->spans_out = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) return false;
    if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(number);
    } else if (flag == "--sub-runs") {
      args->sub_runs = static_cast<int>(number);
    } else if (flag == "--spin-next-ns") {
      args->trace_options.spin_next_ns = static_cast<int64_t>(number);
    } else if (flag == "--spin-ontxn-ns") {
      args->trace_options.spin_ontxn_ns = static_cast<int64_t>(number);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         (args->trace == 0 || args->trace == 1);
}

}  // namespace

}  // namespace lionbench

int main(int argc, char** argv) {
  using namespace lionbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lionbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH] [--sub-runs K] "
                 "[--spin-next-ns NS] [--spin-ontxn-ns NS]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\" (known: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  SetTraceOptions(args.trace_options);
  RegisterDecorators();
  return args.trace == 1 ? TracedRun(*w, args) : TimedRun(*w, args);
}
