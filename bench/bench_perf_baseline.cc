// Tracked performance baseline for the simulator hot path and the sweep
// harness. Emits BENCH_sim_hotpath.json (repo root by convention) so each
// PR's numbers land on a trajectory instead of vanishing into a terminal.
//
// Five sections:
//   1. event_churn        — pure Simulator::Schedule/PopAndRun throughput
//                           with protocol-sized closures (no protocol
//                           logic), the hot path in isolation (default
//                           scheduler);
//   2. scheduler_churn    — heap vs calendar A/B across queue-depth x
//                           timer-skew cells, with a pop-clock digest check
//                           asserting both orders are identical;
//   3. experiments        — full single-threaded runs (YCSB+Lion, TPCC+2PC),
//                           simulator events/sec including real event
//                           bodies;
//   4. predictor_ablation — Lion on the dynamic hotspot workload with
//                           predictor.kind = lstm / ewma / off: what
//                           forecast quality buys vs. what forecasting
//                           costs (wall clock);
//   5. sweep              — an 8-config grid through SweepRunner at 1..N
//                           threads, wall-clock scaling plus a determinism
//                           check (merged JSON at threads=1 must equal
//                           threads=N).
//
// Flags: --out=PATH (default BENCH_sim_hotpath.json), --events=N,
//        --threads=N (max pool for the sweep section), --fast (reduced
//        matrix for CI smoke), --no-sweep, --no-sched, --no-pred,
//        --label=STR (tag in the JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep_runner.h"

namespace lion {
namespace {

/// The default cluster with the evaluation's planner and predictor cadence
/// (Sec. VI-A). Every config below sets its own warmup and duration.
ExperimentConfig EvalConfig(const std::string& protocol) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.lion.planner.interval = 250 * kMillisecond;
  cfg.lion.planner.min_history = 64;
  cfg.predictor.sample_interval = 100 * kMillisecond;
  cfg.predictor.train_epochs = 5;
  return cfg;
}

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- 1. Event churn: the scheduler loop in isolation -------------------------

struct ChurnResult {
  uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

// One self-rescheduling chain step. The closure captures two pointers and
// two words of payload (~32 bytes), the size class of real protocol
// callbacks (a `this`, a TxnPtr, a completion token).
void ChainStep(Simulator* sim, uint64_t* remaining, uint64_t salt,
               uint64_t* sink) {
  if (*remaining == 0) return;
  --*remaining;
  *sink += salt;
  sim->Schedule(100, [sim, remaining, salt, sink]() {
    ChainStep(sim, remaining, salt ^ 0x9e3779b97f4a7c15ull, sink);
  });
}

ChurnResult EventChurn(uint64_t total_events) {
  Simulator sim(42);
  uint64_t remaining = total_events;
  uint64_t sink = 0;
  constexpr int kChains = 64;  // realistic queue depth for the heap ops
  auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kChains; ++c) {
    ChainStep(&sim, &remaining, static_cast<uint64_t>(c) + 1, &sink);
  }
  sim.RunUntilIdle();
  ChurnResult res;
  res.wall_s = WallSeconds(t0);
  res.events = sim.processed_events();
  res.events_per_sec = static_cast<double>(res.events) / res.wall_s;
  if (sink == 0xdeadbeef) std::printf("(unlikely)\n");  // keep `sink` live
  return res;
}

// --- 2. Scheduler A/B: queue depth x timer skew ------------------------------

// Delay shapes the cells sweep. "uniform" keeps every deadline near the
// horizon (the calendar's best case); "bimodal" sends 1/8 of reschedules
// ~500 bucket-rotations out (stressing the overflow list); "timer" mixes
// dense work with ms-scale periodic deadlines, the epoch-driven shape from
// STAR-style batch designs that motivated the calendar queue.
enum class SkewDist { kUniform, kBimodal, kTimer };

const char* SkewName(SkewDist d) {
  switch (d) {
    case SkewDist::kUniform: return "uniform";
    case SkewDist::kBimodal: return "bimodal";
    case SkewDist::kTimer: return "timer";
  }
  return "?";
}

struct SchedCell {
  std::string dist;
  int depth = 0;
  double heap_eps = 0.0;
  double calendar_eps = 0.0;
  double speedup = 0.0;
  bool digest_match = false;
};

struct SchedRun {
  double events_per_sec = 0.0;
  uint64_t digest = 0;
};

// One cell: `depth` self-rescheduling chains, `total` events, delays drawn
// from the cell's distribution by a per-chain deterministic RNG. The digest
// folds every pop's clock in execution order, so a single out-of-order pop
// anywhere diverges the heap and calendar digests.
SchedRun SchedulerChurnRun(SchedulerKind kind, SkewDist dist, int depth,
                           uint64_t total) {
  Simulator sim(1234, SimConfig{kind});
  uint64_t remaining = total;
  uint64_t digest = 0;

  struct Chain {
    Simulator* sim;
    uint64_t* remaining;
    uint64_t* digest;
    uint64_t state;
    SkewDist dist;
    int index;

    SimTime NextDelay() {
      // xorshift64*: cheap, deterministic, identical across schedulers.
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      uint64_t r = state * 0x2545f4914f6cdd1dull;
      switch (dist) {
        case SkewDist::kUniform:
          return static_cast<SimTime>(50 + r % 100);
        case SkewDist::kBimodal:
          return (r % 8 == 0) ? 100 * kMicrosecond
                              : static_cast<SimTime>(r % 200);
        case SkewDist::kTimer:
          // One chain in 16 is a fixed-period millisecond timer; the rest
          // are dense near-horizon work.
          if (index % 16 == 0) return 1 * kMillisecond;
          return static_cast<SimTime>(r % 200);
      }
      return 100;
    }

    void Step() {
      if (*remaining == 0) return;
      --*remaining;
      // Fold the chain identity in as well as the clock: same-tick pops
      // from different chains would otherwise contribute identical terms,
      // hiding FIFO tie-order inversions from the digest.
      *digest = *digest * 31 + static_cast<uint64_t>(sim->Now()) * 1315423911u +
                static_cast<uint64_t>(index);
      sim->Schedule(NextDelay(), [this]() { Step(); });
    }
  };

  std::vector<Chain> chains;
  chains.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    chains.push_back(Chain{&sim, &remaining, &digest,
                           0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i),
                           dist, i});
  }
  auto t0 = std::chrono::steady_clock::now();
  for (Chain& c : chains) c.Step();
  sim.RunUntilIdle();
  SchedRun res;
  res.events_per_sec =
      static_cast<double>(sim.processed_events()) / WallSeconds(t0);
  res.digest = digest;
  return res;
}

std::vector<SchedCell> RunSchedulerChurn(bool fast) {
  const uint64_t total = fast ? 250'000 : 1'000'000;
  std::vector<SchedCell> cells;
  for (SkewDist dist :
       {SkewDist::kUniform, SkewDist::kBimodal, SkewDist::kTimer}) {
    for (int depth : {64, 1024, 8192}) {
      SchedRun heap =
          SchedulerChurnRun(SchedulerKind::kHeap, dist, depth, total);
      SchedRun cal =
          SchedulerChurnRun(SchedulerKind::kCalendar, dist, depth, total);
      SchedCell cell;
      cell.dist = SkewName(dist);
      cell.depth = depth;
      cell.heap_eps = heap.events_per_sec;
      cell.calendar_eps = cal.events_per_sec;
      cell.speedup = cal.events_per_sec / heap.events_per_sec;
      cell.digest_match = heap.digest == cal.digest;
      std::printf(
          "scheduler_churn: dist=%-7s depth=%-5d heap=%6.2f M ev/s  "
          "calendar=%6.2f M ev/s  (%.2fx)%s\n",
          cell.dist.c_str(), depth, cell.heap_eps / 1e6,
          cell.calendar_eps / 1e6, cell.speedup,
          cell.digest_match ? "" : "  DIGEST MISMATCH");
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// --- 3. Full experiments: events/sec with real event bodies ------------------

struct MacroResult {
  std::string name;
  uint64_t events = 0;
  uint64_t committed = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double throughput = 0.0;
};

ExperimentConfig YcsbLion(bool fast) {
  ExperimentConfig cfg = EvalConfig("Lion");
  cfg.workload = "ycsb";
  cfg.ycsb.cross_ratio = 0.5;
  cfg.ycsb.skew_factor = 0.8;
  cfg.cluster.remaster_base_delay = 3000 * kMicrosecond;
  cfg.warmup = fast ? 200 * kMillisecond : 500 * kMillisecond;
  cfg.duration = fast ? 500 * kMillisecond : 2 * kSecond;
  return cfg;
}

ExperimentConfig Tpcc2Pc(bool fast) {
  ExperimentConfig cfg = EvalConfig("2PC");
  cfg.workload = "tpcc";
  cfg.cluster.partitions_per_node = 4;
  cfg.tpcc.remote_ratio = 0.5;
  cfg.tpcc.skew_factor = 0.8;
  cfg.cluster.remaster_base_delay = 3000 * kMicrosecond;
  cfg.warmup = fast ? 200 * kMillisecond : 500 * kMillisecond;
  cfg.duration = fast ? 500 * kMillisecond : 2 * kSecond;
  return cfg;
}

// Chaos + durable recovery hot path: 2PC under a dirty crash, log replay +
// catch-up rejoin, and a second crash, with the recovery log recording every
// commit. Events/sec tracks the log-append and catch-up overhead on top of
// the chaos machinery; committed tracks how much work survives the schedule.
ExperimentConfig ChaosRecovery(bool fast) {
  ExperimentConfig cfg = EvalConfig("2PC");
  cfg.workload = "ycsb";
  cfg.ycsb.cross_ratio = 0.2;
  cfg.warmup = fast ? 200 * kMillisecond : 500 * kMillisecond;
  cfg.duration = fast ? 500 * kMillisecond : 2 * kSecond;
  const SimTime w = cfg.warmup;
  const SimTime d = cfg.duration;
  auto ms = [](SimTime t) { return std::to_string(t / kMillisecond) + "ms"; };
  cfg.chaos.schedule = {
      ms(w + d / 4) + " crash_dirty 1",
      ms(w + d / 2) + " recover 1",
      ms(w + d * 3 / 4) + " crash 2",
  };
  cfg.recovery.enabled = true;
  cfg.recovery.durability_lag = 1 * kMillisecond;
  cfg.recovery.snapshot_interval = 500 * kMillisecond;
  return cfg;
}

// The meta protocol on the drifting hotspot: the adaptive-routing hot path
// (per-txn majority vote, per-epoch decision rounds, switch handoffs) on
// the workload it exists for. Events/sec tracks the routing overhead,
// txn/s the adaptation win.
ExperimentConfig MetaDrift(bool fast) {
  ExperimentConfig cfg = EvalConfig("meta");
  cfg.workload = "ycsb-hotspot-position";
  cfg.dynamic_period = 1 * kSecond;
  cfg.warmup = fast ? 200 * kMillisecond : 500 * kMillisecond;
  cfg.duration = fast ? 500 * kMillisecond : 2 * kSecond;
  return cfg;
}

MacroResult RunMacro(const std::string& name, const ExperimentConfig& cfg) {
  MacroResult res;
  res.name = name;
  std::unique_ptr<Experiment> ex;
  Status s = ExperimentBuilder(cfg).Build(&ex);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), s.ToString().c_str());
    return res;
  }
  auto t0 = std::chrono::steady_clock::now();
  ExperimentResult r = ex->Run();
  res.wall_s = WallSeconds(t0);
  res.events = ex->sim()->processed_events();
  res.committed = r.committed;
  res.throughput = r.throughput;
  res.events_per_sec = static_cast<double>(res.events) / res.wall_s;
  return res;
}

// --- 4. Predictor ablation: lstm vs ewma vs off on a dynamic workload --------

struct PredAblationResult {
  std::string kind;
  uint64_t committed = 0;
  uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double throughput = 0.0;
};

// Lion on the position-cycling hotspot (the Fig. 8b shape): hotspots move
// every period, which is exactly the regime where pre-replication from a
// good forecast pays. Same seed and workload across the three kinds, so
// throughput isolates forecast quality and wall clock isolates model cost.
ExperimentConfig PredictorAblationConfig(bool fast, const char* kind) {
  ExperimentConfig cfg = EvalConfig("Lion");
  cfg.workload = "ycsb-hotspot-position";
  // The period is the same in both modes so CI's fast runs measure the
  // same workload shape as the checked-in full baseline; fast mode only
  // sees fewer cycles of it.
  cfg.dynamic_period = 1 * kSecond;
  cfg.cluster.remaster_base_delay = 3000 * kMicrosecond;
  cfg.predictor.gamma = 0.05;  // eager pre-replication
  cfg.predictor.kind = kind;
  cfg.warmup = 0;
  // Full: two cycles of the 4-phase pattern so the predictor sees it
  // repeat; fast: one cycle.
  cfg.duration = (fast ? 4 : 8) * cfg.dynamic_period;
  return cfg;
}

std::vector<PredAblationResult> RunPredictorAblation(bool fast) {
  std::vector<PredAblationResult> results;
  for (const char* kind : {"lstm", "ewma", "off"}) {
    MacroResult m = RunMacro(std::string("pred_") + kind,
                             PredictorAblationConfig(fast, kind));
    PredAblationResult r;
    r.kind = kind;
    r.committed = m.committed;
    r.events = m.events;
    r.wall_s = m.wall_s;
    r.events_per_sec = m.events_per_sec;
    r.throughput = m.throughput;
    std::printf(
        "predictor_ablation: kind=%-4s %llu committed, %.3fs wall -> "
        "%.1f ktxn/s\n",
        r.kind.c_str(), static_cast<unsigned long long>(r.committed), r.wall_s,
        r.throughput / 1000.0);
    results.push_back(std::move(r));
  }
  return results;
}

// --- 5. Sweep scaling --------------------------------------------------------

struct SweepScaling {
  size_t configs = 0;
  std::vector<int> threads;
  std::vector<double> wall_s;
  bool deterministic = false;
};

std::vector<SweepPoint> SweepGrid(bool fast) {
  // 2 protocols x 4 cross ratios = 8 configs, the ISSUE's minimum grid.
  std::vector<SweepPoint> points;
  const char* protocols[] = {"2PC", "Lion"};
  const double ratios[] = {0.0, 0.2, 0.5, 0.8};
  for (const char* p : protocols) {
    for (double r : ratios) {
      ExperimentConfig cfg = EvalConfig(p);
      cfg.workload = "ycsb";
      cfg.ycsb.cross_ratio = r;
      cfg.ycsb.skew_factor = 0.8;
      cfg.warmup = fast ? 100 * kMillisecond : 300 * kMillisecond;
      cfg.duration = fast ? 300 * kMillisecond : 1 * kSecond;
      char name[64];
      std::snprintf(name, sizeof(name), "%s/cross=%d", p,
                    static_cast<int>(r * 100));
      points.push_back(SweepPoint{name, cfg});
    }
  }
  return points;
}

SweepScaling RunSweepScaling(bool fast, int max_threads) {
  SweepScaling out;
  std::vector<SweepPoint> grid = SweepGrid(fast);
  out.configs = grid.size();

  std::string json_t1;
  for (int threads : {1, 2, 4, max_threads}) {
    if (threads > max_threads) continue;
    if (std::find(out.threads.begin(), out.threads.end(), threads) !=
        out.threads.end()) {
      continue;  // max_threads may coincide with 1, 2 or 4
    }
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    for (const SweepPoint& p : grid) runner.Add(p);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<SweepOutcome> outcomes = runner.Run();
    double wall = WallSeconds(t0);
    out.threads.push_back(threads);
    out.wall_s.push_back(wall);
    std::string merged = SweepRunner::MergeJson(outcomes);
    if (threads == 1) {
      json_t1 = merged;
      out.deterministic = true;
    } else {
      out.deterministic = out.deterministic && (merged == json_t1);
    }
    std::printf("sweep: %zu configs, threads=%d, wall=%.2fs\n", grid.size(),
                threads, wall);
  }
  return out;
}

// --- JSON emission -----------------------------------------------------------

void AppendKv(std::string* out, const char* key, double v, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += buf;
}

void AppendKv(std::string* out, const char* key, uint64_t v, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += std::to_string(v);
}

void AppendKv(std::string* out, const char* key, const std::string& v,
              bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":\"";
  AppendJsonEscaped(out, v);  // --label is arbitrary user text
  *out += "\"";
}

void AppendKv(std::string* out, const char* key, bool v, bool* first) {
  if (!*first) *out += ",";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\":";
  *out += v ? "true" : "false";
}

}  // namespace
}  // namespace lion

int main(int argc, char** argv) {
  using namespace lion;

  std::string out_path = "BENCH_sim_hotpath.json";
  std::string label = "current";
  uint64_t churn_events = 4'000'000;
  bool fast = false;
  bool run_sweep = true;
  bool run_sched = true;
  bool run_pred = true;
  int max_threads = static_cast<int>(std::thread::hardware_concurrency());
  if (max_threads < 1) max_threads = 1;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--out=", 6) == 0) {
      out_path = a + 6;
    } else if (std::strncmp(a, "--events=", 9) == 0) {
      churn_events = std::strtoull(a + 9, nullptr, 10);
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      // Clamp: 0 (or garbage) would skip every calibrated thread count in
      // the sweep loop and falsely report a determinism mismatch.
      max_threads = std::max(1, std::atoi(a + 10));
    } else if (std::strncmp(a, "--label=", 8) == 0) {
      label = a + 8;
    } else if (std::strcmp(a, "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(a, "--no-sweep") == 0) {
      run_sweep = false;
    } else if (std::strcmp(a, "--no-sched") == 0) {
      run_sched = false;
    } else if (std::strcmp(a, "--no-pred") == 0) {
      run_pred = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return 1;
    }
  }
  if (fast) churn_events = std::min<uint64_t>(churn_events, 1'000'000);

  std::printf("== sim hot path baseline (%s mode) ==\n", fast ? "fast" : "full");

  ChurnResult churn = EventChurn(churn_events);
  std::printf("event_churn: %llu events in %.3fs -> %.2f M events/s\n",
              static_cast<unsigned long long>(churn.events), churn.wall_s,
              churn.events_per_sec / 1e6);

  std::vector<SchedCell> sched_cells;
  if (run_sched) sched_cells = RunSchedulerChurn(fast);

  std::vector<MacroResult> macros;
  macros.push_back(RunMacro("ycsb_lion", YcsbLion(fast)));
  macros.push_back(RunMacro("tpcc_2pc", Tpcc2Pc(fast)));
  macros.push_back(RunMacro("meta_drift", MetaDrift(fast)));
  macros.push_back(RunMacro("chaos_recovery", ChaosRecovery(fast)));
  for (const MacroResult& m : macros) {
    std::printf("%s: %llu events, %llu committed, %.3fs wall -> %.2f M events/s"
                " (%.1f ktxn/s)\n",
                m.name.c_str(), static_cast<unsigned long long>(m.events),
                static_cast<unsigned long long>(m.committed), m.wall_s,
                m.events_per_sec / 1e6, m.throughput / 1000.0);
  }

  std::vector<PredAblationResult> pred_ablation;
  if (run_pred) pred_ablation = RunPredictorAblation(fast);

  SweepScaling sweep;
  if (run_sweep) {
    sweep = RunSweepScaling(fast, max_threads);
    if (!sweep.wall_s.empty()) {
      double base = sweep.wall_s.front();
      std::printf("sweep determinism: %s; speedup at max threads: %.2fx\n",
                  sweep.deterministic ? "OK" : "MISMATCH",
                  base / sweep.wall_s.back());
    }
  }

  // Emit the JSON document.
  std::string json = "{";
  bool first = true;
  AppendKv(&json, "bench", std::string("sim_hotpath"), &first);
  AppendKv(&json, "label", label, &first);
  AppendKv(&json, "mode", std::string(fast ? "fast" : "full"), &first);
  AppendKv(&json, "hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()), &first);
  json += ",\"event_churn\":{";
  bool f2 = true;
  AppendKv(&json, "events", churn.events, &f2);
  AppendKv(&json, "wall_s", churn.wall_s, &f2);
  AppendKv(&json, "events_per_sec", churn.events_per_sec, &f2);
  json += "}";
  if (!sched_cells.empty()) {
    json += ",\"scheduler_churn\":[";
    for (size_t i = 0; i < sched_cells.size(); ++i) {
      const SchedCell& c = sched_cells[i];
      if (i > 0) json += ",";
      json += "{";
      bool fc = true;
      AppendKv(&json, "dist", c.dist, &fc);
      AppendKv(&json, "depth", static_cast<uint64_t>(c.depth), &fc);
      AppendKv(&json, "heap_eps", c.heap_eps, &fc);
      AppendKv(&json, "calendar_eps", c.calendar_eps, &fc);
      AppendKv(&json, "speedup", c.speedup, &fc);
      AppendKv(&json, "digest_match", c.digest_match, &fc);
      json += "}";
    }
    json += "]";
  }
  json += ",\"experiments\":[";
  for (size_t i = 0; i < macros.size(); ++i) {
    const MacroResult& m = macros[i];
    if (i > 0) json += ",";
    json += "{";
    bool f3 = true;
    AppendKv(&json, "name", m.name, &f3);
    AppendKv(&json, "events", m.events, &f3);
    AppendKv(&json, "committed", m.committed, &f3);
    AppendKv(&json, "wall_s", m.wall_s, &f3);
    AppendKv(&json, "events_per_sec", m.events_per_sec, &f3);
    AppendKv(&json, "throughput_txn_s", m.throughput, &f3);
    json += "}";
  }
  json += "]";
  if (!pred_ablation.empty()) {
    json += ",\"predictor_ablation\":[";
    for (size_t i = 0; i < pred_ablation.size(); ++i) {
      const PredAblationResult& r = pred_ablation[i];
      if (i > 0) json += ",";
      json += "{";
      bool fp = true;
      AppendKv(&json, "kind", r.kind, &fp);
      AppendKv(&json, "committed", r.committed, &fp);
      AppendKv(&json, "events", r.events, &fp);
      AppendKv(&json, "wall_s", r.wall_s, &fp);
      AppendKv(&json, "events_per_sec", r.events_per_sec, &fp);
      AppendKv(&json, "throughput_txn_s", r.throughput, &fp);
      json += "}";
    }
    json += "]";
  }
  if (run_sweep && !sweep.wall_s.empty()) {
    json += ",\"sweep\":{";
    bool f4 = true;
    AppendKv(&json, "configs", static_cast<uint64_t>(sweep.configs), &f4);
    AppendKv(&json, "deterministic", sweep.deterministic, &f4);
    json += ",\"runs\":[";
    for (size_t i = 0; i < sweep.threads.size(); ++i) {
      if (i > 0) json += ",";
      json += "{";
      bool f5 = true;
      AppendKv(&json, "threads", static_cast<uint64_t>(sweep.threads[i]), &f5);
      AppendKv(&json, "wall_s", sweep.wall_s[i], &f5);
      AppendKv(&json, "speedup_vs_1t", sweep.wall_s.front() / sweep.wall_s[i],
               &f5);
      json += "}";
    }
    json += "]}";
  }
  json += "}\n";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Throughput is advisory (machines jitter); digest equality is not — a
  // heap/calendar divergence is a determinism bug and fails the run.
  for (const SchedCell& c : sched_cells) {
    if (!c.digest_match) {
      std::fprintf(stderr,
                   "scheduler digest mismatch at dist=%s depth=%d — heap and "
                   "calendar popped different orders\n",
                   c.dist.c_str(), c.depth);
      return 1;
    }
  }
  return 0;
}
