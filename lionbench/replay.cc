// Layer replay: times each layer's public functions in isolation, on a
// transaction stream drawn from the workload's own generator and seed and
// against a cluster built from the workload's config. Only the benchmark's
// files are instrumented; the engine is called through its public API.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/planner.h"
#include "core/txn_router.h"
#include "ml/lstm.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"
#include "txn/occ.h"
#include "txn/two_phase_engine.h"

namespace lionbench {

namespace {

using lion::PartitionId;
using lion::SimTime;
using Clock = std::chrono::steady_clock;

constexpr size_t kStreamTxns = 20000;
constexpr size_t kEngineTxns = 2000;
constexpr int kPasses = 3;

// Results of timed calls land here so the calls cannot be optimized away.
volatile double g_sink = 0;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Stream {
  std::vector<lion::TxnPtr> txns;
  std::vector<std::vector<PartitionId>> parts;
  std::vector<SimTime> at;
};

// Transactions spread evenly over the run's simulated timeline, so dynamic
// workloads contribute every phase.
Stream DrawStream(lion::WorkloadGenerator* generator, uint64_t seed, size_t n,
                  SimTime timeline) {
  Stream s;
  lion::Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    SimTime at = timeline * static_cast<SimTime>(i) / static_cast<SimTime>(n);
    s.txns.push_back(generator->Next(static_cast<lion::TxnId>(i + 1), at, &rng));
    s.parts.push_back(s.txns.back()->Partitions());
    s.at.push_back(at);
  }
  return s;
}

std::unique_ptr<lion::Experiment> BuildOrDie(const lion::ExperimentConfig& cfg) {
  std::unique_ptr<lion::Experiment> ex;
  lion::Status s = lion::ExperimentBuilder(cfg).Build(&ex);
  if (!s.ok()) {
    std::fprintf(stderr, "replay build failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return ex;
}

// Occ::ReadOps is timed as one batch per pass; validation and apply are
// timed per transaction (re-reading first, so every validation succeeds and
// every write is installed, appended to the replication log and, when
// attached, the durable recovery log).
void ReplayOcc(lion::Cluster* cluster, Stream* s,
               std::map<std::string, double>* out) {
  double read_ns = 0, validate_ns = 0, apply_ns = 0;
  uint64_t calls = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto t0 = Clock::now();
    for (size_t i = 0; i < s->txns.size(); ++i) {
      for (PartitionId p : s->parts[i]) {
        lion::Occ::ReadOps(cluster->store(p), s->txns[i].get());
      }
    }
    read_ns += NsSince(t0);
    for (size_t i = 0; i < s->txns.size(); ++i) {
      lion::Transaction* txn = s->txns[i].get();
      const std::vector<PartitionId>& parts = s->parts[i];
      for (PartitionId p : parts) lion::Occ::ReadOps(cluster->store(p), txn);
      auto tv = Clock::now();
      bool ok = true;
      for (PartitionId p : parts) {
        ok = lion::Occ::ValidateAndLock(cluster->store(p), txn) && ok;
      }
      validate_ns += NsSince(tv);
      auto ta = Clock::now();
      for (PartitionId p : parts) {
        if (ok) {
          lion::Occ::ApplyAndUnlock(cluster->store(p), txn,
                                    &cluster->replication());
        } else {
          lion::Occ::ReleaseLocks(cluster->store(p), txn);
        }
      }
      apply_ns += NsSince(ta);
      calls += parts.size();
    }
  }
  (*out)["storage_occ.read_ns"] = read_ns / static_cast<double>(calls);
  (*out)["storage_occ.validate_ns"] = validate_ns / static_cast<double>(calls);
  (*out)["storage_occ.apply_ns"] = apply_ns / static_cast<double>(calls);
}

// TwoPhaseEngine::Run through drain, split by whether every touched primary
// sits on the coordinator (the one-shot single-node path) or not (2PC).
void ReplayEngine(lion::Experiment* ex, Stream* s,
                  std::map<std::string, double>* out) {
  lion::Cluster* cluster = ex->cluster();
  cluster->Start();
  lion::TwoPhaseEngine engine(cluster, ex->metrics());
  double ns[2] = {0, 0};
  uint64_t count[2] = {0, 0};
  const int nodes = cluster->num_nodes();
  for (size_t i = 0; i < s->txns.size(); ++i) {
    std::vector<int> primaries(static_cast<size_t>(nodes), 0);
    for (PartitionId p : s->parts[i]) primaries[cluster->PrimaryOf(p)]++;
    lion::NodeId coord = static_cast<lion::NodeId>(
        std::max_element(primaries.begin(), primaries.end()) - primaries.begin());
    const int cls = primaries[coord] == static_cast<int>(s->parts[i].size()) ? 0 : 1;
    auto t0 = Clock::now();
    engine.Run(s->txns[i].get(), coord, lion::TwoPhaseEngine::Options{},
               [](bool) {});
    ex->sim()->RunUntilIdle();
    ns[cls] += NsSince(t0);
    count[cls]++;
  }
  (*out)["txn.engine_single_us"] =
      count[0] > 0 ? ns[0] / 1e3 / static_cast<double>(count[0]) : 0.0;
  (*out)["txn.engine_distributed_us"] =
      count[1] > 0 ? ns[1] / 1e3 / static_cast<double>(count[1]) : 0.0;
}

// Hold model: a fixed backlog of events, each rescheduling one successor at
// a random delay, drained with RunUntil.
struct HoldEvent {
  lion::Simulator* sim;
  lion::Rng* rng;
  uint64_t* left;
  void operator()() {
    if (*left == 0) return;
    --*left;
    sim->Schedule(1 + static_cast<SimTime>(rng->Uniform(100000)),
                  HoldEvent{sim, rng, left});
  }
};

double ReplayScheduler(const lion::ExperimentConfig& cfg) {
  constexpr uint64_t kEvents = 1000000;
  lion::Simulator sim(cfg.seed, cfg.sim);
  lion::Rng rng(cfg.seed);
  uint64_t left = kEvents;
  const int backlog = cfg.cluster.num_nodes * cfg.cluster.workers_per_node * 16;
  auto t0 = Clock::now();
  for (int i = 0; i < backlog; ++i) {
    sim.Schedule(static_cast<SimTime>(rng.Uniform(100000)),
                 HoldEvent{&sim, &rng, &left});
  }
  sim.RunUntil(1000 * lion::kSecond);
  return NsSince(t0) / static_cast<double>(kEvents + backlog);
}

// Network::Send plus delivery, in bursts of one message per simulated
// client between random distinct nodes.
double ReplayNetwork(const lion::ExperimentConfig& cfg) {
  constexpr int kMessages = 200000;
  lion::Simulator sim(cfg.seed, cfg.sim);
  const int nodes = cfg.cluster.num_nodes;
  lion::Network net(&sim, cfg.cluster.net, nodes);
  lion::Rng rng(cfg.seed);
  const int burst = nodes * cfg.cluster.workers_per_node;
  uint64_t delivered = 0;
  auto t0 = Clock::now();
  for (int sent = 0; sent < kMessages; sent += burst) {
    for (int j = 0; j < burst; ++j) {
      lion::NodeId from = static_cast<lion::NodeId>(rng.Uniform(nodes));
      lion::NodeId to = static_cast<lion::NodeId>(
          (from + 1 + static_cast<int>(rng.Uniform(nodes - 1))) % nodes);
      net.Send(from, to, 256, [&delivered]() { delivered++; });
    }
    sim.RunUntilIdle();
  }
  return NsSince(t0) / static_cast<double>(delivered);
}

// WorkerPool::Submit in a closed loop that keeps twice the workers busy.
double ReplayWorkerPool(const lion::ExperimentConfig& cfg) {
  constexpr uint64_t kTasks = 500000;
  lion::Simulator sim(cfg.seed, cfg.sim);
  lion::WorkerPool pool(&sim, cfg.cluster.workers_per_node);
  const SimTime cost = cfg.cluster.txn_setup_cost;
  uint64_t submitted = 0;
  struct Resubmit {
    lion::WorkerPool* pool;
    SimTime cost;
    uint64_t* submitted;
    void operator()() {
      if (*submitted >= kTasks) return;
      ++*submitted;
      pool->Submit(lion::TaskPriority::kNew, cost, Resubmit{pool, cost, submitted});
    }
  };
  auto t0 = Clock::now();
  for (int i = 0; i < 2 * cfg.cluster.workers_per_node; ++i) {
    Resubmit{&pool, cost, &submitted}();
  }
  sim.RunUntilIdle();
  return NsSince(t0) / static_cast<double>(submitted);
}

void ReplayLionCore(lion::Experiment* ex, const Stream& s,
                    std::map<std::string, double>* out) {
  const lion::ExperimentConfig& cfg = ex->config();
  lion::Cluster* cluster = ex->cluster();
  const double calls = static_cast<double>(s.parts.size() * kPasses);

  lion::TxnRouter router(cluster, cfg.lion.cost);
  uint64_t routed = 0;
  auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& parts : s.parts) routed += router.Route(parts);
  }
  (*out)["core.route_ns"] = NsSince(t0) / calls;
  g_sink = static_cast<double>(routed);

  lion::Planner planner(cluster, cfg.lion.planner, nullptr);
  t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < s.parts.size(); ++i) planner.RecordTxn(s.parts[i], s.at[i]);
  }
  (*out)["core.planner_record_ns"] = NsSince(t0) / calls;

  double round_ns = 0;
  for (int round = 0; round < kPasses; ++round) {
    t0 = Clock::now();
    planner.RunOnce();
    round_ns += NsSince(t0);
    ex->sim()->RunUntilIdle();  // let the dispatched plan settle, untimed
  }
  (*out)["core.planner_round_ms"] = round_ns / 1e6 / kPasses;

  // The predictor's model on the stream's own arrival-rate shape: the share
  // of multi-partition transactions per sampling interval, normalized.
  const size_t window = cfg.predictor.class_window;
  std::vector<double> series(window, 0.0);
  for (size_t i = 0; i < s.parts.size(); ++i) {
    if (s.parts[i].size() > 1) series[i * window / s.parts.size()] += 1.0;
  }
  const double peak = std::max(1.0, *std::max_element(series.begin(), series.end()));
  for (double& v : series) v /= peak;
  lion::LstmNetwork lstm(cfg.predictor.lstm, cfg.seed);
  t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    lstm.Train(series, cfg.predictor.train_epochs);
  }
  (*out)["ml.lstm_train_ms"] = NsSince(t0) / 1e6 / kPasses;
  const size_t history = std::min(series.size(),
                                  static_cast<size_t>(cfg.predictor.history_window));
  std::vector<double> input(series.end() - static_cast<long>(history), series.end());
  constexpr int kForecasts = 200;
  double forecast = 0;
  t0 = Clock::now();
  for (int i = 0; i < kForecasts; ++i) {
    forecast += lstm.Forecast(input, cfg.predictor.horizon).back();
  }
  (*out)["ml.lstm_forecast_us"] = NsSince(t0) / 1e3 / kForecasts;
  g_sink = forecast;
}

}  // namespace

std::map<std::string, double> RunLayerReplay(const lion::ExperimentConfig& cfg,
                                             bool lion_layers) {
  std::map<std::string, double> out;
  const SimTime timeline = cfg.warmup + cfg.duration;

  std::unique_ptr<lion::Experiment> ex = BuildOrDie(cfg);
  Stream stream = DrawStream(ex->workload(), cfg.seed, kStreamTxns, timeline);
  ReplayOcc(ex->cluster(), &stream, &out);
  if (lion_layers) ReplayLionCore(ex.get(), stream, &out);

  // A fresh cluster for the engine: the planner rounds above moved replicas.
  ex = BuildOrDie(cfg);
  Stream engine_stream =
      DrawStream(ex->workload(), cfg.seed + 1, kEngineTxns, timeline);
  ReplayEngine(ex.get(), &engine_stream, &out);

  out["sim.schedule_run_ns"] = ReplayScheduler(cfg);
  out["network.send_ns"] = ReplayNetwork(cfg);
  out["worker_pool.submit_ns"] = ReplayWorkerPool(cfg);
  return out;
}

}  // namespace lionbench
