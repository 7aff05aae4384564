// The benchmark's three workloads. Each one isolates a layer; README.md
// gives the rationale and the probe numbers behind every setting.
#include <string>

#include "bench.h"

namespace lionbench {

using lion::ExperimentConfig;
using lion::kMillisecond;
using lion::kMicrosecond;

namespace {

// The evaluation cluster (4 nodes x 8 workers, 12 partitions per node, two
// initial replicas) with the planner/predictor cadence of the paper figures.
// The closed loop runs nodes x workers = 32 simulated clients.
ExperimentConfig Base(const char* protocol, const char* workload,
                      uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.lion.planner.interval = 250 * kMillisecond;
  cfg.lion.planner.min_history = 64;
  cfg.predictor.kind = "lstm";
  cfg.predictor.sample_interval = 100 * kMillisecond;
  cfg.predictor.train_epochs = 5;
  cfg.cluster.remaster_base_delay = 3000 * kMicrosecond;
  return cfg;
}

// Lion on the position-cycling hotspot (Fig. 8b): the planner, predictor,
// remastering and migration do their work while almost every commit stays
// single-node. Ten periods per sub-run, so each of the four phases appears
// twice in the measured window.
ExperimentConfig HotspotLion(uint64_t seed) {
  ExperimentConfig cfg = Base("Lion", "ycsb-hotspot-position", seed);
  cfg.dynamic_period = 250 * kMillisecond;
  cfg.warmup = 500 * kMillisecond;
  cfg.duration = 2000 * kMillisecond;
  return cfg;
}

// 2PC on static skewed YCSB: every cross-partition transaction takes the
// distributed prepare/commit path. No planner or predictor exists, so this
// is the bypass workload for Lion's own layers. The cross ratio sits just
// under one half so the median commit stays inside the single-node latency
// mode instead of flipping between the two modes from seed to seed.
ExperimentConfig Ycsb2Pc(uint64_t seed) {
  ExperimentConfig cfg = Base("2PC", "ycsb", seed);
  cfg.ycsb.cross_ratio = 0.45;
  cfg.ycsb.skew_factor = 0.8;
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 700 * kMillisecond;
  return cfg;
}

// Lion on the full TPC-C mix with the durable recovery log attached: inserts
// grow the sparse record tables, writes take locks and append to the log,
// and contention aborts about a fifth of the attempts.
ExperimentConfig TpccLionDurable(uint64_t seed) {
  ExperimentConfig cfg = Base("Lion", "tpcc", seed);
  cfg.cluster.partitions_per_node = 4;  // 4 warehouses per node
  cfg.tpcc.remote_ratio = 0.5;
  cfg.tpcc.skew_factor = 0.8;
  cfg.tpcc.payment_ratio = 0.43;
  cfg.tpcc.delivery_ratio = 0.04;
  cfg.tpcc.order_status_ratio = 0.04;
  cfg.tpcc.stock_level_ratio = 0.04;  // NewOrder takes the remaining 45%
  cfg.recovery.enabled = true;
  cfg.recovery.durability_lag = 1 * kMillisecond;
  cfg.recovery.snapshot_interval = 500 * kMillisecond;
  // Short sub-runs: Lion's rare distributed fallbacks cluster in the first
  // few hundred milliseconds of adaptation, so many short sub-runs measure
  // them far more steadily per host second than a few long ones.
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 500 * kMillisecond;
  return cfg;
}

const Workload kWorkloads[] = {
    {"hotspot_lion", 8, HotspotLion},
    {"ycsb_2pc", 8, Ycsb2Pc},
    {"tpcc_lion_durable", 44, TpccLionDurable},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

// splitmix64 over (seed, index). The engine's PCG streams for neighbouring
// seeds are correlated, so plain seed + index made a run's sub-runs vary
// together and pooling them steadied little.
uint64_t SubSeed(uint64_t seed, int index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace lionbench
