// End-to-end experiment harness: an Experiment owns the full component
// lifecycle (simulator, cluster, metrics, protocol, workload); an
// ExperimentBuilder validates a declarative config against the registries
// and assembles the Experiment. Protocols and workloads are resolved by
// name through ProtocolRegistry / WorkloadRegistry — adding one is a
// one-file operation with no harness edits.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/driver.h"
#include "harness/experiment_config.h"
#include "harness/registry.h"
#include "metrics/metrics.h"
#include "protocols/protocol.h"
#include "replication/cluster.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace lion {

class ChaosController;
class CommitLedger;
class MetaProtocol;
struct RecoverySection;

/// What a fault schedule did to the run. Present only when one ran.
struct ChaosSection {
  /// Transactions given up on after the bounded unavailability retries.
  uint64_t aborted_unavailable = 0;
  uint64_t failovers = 0;
  uint64_t elections_rerun = 0;
  uint64_t messages_dropped = 0;
  /// Commit fraction per stats window (1.0 in quiet windows) — the
  /// availability series of the chaos timeline figure.
  std::vector<double> window_availability;
  struct FaultEvent {
    double t_ms = 0.0;
    std::string description;
  };
  /// Every fired schedule event, stamped with its simulated time.
  std::vector<FaultEvent> fault_events;
  uint64_t integrity_violations = 0;
  uint64_t integrity_partitions_checked = 0;
  uint64_t integrity_writes_checked = 0;
  /// Ledger writes re-verified against the recovery log's reconstruction
  /// (emitted only when the recovery section is present).
  uint64_t integrity_log_writes_checked = 0;
  /// First few violation messages (diagnostics; empty on a clean run).
  std::vector<std::string> integrity_messages;

  /// Appends the section's members to an open JSON object. The integrity
  /// block carries the recovery-only members when `recovery` is non-null.
  void AppendJson(std::string* json, const RecoverySection* recovery) const;
};

/// The durable replication log's record of the run. Present only when
/// recovery.enabled.
struct RecoverySection {
  /// Committed writes appended to the durable replication log.
  uint64_t log_entries = 0;
  /// Entries discarded by dirty crashes (never reached stable storage).
  uint64_t log_entries_lost = 0;
  uint64_t log_snapshots = 0;
  /// Node recoveries that replayed a durable log (vs rejoining empty).
  uint64_t recoveries_replayed = 0;
  uint64_t catch_ups_completed = 0;
  /// Log entries streamed by catch-up shipments.
  uint64_t catch_up_entries = 0;
  /// Last-resort elections of a stale (behind-durable or still-recovering)
  /// copy; also emitted inside the chaos integrity block.
  uint64_t stale_elections = 0;
  struct CatchUpEvent {
    double t_ms = 0.0;  // completion time
    int node = 0;
    int partition = 0;
    double duration_ms = 0.0;
    uint64_t entries = 0;
  };
  std::vector<CatchUpEvent> catch_up_events;
  struct RecoveryEvent {
    double t_ms = 0.0;  // completion time (last catch-up settled)
    int node = 0;
    double duration_ms = 0.0;
    int partitions = 0;
  };
  std::vector<RecoveryEvent> recovery_events;

  void AppendJson(std::string* json) const;
};

/// The meta protocol's routing record. Present only when the run's
/// protocol was "meta".
struct MetaSection {
  /// Child protocol names, assignment-index order (baseline first).
  std::vector<std::string> children;
  /// Partitions per child under the final assignment, same order.
  std::vector<uint64_t> assignment;
  struct ProtocolSwitchEvent {
    double t_ms = 0.0;
    int partition = 0;
    std::string from;
    std::string to;
  };
  /// Every completed per-partition flip, stamped with its simulated time
  /// (warmup and post-run drain included).
  std::vector<ProtocolSwitchEvent> protocol_switches;

  void AppendJson(std::string* json) const;
};

/// Everything measured in one run.
struct ExperimentResult {
  std::string protocol;
  std::string workload;
  uint64_t seed = 1;
  double throughput = 0.0;  // committed txns / measured second
  uint64_t committed = 0;
  uint64_t aborts = 0;
  uint64_t single_node = 0;
  uint64_t remastered = 0;
  uint64_t distributed = 0;
  double p10_us = 0.0, p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  PhaseBreakdown breakdown;
  /// Throughput per stats window over the whole run (incl. warmup).
  std::vector<double> window_throughput;
  /// Network bytes per committed txn, per stats window.
  std::vector<double> window_bytes_per_txn;
  double bytes_per_txn = 0.0;
  uint64_t remasters = 0;
  uint64_t migrations = 0;
  uint64_t migrated_bytes = 0;
  SimTime window = 0;

  // Subsystem sections. Each is present only when its subsystem ran and
  // emits nothing when absent, so a run with the subsystem off produces the
  // same JSON as a build without it.
  std::optional<ChaosSection> chaos;
  std::optional<RecoverySection> recovery;
  std::optional<MetaSection> meta;

  /// Structured emission: one self-contained JSON object with every field
  /// above (series included), for dashboards and sweep post-processing.
  std::string ToJson() const;
};

/// Snapshot of one closed stats window, delivered to OnWindow callbacks
/// while the experiment runs.
struct WindowStats {
  size_t index = 0;
  SimTime end_time = 0;
  double throughput = 0.0;      // txn/s committed in this window
  double bytes_per_txn = 0.0;   // network bytes per commit in this window
};

using WindowCallback = std::function<void(const WindowStats&)>;

/// One fully assembled run. Owns every component — simulator, cluster,
/// metrics, protocol (which in turn owns its predictor) and workload — and
/// drives the protocol lifecycle (Start/Stop) around the measured interval.
/// Obtain instances from ExperimentBuilder::Build; Run() executes the
/// warmup + measurement schedule and gathers the result. Components stay
/// accessible afterwards for inspection (tests, invariant checks).
class Experiment {
 public:
  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs warmup + measurement to completion. Single-shot: the second call
  /// returns the first run's result unchanged.
  ExperimentResult Run();

  const ExperimentConfig& config() const { return config_; }
  Simulator* sim() { return sim_.get(); }
  Cluster* cluster() { return cluster_.get(); }
  MetricsCollector* metrics() { return metrics_.get(); }
  Protocol* protocol() { return protocol_.get(); }
  WorkloadGenerator* workload() { return workload_.get(); }
  /// Non-null only when the config carries a chaos schedule.
  ChaosController* chaos() { return chaos_.get(); }
  int concurrency() const { return concurrency_; }

 private:
  friend class ExperimentBuilder;
  Experiment() = default;

  void ScheduleWindowTick(size_t index);
  const std::vector<uint64_t>& network_window_bytes() const;
  ExperimentResult Collect();
  ChaosSection CollectChaos();
  RecoverySection CollectRecovery();
  MetaSection CollectMeta(const MetaProtocol& meta);

  ExperimentConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<WorkloadGenerator> workload_;
  // Chaos machinery, created only for configs with a fault schedule.
  std::unique_ptr<ChaosController> chaos_;
  std::unique_ptr<CommitLedger> ledger_;
  // Owned (not Run-local): in-flight completion closures reference the
  // driver, and the simulator they sit in outlives Run().
  std::unique_ptr<ClosedLoopDriver> driver_;
  std::vector<WindowCallback> window_callbacks_;
  int concurrency_ = 0;
  bool ran_ = false;
  ExperimentResult result_;
};

/// Fluent assembly of an Experiment:
///
///   ExperimentResult res;
///   Status status = ExperimentBuilder()
///                       .Protocol("Lion")
///                       .Workload("ycsb")
///                       .Duration(2 * kSecond)
///                       .Run(&res);
///
/// (Build(&experiment) instead of Run(&res) to own the assembled
/// Experiment and drive it manually.) Build validates the whole config
/// (names against the registries, sane timing/topology) and reports
/// problems as Status instead of crashing.
class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;
  /// Seeds every knob from an existing config (sweep loops mutate a base).
  explicit ExperimentBuilder(ExperimentConfig config)
      : config_(std::move(config)) {}

  ExperimentBuilder& Protocol(std::string name) {
    config_.protocol = std::move(name);
    return *this;
  }
  ExperimentBuilder& Workload(std::string name) {
    config_.workload = std::move(name);
    return *this;
  }
  ExperimentBuilder& Cluster(const ClusterConfig& cluster) {
    config_.cluster = cluster;
    return *this;
  }
  ExperimentBuilder& Ycsb(const YcsbConfig& ycsb) {
    config_.ycsb = ycsb;
    return *this;
  }
  ExperimentBuilder& Tpcc(const TpccConfig& tpcc) {
    config_.tpcc = tpcc;
    return *this;
  }
  ExperimentBuilder& Lion(const LionOptions& lion) {
    config_.lion = lion;
    return *this;
  }
  ExperimentBuilder& Predictor(const PredictorConfig& predictor) {
    config_.predictor = predictor;
    return *this;
  }
  ExperimentBuilder& Clay(const ClayConfig& clay) {
    config_.clay = clay;
    return *this;
  }
  ExperimentBuilder& DynamicPeriod(SimTime period) {
    config_.dynamic_period = period;
    return *this;
  }
  ExperimentBuilder& Warmup(SimTime warmup) {
    config_.warmup = warmup;
    return *this;
  }
  ExperimentBuilder& Duration(SimTime duration) {
    config_.duration = duration;
    return *this;
  }
  ExperimentBuilder& Seed(uint64_t seed) {
    config_.seed = seed;
    return *this;
  }
  ExperimentBuilder& Concurrency(int concurrency) {
    config_.concurrency = concurrency;
    return *this;
  }
  /// Registers a per-window metrics callback, invoked live at every closed
  /// stats window during Run(). May be called multiple times.
  ExperimentBuilder& OnWindow(WindowCallback callback) {
    window_callbacks_.push_back(std::move(callback));
    return *this;
  }

  /// Escape hatch for knobs without a dedicated setter.
  ExperimentConfig& config() { return config_; }
  const ExperimentConfig& config() const { return config_; }

  /// Validates the config; OK iff Build would succeed.
  Status Validate() const;

  /// Validates and assembles the full experiment.
  Status Build(std::unique_ptr<Experiment>* out) const;

  /// Build + Run in one step.
  Status Run(ExperimentResult* out) const;

 private:
  ExperimentConfig config_;
  std::vector<WindowCallback> window_callbacks_;
};

}  // namespace lion
