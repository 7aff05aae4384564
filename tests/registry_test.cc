// Tests for the self-registering protocol/workload factories: name
// resolution, execution-mode traits, Status-based error handling, and
// zero-harness-edit extension with a dummy protocol.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/predictor_interface.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "protocols/protocol.h"
#include "workload/workload.h"

namespace lion {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 2;
  cfg.cluster.partitions_per_node = 2;
  cfg.cluster.records_per_partition = 500;
  cfg.warmup = 100 * kMillisecond;
  cfg.duration = 300 * kMillisecond;
  return cfg;
}

// The classification IsBatchProtocol used to hard-code, now a per-entry
// registry trait.
const char* kBatchNames[] = {"Star",     "Calvin",  "Hermes", "Aria",
                             "Lotus",    "Lion(RB)", "Lion(B)"};
const char* kStandardNames[] = {"2PC",      "Leap",    "Clay",
                                "Lion",     "Lion(S)", "Lion(R)",
                                "Lion(SW)", "Lion(RW)"};

TEST(ProtocolRegistryTest, AllProtocolNamesResolve) {
  ExperimentConfig cfg = SmallConfig();
  Simulator sim;
  Cluster cluster(&sim, cfg.cluster);
  MetricsCollector metrics;
  ProtocolContext ctx{cfg, &cluster, &metrics};
  for (const char* name : kBatchNames) {
    std::unique_ptr<Protocol> protocol;
    Status s = ProtocolRegistry::Global().Create(name, ctx, &protocol);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(protocol, nullptr) << name;
  }
  for (const char* name : kStandardNames) {
    std::unique_ptr<Protocol> protocol;
    Status s = ProtocolRegistry::Global().Create(name, ctx, &protocol);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(protocol, nullptr) << name;
  }
}

TEST(ProtocolRegistryTest, ExecutionModeTraitsMatchOldClassification) {
  for (const char* name : kBatchNames) {
    EXPECT_TRUE(ProtocolRegistry::Global().IsBatch(name)) << name;
    ExecutionMode mode;
    ASSERT_TRUE(ProtocolRegistry::Global().Mode(name, &mode).ok()) << name;
    EXPECT_EQ(mode, ExecutionMode::kBatch) << name;
  }
  for (const char* name : kStandardNames) {
    EXPECT_FALSE(ProtocolRegistry::Global().IsBatch(name)) << name;
    ExecutionMode mode;
    ASSERT_TRUE(ProtocolRegistry::Global().Mode(name, &mode).ok()) << name;
    EXPECT_EQ(mode, ExecutionMode::kStandard) << name;
  }
}

TEST(ProtocolRegistryTest, NamesEnumeratesEverythingSorted) {
  std::vector<std::string> names = ProtocolRegistry::Global().Names();
  EXPECT_GE(names.size(), 15u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name : kBatchNames) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  for (const char* name : kStandardNames) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(ProtocolRegistryTest, UnknownNameReturnsNotFoundWithKnownNames) {
  ExperimentConfig cfg = SmallConfig();
  ProtocolContext ctx{cfg, nullptr, nullptr};
  std::unique_ptr<Protocol> protocol;
  Status s = ProtocolRegistry::Global().Create("Spanner", ctx, &protocol);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(protocol, nullptr);
  // The message lists known names so a typo is self-diagnosing.
  EXPECT_NE(s.message().find("2PC"), std::string::npos) << s.message();

  ExecutionMode mode;
  EXPECT_TRUE(ProtocolRegistry::Global().Mode("Spanner", &mode).IsNotFound());
  EXPECT_FALSE(ProtocolRegistry::Global().IsBatch("Spanner"));
  EXPECT_FALSE(ProtocolRegistry::Global().Contains("Spanner"));
}

TEST(ProtocolRegistryTest, DuplicateRegistrationRejected) {
  Status s = ProtocolRegistry::Global().Register(
      "2PC", ExecutionMode::kStandard,
      [](const ProtocolContext&) -> std::unique_ptr<Protocol> {
        return nullptr;
      });
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
}

TEST(WorkloadRegistryTest, AllWorkloadNamesResolve) {
  ExperimentConfig cfg = SmallConfig();
  Simulator sim;
  Cluster cluster(&sim, cfg.cluster);
  for (const char* name : {"ycsb", "tpcc", "ycsb-hotspot-interval",
                           "ycsb-hotspot-position"}) {
    WorkloadContext ctx{cfg, &cluster};
    std::unique_ptr<WorkloadGenerator> workload;
    Status s = WorkloadRegistry::Global().Create(name, ctx, &workload);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(workload, nullptr) << name;
  }
}

TEST(WorkloadRegistryTest, UnknownNameReturnsNotFound) {
  ExperimentConfig cfg = SmallConfig();
  WorkloadContext ctx{cfg, nullptr};
  std::unique_ptr<WorkloadGenerator> workload;
  Status s = WorkloadRegistry::Global().Create("smallbank", ctx, &workload);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_EQ(workload, nullptr);
}

// --- Predictor registry ------------------------------------------------------

TEST(PredictorRegistryTest, BuiltinKindsResolve) {
  PredictorConfig cfg;
  for (const char* name : {"lstm", "ewma"}) {
    std::unique_ptr<PredictorInterface> predictor;
    Status s = PredictorRegistry::Global().Create(
        name, PredictorContext{cfg, 42}, &predictor);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(predictor, nullptr) << name;
    // The instance implements the pipeline interface end to end.
    predictor->OnTxn({1, 2}, 0);
    EXPECT_GE(predictor->WorkloadVariation(0), 0.0);
  }
  std::vector<std::string> names = PredictorRegistry::Global().Names();
  EXPECT_TRUE(std::find(names.begin(), names.end(), "lstm") != names.end());
  EXPECT_TRUE(std::find(names.begin(), names.end(), "ewma") != names.end());
}

TEST(PredictorRegistryTest, UnknownKindReturnsNotFoundWithKnownNames) {
  PredictorConfig cfg;
  std::unique_ptr<PredictorInterface> predictor;
  Status s = PredictorRegistry::Global().Create(
      "prophet", PredictorContext{cfg, 1}, &predictor);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find("lstm"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("ewma"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("off"), std::string::npos) << s.ToString();
}

TEST(PredictorRegistryTest, OffIsReservedNotRegistrable) {
  Status s = PredictorRegistry::Global().Register(
      kPredictorOff,
      [](const PredictorContext&) -> std::unique_ptr<PredictorInterface> {
        return nullptr;
      });
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(PredictorRegistryTest, DuplicateRegistrationRejected) {
  Status s = PredictorRegistry::Global().Register(
      "lstm",
      [](const PredictorContext&) -> std::unique_ptr<PredictorInterface> {
        return nullptr;
      });
  EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
}

TEST(PredictorRegistryTest, BuilderValidatesPredictorKind) {
  ExperimentConfig cfg = SmallConfig();
  cfg.predictor.kind = "prophet";
  ExperimentResult res;
  Status s = ExperimentBuilder(cfg).Run(&res);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(s.message().find("prophet"), std::string::npos) << s.ToString();
}

TEST(PredictorRegistryTest, KindSelectsThePredictorOneFlagAb) {
  // The prediction-mechanism A/B the registry exists for: the same
  // experiment under lstm / ewma / off differs in exactly one field.
  for (const char* kind : {"lstm", "ewma", "off"}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.protocol = "Lion";
    cfg.predictor.kind = kind;
    ExperimentResult res;
    Status s = ExperimentBuilder(cfg).Run(&res);
    ASSERT_TRUE(s.ok()) << kind << ": " << s.ToString();
    EXPECT_GT(res.committed, 0u) << kind;
  }
}

// --- Zero-harness-edit extension -------------------------------------------------

// A protocol defined entirely inside this test file: commits every
// transaction after a fixed simulated delay without touching the cluster.
// Registering it requires no change to any harness file — exactly the
// extension path a new protocol or ablation variant takes. Completion must
// go through the simulator: a synchronous done() would recurse with the
// closed-loop driver (each completion immediately submits the next txn).
class NoopProtocol : public Protocol {
 public:
  NoopProtocol(Cluster* cluster, MetricsCollector* metrics)
      : Protocol(cluster, metrics) {}
  std::string name() const override { return "Noop"; }
  void SubmitTxn(TxnPtr txn, TxnDoneFn done) override {
    txn->set_exec_class(ExecClass::kSingleNode);
    cluster_->sim()->Schedule(
        10 * kMicrosecond,
        [this, txn = std::move(txn), done = std::move(done)]() mutable {
          metrics_->OnCommit(*txn, cluster_->sim()->Now());
          done(std::move(txn));
        });
  }
};

TEST(RegistryExtensionTest, DummyProtocolRunsThroughTheFullHarness) {
  Status s = ProtocolRegistry::Global().Register(
      "Noop", ExecutionMode::kStandard,
      [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
        return std::make_unique<NoopProtocol>(ctx.cluster, ctx.metrics);
      });
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExperimentConfig cfg = SmallConfig();
  cfg.protocol = "Noop";
  ExperimentResult res;
  Status run = ExperimentBuilder(cfg).Run(&res);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_GT(res.committed, 0u);
  EXPECT_EQ(res.protocol, "Noop");

  ASSERT_TRUE(ProtocolRegistry::Global().Unregister("Noop").ok());
  EXPECT_FALSE(ProtocolRegistry::Global().Contains("Noop"));
}

TEST(RegistryExtensionTest, DummyWorkloadRunsThroughTheFullHarness) {
  // Single-op single-partition workload defined inline.
  class OneOpWorkload : public WorkloadGenerator {
   public:
    std::string name() const override { return "one-op"; }
    TxnPtr Next(TxnId id, SimTime now, Rng* rng) override {
      auto txn = std::make_unique<Transaction>(id, now);
      Operation op;
      op.partition = static_cast<PartitionId>(rng->Uniform(4));
      op.key = rng->Uniform(100);
      op.type = OpType::kRead;
      txn->ops().push_back(op);
      return txn;
    }
  };
  Status s = WorkloadRegistry::Global().Register(
      "one-op",
      [](const WorkloadContext&) -> std::unique_ptr<WorkloadGenerator> {
        return std::make_unique<OneOpWorkload>();
      });
  ASSERT_TRUE(s.ok()) << s.ToString();

  ExperimentConfig cfg = SmallConfig();
  cfg.protocol = "2PC";
  cfg.workload = "one-op";
  ExperimentResult res;
  Status run = ExperimentBuilder(cfg).Run(&res);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_GT(res.committed, 0u);

  ASSERT_TRUE(WorkloadRegistry::Global().Unregister("one-op").ok());
}

}  // namespace
}  // namespace lion
