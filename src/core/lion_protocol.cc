#include "core/lion_protocol.h"

#include <cstdio>
#include <memory>

#include "harness/registry.h"

namespace lion {

/// One epoch's buffered transactions (batch execution, Sec. IV-D).
struct LionProtocol::Batch {
  struct Entry {
    TxnPtr txn;
    TxnDoneFn done;
    NodeId dst = kInvalidNode;
    bool used_remaster = false; // issued async remaster requests
    bool remaster_failed = false;
  };
  std::vector<Entry> entries;
  /// Remaster requests still in flight for this batch; the batch's
  /// execution phase starts only after all are acknowledged (the barrier).
  int outstanding_remasters = 0;
  bool flushed = false;
};

LionProtocol::LionProtocol(Cluster* cluster, MetricsCollector* metrics,
                           LionOptions options,
                           std::unique_ptr<PredictorInterface> predictor)
    : Protocol(cluster, metrics),
      options_(options),
      engine_(cluster, metrics),
      router_(cluster, options.cost),
      cost_model_(options.cost),
      predictor_(std::move(predictor)),
      current_batch_(std::make_shared<Batch>()) {
  if (options_.enable_planner) {
    planner_ = std::make_unique<Planner>(cluster, options_.planner,
                                         predictor_.get(), options_.cost);
  }
  geo_placement_ = GeoPlacement(options_.geo, &cluster->topology());
  cost_model_.SetGeoPlacement(&geo_placement_);
  if (planner_ != nullptr) planner_->SetGeoPlacement(&geo_placement_);
}

void LionProtocol::Start() {
  // Bootstrap-time provisioning: satisfy the min-replicas-per-region
  // constraint before any traffic (no-op when unconfigured).
  geo_placement_.EnsureRegionalReplicas(&cluster_->router(),
                                        cluster_->config().max_replicas);
  if (planner_ != nullptr) planner_->Start();
  if (options_.batch_mode) StartEpochTimer();
}

void LionProtocol::Stop() {
  Protocol::Stop();
  if (planner_ != nullptr) planner_->Stop();
  if (options_.batch_mode) FlushBatch();
}

void LionProtocol::OnEpoch(SimTime now) {
  (void)now;
  FlushBatch();
}

void LionProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  const std::vector<PartitionId>& parts = txn->Partitions();
  for (PartitionId p : parts) cluster_->router().RecordAccess(p);
  if (planner_ != nullptr) planner_->RecordTxn(parts, cluster_->sim()->Now());

  if (options_.batch_mode) {
    SubmitBatch(std::move(txn), std::move(done));
  } else {
    SubmitStandard(std::move(txn), std::move(done));
  }
}

bool LionProtocol::WorthRemastering(PartitionId pid, NodeId dst,
                                    size_t ops_on_pid) const {
  double remaster_cost =
      options_.cost.wr * cost_model_.CntRemaster(cluster_->router(), pid, dst);
  // Remote execution costs remote_access per partition plus a small per-op
  // component, so stealing mastership for a tiny remote working set only
  // happens when the partition is cold (low f in Eq. 4).
  double remote_cost =
      options_.cost.remote_access * (0.5 + 0.1 * static_cast<double>(ops_on_pid));
  return remaster_cost > 0.0 && remaster_cost <= remote_cost;
}

bool LionProtocol::ConvertibleTo(const Transaction& txn, NodeId dst,
                                 std::vector<PartitionId>* need_remaster) const {
  const RouterTable& table = cluster_->router();
  for (PartitionId p : txn.Partitions()) {
    if (table.PrimaryOf(p) == dst) continue;
    if (table.HasSecondary(dst, p) &&
        geo_placement_.AllowsPrimaryOn(table, p, dst) &&
        WorthRemastering(p, dst, txn.OpsOn(p).size())) {
      need_remaster->push_back(p);
    } else {
      need_remaster->clear();  // case 3: some replica missing (or too hot)
      return false;
    }
  }
  return true;
}

void LionProtocol::Execute(Transaction* txn, NodeId dst, ExecClass cls,
                           std::function<void(bool)> cb) {
  txn->set_exec_class(cls);
  TwoPhaseEngine::Options opts;
  opts.group_commit_visibility = options_.group_commit;
  engine_.Run(txn, dst, opts, std::move(cb));
}

void LionProtocol::SubmitStandard(TxnPtr txn, TxnDoneFn done) {
  NodeId dst = router_.Route(txn->Partitions());
  std::vector<PartitionId> need_remaster;
  bool feasible = ConvertibleTo(*txn, dst, &need_remaster);

  Transaction* raw = txn.get();
  auto finish = CommitOrRetry(std::move(txn), std::move(done));

  if (!feasible) {
    // Case 3: regular distributed transaction with 2PC.
    fallback_distributed_++;
    Execute(raw, dst, ExecClass::kDistributed, finish);
    return;
  }
  if (need_remaster.empty()) {
    // Case 1: every primary already local — direct single-node execution.
    Execute(raw, dst, ExecClass::kSingleNode, finish);
    return;
  }

  // Case 2: remaster the secondaries onto dst, then execute locally. If any
  // remaster conflicts (another node is converting the same partition), the
  // transaction falls back to distributed execution (Sec. III).
  remaster_requests_ += need_remaster.size();
  auto pending = std::make_shared<int>(static_cast<int>(need_remaster.size()));
  auto any_failed = std::make_shared<bool>(false);
  for (PartitionId p : need_remaster) {
    cluster_->remaster().Remaster(p, dst, [this, raw, dst, pending, any_failed,
                                           finish](bool ok) {
      if (!ok) *any_failed = true;
      if (--(*pending) > 0) return;
      if (*any_failed) {
        fallback_distributed_++;
        Execute(raw, dst, ExecClass::kDistributed, finish);
      } else {
        remaster_conversions_++;
        Execute(raw, dst, ExecClass::kRemastered, finish);
      }
    });
  }
}

void LionProtocol::SubmitBatch(TxnPtr txn, TxnDoneFn done) {
  NodeId dst = router_.Route(txn->Partitions());
  std::vector<PartitionId> need_remaster;
  ConvertibleTo(*txn, dst, &need_remaster);

  Batch::Entry entry;
  entry.dst = dst;
  entry.done = std::move(done);
  entry.txn = std::move(txn);
  std::shared_ptr<Batch> batch = current_batch_;
  batch->entries.push_back(std::move(entry));
  size_t entry_idx = batch->entries.size() - 1;

  // Asynchronous remastering (Sec. IV-D): issue the requests immediately,
  // do NOT wait — the executor keeps buffering subsequent transactions. The
  // batch index is carried in the callback to locate the context.
  if (!need_remaster.empty()) {
    batch->entries[entry_idx].used_remaster = true;
    remaster_requests_ += need_remaster.size();
    batch->outstanding_remasters += static_cast<int>(need_remaster.size());
    for (PartitionId p : need_remaster) {
      cluster_->remaster().Remaster(
          p, dst, [this, batch, entry_idx](bool ok) {
            if (!ok) batch->entries[entry_idx].remaster_failed = true;
            batch->outstanding_remasters--;
            if (batch->flushed && batch->outstanding_remasters == 0) {
              ExecuteBatch(batch);
            }
          });
    }
  }

  if (batch->entries.size() >= options_.max_batch_size) FlushBatch();

  // After Stop() the epoch timer no longer flushes; a retry resubmitted
  // here (RetryAfterBackoff re-enters Submit) would otherwise sit in the
  // fresh batch forever. Schedule one more flush so its completion fires;
  // deferred an epoch so conflicting locks can clear first.
  if (stopped()) {
    cluster_->sim()->Schedule(cluster_->config().epoch_interval,
                              [this]() { FlushBatch(); });
  }
}

void LionProtocol::FlushBatch() {
  std::shared_ptr<Batch> batch = current_batch_;
  if (batch->entries.empty() || batch->flushed) return;
  current_batch_ = std::make_shared<Batch>();
  batch->flushed = true;
  // Barrier: execution starts only once every remastering request of the
  // batch has been acknowledged.
  if (batch->outstanding_remasters == 0) ExecuteBatch(batch);
}

void LionProtocol::ExecuteBatch(const std::shared_ptr<Batch>& batch) {
  for (auto& entry : batch->entries) {
    Transaction* raw = entry.txn.get();
    // Re-derive the execution class against the post-remaster placement.
    ExecClass cls;
    if (!cluster_->router().AllPrimariesOn(raw->Partitions(), entry.dst)) {
      cls = ExecClass::kDistributed;
      fallback_distributed_++;
    } else if (entry.used_remaster && !entry.remaster_failed) {
      cls = ExecClass::kRemastered;
      remaster_conversions_++;
    } else {
      cls = ExecClass::kSingleNode;
    }
    Execute(raw, entry.dst, cls,
            CommitOrRetry(std::move(entry.txn), std::move(entry.done)));
  }
}


// Self-registration of the Lion family (Table II): each variant toggles the
// partitioning strategy, batch execution, and the workload predictor. The
// predictor is resolved through PredictorRegistry by `predictor.kind`
// (default "lstm"; "off" disables it even for predicting variants) and
// owned by the protocol instance.
namespace {

std::unique_ptr<Protocol> MakeLionVariant(const ProtocolContext& ctx,
                                          PartitioningStrategy strategy,
                                          bool batch, bool predict) {
  LionOptions opts = ctx.config.lion;
  opts.planner.strategy = strategy;
  opts.batch_mode = batch;
  opts.group_commit = batch;
  std::unique_ptr<PredictorInterface> predictor;
  if (predict && ctx.config.predictor.kind != kPredictorOff) {
    // The seed offset keeps the predictor's RNG stream disjoint from the
    // workload/simulator streams derived from the same experiment seed.
    PredictorContext pctx{ctx.config.predictor, ctx.config.seed + 101};
    Status s = PredictorRegistry::Global().Create(ctx.config.predictor.kind,
                                                  pctx, &predictor);
    if (!s.ok()) {
      // ExperimentBuilder::Validate rejects unknown kinds before any factory
      // runs; reaching this means the protocol was constructed directly with
      // an unvalidated config. Surface the cause and fail construction.
      std::fprintf(stderr, "lion: %s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  return std::make_unique<LionProtocol>(ctx.cluster, ctx.metrics, opts,
                                        std::move(predictor));
}

constexpr auto kRearrange = PartitioningStrategy::kReplicaRearrangement;
constexpr auto kSchism = PartitioningStrategy::kSchism;

// Standard-execution Lion with prediction (the non-batch figures).
const ProtocolRegistrar kRegisterLion(
    "Lion", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionS(
    "Lion(S)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kSchism, /*batch=*/false, /*predict=*/false);
    });
const ProtocolRegistrar kRegisterLionSW(
    "Lion(SW)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kSchism, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionR(
    "Lion(R)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/false);
    });
const ProtocolRegistrar kRegisterLionRW(
    "Lion(RW)", ExecutionMode::kStandard, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/false, /*predict=*/true);
    });
const ProtocolRegistrar kRegisterLionRB(
    "Lion(RB)", ExecutionMode::kBatch, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/true, /*predict=*/false);
    });
// Lion(B) = full batch Lion: rearrangement + prediction + batch execution.
const ProtocolRegistrar kRegisterLionB(
    "Lion(B)", ExecutionMode::kBatch, [](const ProtocolContext& ctx) {
      return MakeLionVariant(ctx, kRearrange, /*batch=*/true, /*predict=*/true);
    });

}  // namespace

}  // namespace lion
