#include "protocols/hermes.h"

#include <algorithm>

#include "protocols/batch_util.h"
#include "txn/occ.h"

#include "harness/registry.h"

namespace lion {

HermesProtocol::HermesProtocol(Cluster* cluster, MetricsCollector* metrics,
                               HermesConfig config)
    : BatchProtocol(cluster, metrics), config_(config) {
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    lock_managers_.push_back(std::make_unique<WorkerPool>(cluster->sim(), 1));
  }
}

void HermesProtocol::ExecuteBatch(std::vector<Item> batch) {
  // Prescient reordering: group transactions by partition signature so
  // consecutive ones reuse each other's migrations.
  std::sort(batch.begin(), batch.end(), [](const Item& a, const Item& b) {
    return (*a.txn)->Partitions() < (*b.txn)->Partitions();
  });
  for (auto& item : batch) MigrateThenRun(std::move(item));
}

void HermesProtocol::MigrateThenRun(Item item) {
  Transaction* txn = item.txn->get();
  const std::vector<PartitionId>& parts = txn->Partitions();
  NodeId dst = cluster_->router().HomeNode(parts);
  auto missing = std::make_shared<std::vector<PartitionId>>();
  for (PartitionId pid : parts) {
    if (cluster_->router().PrimaryOf(pid) != dst) missing->push_back(pid);
  }
  txn->set_coordinator(dst);
  txn->set_exec_class(missing->empty() ? ExecClass::kSingleNode
                                       : ExecClass::kRemastered);
  auto item_shared = std::make_shared<Item>(std::move(item));
  MigrateNext(item_shared, dst, missing, 0);
}

void HermesProtocol::MigrateNext(std::shared_ptr<Item> item, NodeId dst,
                                 std::shared_ptr<std::vector<PartitionId>> missing,
                                 size_t index) {
  Transaction* txn = item->txn->get();
  // Placement may have changed while waiting: skip already-local entries.
  while (index < missing->size() &&
         cluster_->router().PrimaryOf((*missing)[index]) == dst) {
    index++;
  }
  if (index >= missing->size()) {
    RunLocal(item, dst);
    return;
  }
  PartitionId pid = (*missing)[index];
  uint64_t bytes = static_cast<uint64_t>(txn->OpsOn(pid).size()) *
                   cluster_->config().record_bytes;
  migrations_requested_++;
  cluster_->migration().MoveMastershipLight(
      pid, dst, bytes, [this, item, dst, missing, index, pid](bool ok) {
        if (!ok) {
          // A migration is in flight; deterministic order means we simply
          // wait and retry (no aborts in Hermes).
          cluster_->remaster().WaitUntilAvailable(
              pid, [this, item, dst, missing, index]() {
                MigrateNext(item, dst, missing, index);
              });
          return;
        }
        MigrateNext(item, dst, missing, index + 1);
      });
}

void HermesProtocol::RunLocal(std::shared_ptr<Item> item, NodeId dst) {
  const ClusterConfig& cfg = cluster_->config();
  Transaction* txn = item->txn->get();
  int total_ops = static_cast<int>(txn->ops().size());
  SimTime lock_submit = cluster_->sim()->Now();

  // Serial lock manager grant, then local execution and write application.
  lock_managers_[dst]->Submit(
      TaskPriority::kService, total_ops * config_.lock_cost_per_op,
      [this, item, dst, txn, total_ops, lock_submit, cfg]() {
        txn->breakdown().scheduling += cluster_->sim()->Now() - lock_submit;
        SimTime exec_start = cluster_->sim()->Now();
        cluster_->pool(dst)->Submit(
            TaskPriority::kResume,
            cfg.txn_setup_cost + txn->extra_compute() +
                total_ops * cfg.op_local_cost,
            [this, item, dst, txn, exec_start]() {
              for (PartitionId pid : txn->Partitions()) {
                Occ::ReadOps(cluster_->store(pid), txn);
              }
              txn->breakdown().execution += cluster_->sim()->Now() - exec_start;
              SimTime apply_start = cluster_->sim()->Now();
              batch_util::ApplyWrites(cluster_, txn, dst,
                                      [this, item, txn, apply_start]() {
                                        txn->breakdown().commit +=
                                            cluster_->sim()->Now() - apply_start;
                                        CommitAtEpochEnd(item.get());
                                      });
            });
      });
}


// Self-registration: resolving "Hermes" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterHermesProtocol(
    "Hermes", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<HermesProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
