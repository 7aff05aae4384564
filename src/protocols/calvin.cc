#include "protocols/calvin.h"

#include "protocols/batch_util.h"

#include "harness/registry.h"

namespace lion {

namespace {
// Ops of `txn` on partitions whose primary is `node`.
int LocalOps(const Transaction& txn, const RouterTable& table, NodeId node) {
  int n = 0;
  for (PartitionId pid : txn.Partitions())
    if (table.PrimaryOf(pid) == node) n += txn.OpsOn(pid).size();
  return n;
}
}  // namespace

CalvinProtocol::CalvinProtocol(Cluster* cluster, MetricsCollector* metrics,
                               CalvinConfig config)
    : BatchProtocol(cluster, metrics), config_(config) {
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    lock_managers_.push_back(std::make_unique<WorkerPool>(cluster->sim(), 1));
  }
  sequencer_ = std::make_unique<WorkerPool>(cluster->sim(), 1);
}

void CalvinProtocol::ExecuteBatch(std::vector<Item> batch) {
  // The sequencer fixes the order and dispatches; its serial processing is
  // part of the deterministic pipeline's cost.
  for (auto& item : batch) {
    auto item_shared = std::make_shared<Item>(std::move(item));
    sequencer_->Submit(TaskPriority::kService, config_.sequencer_cost_per_txn,
                       [this, item_shared]() {
                         RunDeterministic(std::move(*item_shared));
                       });
  }
}

void CalvinProtocol::RunDeterministic(Item item) {
  Transaction* txn = item.txn->get();
  const std::vector<PartitionId>& parts = txn->Partitions();
  // Participant nodes (by current primary placement).
  std::vector<NodeId> participants;
  for (PartitionId pid : parts) {
    NodeId n = cluster_->router().PrimaryOf(pid);
    bool seen = false;
    for (NodeId p : participants) seen |= (p == n);
    if (!seen) participants.push_back(n);
  }
  bool multi_home = participants.size() > 1;
  txn->set_exec_class(multi_home ? ExecClass::kDistributed
                                 : ExecClass::kSingleNode);
  txn->set_coordinator(participants.empty() ? 0 : participants[0]);

  auto item_shared = std::make_shared<Item>(std::move(item));
  auto locks_pending = std::make_shared<int>(static_cast<int>(participants.size()));
  SimTime submitted = cluster_->sim()->Now();

  auto after_locks = [this, txn, participants, item_shared, multi_home,
                      submitted]() {
    txn->breakdown().scheduling += cluster_->sim()->Now() - submitted;
    // Execution: each participant reads its local ops; multi-home txns then
    // broadcast read results to each other (one communication round).
    const ClusterConfig& cfg = cluster_->config();
    auto exec_pending = std::make_shared<int>(static_cast<int>(participants.size()));
    SimTime exec_start = cluster_->sim()->Now();
    for (NodeId np : participants) {
      int local_ops = LocalOps(*txn, cluster_->router(), np);
      cluster_->pool(np)->Submit(
          TaskPriority::kResume,
          cfg.txn_setup_cost + local_ops * cfg.op_local_cost,
          [this, txn, np, participants, multi_home, exec_pending, item_shared,
           exec_start]() {
            for (PartitionId pid : txn->Partitions()) {
              if (cluster_->router().PrimaryOf(pid) == np)
                Occ::ReadOps(cluster_->store(pid), txn);
            }
            auto finish_exec = [this, txn, np, exec_pending, item_shared,
                                exec_start]() {
              if (--(*exec_pending) > 0) return;
              txn->breakdown().execution += cluster_->sim()->Now() - exec_start;
              // Apply writes at each participant, then epoch-commit.
              SimTime apply_start = cluster_->sim()->Now();
              batch_util::ApplyWrites(
                  cluster_, txn, np, [this, txn, item_shared, apply_start]() {
                    txn->breakdown().commit +=
                        cluster_->sim()->Now() - apply_start;
                    CommitAtEpochEnd(item_shared.get());
                  });
            };
            if (!multi_home) {
              finish_exec();
              return;
            }
            // Broadcast local reads to the other participants.
            auto acks = std::make_shared<int>(
                static_cast<int>(participants.size()) - 1);
            uint64_t bytes = MessageSizes::kHeader +
                             static_cast<uint64_t>(txn->ops().size()) *
                                 MessageSizes::kOpResponse;
            for (NodeId other : participants) {
              if (other == np) continue;
              cluster_->network().Send(np, other, bytes,
                                       [acks, finish_exec]() {
                                         if (--(*acks) == 0) finish_exec();
                                       });
            }
          });
    }
  };
  auto after_locks_shared =
      std::make_shared<std::function<void()>>(std::move(after_locks));

  // Lock acquisition through each participant's single-threaded manager, in
  // deterministic order (the batch arrives pre-ordered by the sequencer).
  for (NodeId np : participants) {
    int local_ops = LocalOps(*txn, cluster_->router(), np);
    lock_managers_[np]->Submit(TaskPriority::kService,
                               local_ops * config_.lock_cost_per_op,
                               [locks_pending, after_locks_shared]() {
                                 if (--(*locks_pending) == 0)
                                   (*after_locks_shared)();
                               });
  }
  if (participants.empty()) (*after_locks_shared)();
}


// Self-registration: resolving "Calvin" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterCalvinProtocol(
    "Calvin", ExecutionMode::kBatch,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<CalvinProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
