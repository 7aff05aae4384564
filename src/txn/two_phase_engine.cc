#include "txn/two_phase_engine.h"

#include <algorithm>
#include <cassert>

#include "sim/network.h"
#include "txn/occ.h"

namespace lion {

struct TwoPhaseEngine::Ctx {
  Transaction* txn = nullptr;
  NodeId coord = kInvalidNode;
  Options opts;
  std::function<void(bool)> done;

  bool single_node = false;

  int pending = 0;
  bool vote_failed = false;
  std::vector<PartitionId> prepared;  // partitions currently holding locks

  SimTime submit_at = 0;
  SimTime exec_start = 0;
  SimTime exec_end = 0;
  SimTime commit_end = 0;
  SimTime repl_wait = 0;  // prepare-phase secondary-ack wait (summed)
};

TwoPhaseEngine::TwoPhaseEngine(Cluster* cluster, MetricsCollector* metrics)
    : cluster_(cluster), metrics_(metrics) {}

void TwoPhaseEngine::Run(Transaction* txn, NodeId coordinator,
                         const Options& opts, std::function<void(bool)> done) {
  if (txn->ops().empty()) {
    cluster_->sim()->Schedule(0, [done]() { done(true); });
    return;
  }
  auto ctx = std::make_shared<Ctx>();
  ctx->txn = txn;
  ctx->coord = coordinator;
  ctx->opts = opts;
  ctx->done = std::move(done);
  ctx->single_node =
      cluster_->router().AllPrimariesOn(txn->Partitions(), coordinator);
  txn->set_coordinator(coordinator);

  const ClusterConfig& cfg = cluster_->config();
  ctx->submit_at = cluster_->sim()->Now();

  SimTime setup = cfg.txn_setup_cost + txn->extra_compute();
  cluster_->pool(coordinator)
      ->Submit(TaskPriority::kNew, setup, [this, ctx, setup]() {
        SimTime now = cluster_->sim()->Now();
        ctx->txn->breakdown().scheduling += now - setup - ctx->submit_at;
        ctx->exec_start = now;
        StartExecution(ctx);
      });
}

void TwoPhaseEngine::StartExecution(const std::shared_ptr<Ctx>& ctx) {
  ctx->pending = static_cast<int>(ctx->txn->Partitions().size());
  for (PartitionId pid : ctx->txn->Partitions()) ExecutePartition(ctx, pid);
}

void TwoPhaseEngine::ExecutePartition(const std::shared_ptr<Ctx>& ctx,
                                      PartitionId pid) {
  const ClusterConfig& cfg = cluster_->config();
  NodeId primary = cluster_->router().PrimaryOf(pid);
  int n_ops = static_cast<int>(ctx->txn->OpsOn(pid).size());

  auto run_local = [this, ctx, pid, n_ops, cfg]() {
    // Reads execute as their own task so that concurrent commits on other
    // workers can interleave (OCC conflicts stay observable).
    cluster_->pool(cluster_->router().PrimaryOf(pid))
        ->Submit(TaskPriority::kResume, n_ops * cfg.op_local_cost,
                 [this, ctx, pid]() {
                   Occ::ReadOps(cluster_->store(pid), ctx->txn);
                   OnExecutionDone(ctx);
                 });
  };

  if (primary == ctx->coord) {
    cluster_->remaster().WaitUntilAvailable(pid, run_local);
    return;
  }

  // Remote partition: one round trip carrying this partition's op batch.
  uint64_t req_bytes = MessageSizes::kHeader + n_ops * MessageSizes::kOpRequest;
  uint64_t resp_bytes = MessageSizes::kHeader + n_ops * MessageSizes::kOpResponse;
  cluster_->network().Send(
      ctx->coord, primary, req_bytes, [this, ctx, pid, n_ops, resp_bytes, cfg]() {
        cluster_->remaster().WaitUntilAvailable(pid, [this, ctx, pid, n_ops,
                                                      resp_bytes, cfg]() {
          NodeId serving = cluster_->router().PrimaryOf(pid);
          cluster_->pool(serving)->Submit(
              TaskPriority::kService, n_ops * cfg.op_service_cost,
              [this, ctx, pid, serving, resp_bytes]() {
                Occ::ReadOps(cluster_->store(pid), ctx->txn);
                cluster_->network().Send(serving, ctx->coord, resp_bytes,
                                         [this, ctx]() { OnExecutionDone(ctx); });
              });
        });
      });
}

void TwoPhaseEngine::OnExecutionDone(const std::shared_ptr<Ctx>& ctx) {
  if (--ctx->pending > 0) return;
  ctx->exec_end = cluster_->sim()->Now();
  ctx->txn->breakdown().execution += ctx->exec_end - ctx->exec_start;
  if (ctx->single_node) {
    RunSingleNodeCommit(ctx);
  } else {
    ctx->txn->set_exec_class(ExecClass::kDistributed);
    StartPrepare(ctx);
  }
}

void TwoPhaseEngine::RunSingleNodeCommit(const std::shared_ptr<Ctx>& ctx) {
  // Validate + apply in one local task; prepare round trips are skipped.
  const ClusterConfig& cfg = cluster_->config();
  int total_ops = static_cast<int>(ctx->txn->ops().size());
  int total_writes = 0;
  for (PartitionId pid : ctx->txn->Partitions())
    total_writes += ctx->txn->WritesOn(pid);
  SimTime cost = total_ops * cfg.validation_cost_per_op + cfg.log_write_cost +
                 total_writes * cfg.op_local_cost;

  cluster_->pool(ctx->coord)->Submit(
      TaskPriority::kResume, cost, [this, ctx]() {
        bool ok = true;
        for (PartitionId pid : ctx->txn->Partitions()) {
          if (!Occ::ValidateAndLock(cluster_->store(pid), ctx->txn)) {
            ok = false;
            break;
          }
          ctx->prepared.push_back(pid);
        }
        if (!ok) {
          for (PartitionId pid : ctx->prepared)
            Occ::ReleaseLocks(cluster_->store(pid), ctx->txn);
          ctx->prepared.clear();
          Finalize(ctx, false);
          return;
        }
        for (PartitionId pid : ctx->txn->Partitions()) {
          Occ::ApplyAndUnlock(cluster_->store(pid), ctx->txn,
                              &cluster_->replication());
        }
        ctx->prepared.clear();
        ctx->commit_end = cluster_->sim()->Now();
        ctx->txn->breakdown().commit += ctx->commit_end - ctx->exec_end;
        Finalize(ctx, true);
      });
}

void TwoPhaseEngine::StartPrepare(const std::shared_ptr<Ctx>& ctx) {
  ctx->pending = static_cast<int>(ctx->txn->Partitions().size());
  ctx->vote_failed = false;
  for (PartitionId pid : ctx->txn->Partitions()) PreparePartition(ctx, pid);
}

void TwoPhaseEngine::PreparePartition(const std::shared_ptr<Ctx>& ctx,
                                      PartitionId pid) {
  const ClusterConfig& cfg = cluster_->config();
  NodeId participant = cluster_->router().PrimaryOf(pid);
  int n_ops = static_cast<int>(ctx->txn->OpsOn(pid).size());
  int n_writes = ctx->txn->WritesOn(pid);
  SimTime handler_cost =
      n_ops * cfg.validation_cost_per_op + cfg.log_write_cost;

  auto vote = [this, ctx, participant](bool yes) {
    cluster_->network().Send(participant, ctx->coord, MessageSizes::kCommitDecision,
                             [this, ctx, yes]() { OnVote(ctx, yes); });
  };

  cluster_->network().Send(
      ctx->coord, participant, MessageSizes::kPrepare,
      [this, ctx, pid, participant, handler_cost, n_writes, vote, cfg]() {
        cluster_->pool(participant)->Submit(
            TaskPriority::kService, handler_cost,
            [this, ctx, pid, participant, n_writes, vote, cfg]() {
              // The primary may have moved since routing; force a retry so
              // the transaction re-executes against current placement.
              if (cluster_->router().PrimaryOf(pid) != participant) {
                vote(false);
                return;
              }
              if (!Occ::ValidateAndLock(cluster_->store(pid), ctx->txn)) {
                vote(false);
                return;
              }
              ctx->prepared.push_back(pid);
              const ReplicaGroup& group = cluster_->router().group(pid);
              std::vector<NodeId> secs;
              for (const auto& s : group.secondaries())
                if (!s.delete_flag) secs.push_back(s.node);
              if (!ctx->opts.sync_prepare_replication || secs.empty()) {
                vote(true);
                return;
              }
              // Synchronously replicate the prepare record to secondaries.
              auto remaining = std::make_shared<int>(static_cast<int>(secs.size()));
              SimTime repl_start = cluster_->sim()->Now();
              uint64_t bytes = MessageSizes::kPrepare +
                               static_cast<uint64_t>(n_writes) * MessageSizes::kLogEntry;
              for (NodeId sec : secs) {
                cluster_->network().Send(
                    participant, sec, bytes,
                    [this, ctx, participant, sec, remaining, repl_start, vote,
                     cfg]() {
                      cluster_->pool(sec)->Submit(
                          TaskPriority::kService, cfg.message_handling_cost,
                          [this, ctx, participant, sec, remaining, repl_start,
                           vote]() {
                            cluster_->network().Send(
                                sec, participant, MessageSizes::kCommitDecision,
                                [this, ctx, remaining, repl_start, vote]() {
                                  if (--(*remaining) == 0) {
                                    ctx->repl_wait +=
                                        cluster_->sim()->Now() - repl_start;
                                    vote(true);
                                  }
                                });
                          });
                    });
              }
            });
      });
}

void TwoPhaseEngine::OnVote(const std::shared_ptr<Ctx>& ctx, bool yes) {
  if (!yes) ctx->vote_failed = true;
  if (--ctx->pending > 0) return;
  if (ctx->vote_failed) {
    AbortPrepared(ctx);
  } else {
    StartCommit(ctx);
  }
}

void TwoPhaseEngine::StartCommit(const std::shared_ptr<Ctx>& ctx) {
  const ClusterConfig& cfg = cluster_->config();
  ctx->pending = static_cast<int>(ctx->txn->Partitions().size());
  for (PartitionId pid : ctx->txn->Partitions()) {
    NodeId participant = cluster_->router().PrimaryOf(pid);
    int n_writes = ctx->txn->WritesOn(pid);
    SimTime apply_cost = cfg.log_write_cost + n_writes * cfg.op_local_cost;
    cluster_->network().Send(
        ctx->coord, participant, MessageSizes::kCommitDecision,
        [this, ctx, pid, participant, apply_cost]() {
          cluster_->pool(participant)->Submit(
              TaskPriority::kService, apply_cost, [this, ctx, pid, participant]() {
                Occ::ApplyAndUnlock(cluster_->store(pid), ctx->txn,
                                    &cluster_->replication());
                cluster_->network().Send(participant, ctx->coord,
                                         MessageSizes::kCommitDecision,
                                         [this, ctx]() {
                                           if (--ctx->pending == 0) {
                                             ctx->commit_end =
                                                 cluster_->sim()->Now();
                                             auto& bd = ctx->txn->breakdown();
                                             SimTime commit_span =
                                                 ctx->commit_end - ctx->exec_end;
                                             SimTime repl =
                                                 std::min(ctx->repl_wait,
                                                          commit_span);
                                             bd.replication += repl;
                                             bd.commit += commit_span - repl;
                                             Finalize(ctx, true);
                                           }
                                         });
              });
        });
  }
  ctx->prepared.clear();
}

void TwoPhaseEngine::AbortPrepared(const std::shared_ptr<Ctx>& ctx) {
  // Release locks on every partition that voted yes, then report the abort.
  if (ctx->prepared.empty()) {
    Finalize(ctx, false);
    return;
  }
  auto remaining = std::make_shared<int>(static_cast<int>(ctx->prepared.size()));
  std::vector<PartitionId> prepared = ctx->prepared;
  ctx->prepared.clear();
  for (PartitionId pid : prepared) {
    NodeId participant = cluster_->router().PrimaryOf(pid);
    cluster_->network().Send(
        ctx->coord, participant, MessageSizes::kCommitDecision,
        [this, ctx, pid, remaining]() {
          Occ::ReleaseLocks(cluster_->store(pid), ctx->txn);
          if (--(*remaining) == 0) Finalize(ctx, false);
        });
  }
}

void TwoPhaseEngine::Finalize(const std::shared_ptr<Ctx>& ctx, bool committed) {
  if (!committed) {
    if (metrics_ != nullptr) metrics_->OnAbort();
    ctx->done(false);
    return;
  }
  if (ctx->opts.group_commit_visibility) {
    SimTime wait_start = cluster_->sim()->Now();
    cluster_->replication().OnEpochEnd([ctx, wait_start, this]() {
      ctx->txn->breakdown().replication += cluster_->sim()->Now() - wait_start;
      ctx->done(true);
    });
    return;
  }
  ctx->done(true);
}

}  // namespace lion
