// Small execution-phase helpers shared by the custom batch protocols.
#pragma once

#include <functional>
#include <memory>

#include "replication/cluster.h"
#include "sim/network.h"
#include "txn/occ.h"
#include "txn/transaction.h"

namespace lion {
namespace batch_util {

/// Runs the read phase of `txn` from `coord`: local partitions read in one
/// worker task, remote partitions via one request/response round each
/// (charged at the serving node). Calls `done` when every partition's reads
/// completed. Also charges the admission cost at `coord`.
inline void ReadPhase(Cluster* cluster, Transaction* txn, NodeId coord,
                      std::function<void()> done) {
  const ClusterConfig& cfg = cluster->config();
  auto pending =
      std::make_shared<int>(static_cast<int>(txn->Partitions().size()));
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  SimTime setup = cfg.txn_setup_cost + txn->extra_compute();

  cluster->pool(coord)->Submit(
      TaskPriority::kNew, setup, [cluster, txn, coord, pending, done_shared,
                                  cfg]() {
        for (PartitionId pid : txn->Partitions()) {
          int n_ops = static_cast<int>(txn->OpsOn(pid).size());
          NodeId primary = cluster->router().PrimaryOf(pid);
          auto one_done = [pending, done_shared]() {
            if (--(*pending) == 0) (*done_shared)();
          };
          if (primary == coord) {
            cluster->pool(coord)->Submit(TaskPriority::kResume,
                                         n_ops * cfg.op_local_cost,
                                         [cluster, txn, pid, one_done]() {
                                           Occ::ReadOps(cluster->store(pid), txn);
                                           one_done();
                                         });
          } else {
            uint64_t req = MessageSizes::kHeader +
                           static_cast<uint64_t>(n_ops) * MessageSizes::kOpRequest;
            uint64_t resp = MessageSizes::kHeader +
                            static_cast<uint64_t>(n_ops) * MessageSizes::kOpResponse;
            cluster->network().Send(
                coord, primary, req,
                [cluster, txn, pid, primary, coord, n_ops, resp, one_done, cfg]() {
                  cluster->pool(primary)->Submit(
                      TaskPriority::kService, n_ops * cfg.op_service_cost,
                      [cluster, txn, pid, primary, coord, resp, one_done]() {
                        Occ::ReadOps(cluster->store(pid), txn);
                        cluster->network().Send(primary, coord, resp, one_done);
                      });
                });
          }
        }
      });
}

/// Applies `txn`'s writes on every touched partition at its primary node
/// (one worker task per partition), appending to the replication log.
/// Ignores record locks: callers guarantee isolation (deterministic order
/// or granule locks). Calls `done` when all partitions applied.
inline void ApplyWrites(Cluster* cluster, Transaction* txn, NodeId coord,
                        std::function<void()> done) {
  const ClusterConfig& cfg = cluster->config();
  const std::vector<PartitionId>& parts = txn->Partitions();
  auto pending = std::make_shared<int>(static_cast<int>(parts.size()));
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  for (PartitionId pid : parts) {
    int writes = txn->WritesOn(pid);
    NodeId primary = cluster->router().PrimaryOf(pid);
    SimTime cost = cfg.log_write_cost + writes * cfg.op_local_cost;
    auto apply = [cluster, txn, pid, pending, done_shared]() {
      PartitionStore* store = cluster->store(pid);
      for (const Operation& op : txn->OpsOn(pid)) {
        if (op.type != OpType::kWrite) continue;
        store->Apply(op.key, op.write_value);
        cluster->replication().Append(pid, op.key, op.write_value);
      }
      if (--(*pending) == 0) (*done_shared)();
    };
    if (primary == coord) {
      cluster->pool(primary)->Submit(TaskPriority::kResume, cost, apply);
    } else {
      cluster->network().Send(coord, primary,
                              MessageSizes::kHeader +
                                  static_cast<uint64_t>(writes) * MessageSizes::kLogEntry,
                              [cluster, primary, cost, apply]() {
                                cluster->pool(primary)->Submit(
                                    TaskPriority::kService, cost, apply);
                              });
    }
  }
}

}  // namespace batch_util
}  // namespace lion
