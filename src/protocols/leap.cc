#include "protocols/leap.h"

#include "harness/registry.h"

namespace lion {

LeapProtocol::LeapProtocol(Cluster* cluster, MetricsCollector* metrics)
    : Protocol(cluster, metrics), engine_(cluster, metrics) {}

void LeapProtocol::MigrateNext(Transaction* txn, NodeId coord,
                               std::shared_ptr<std::vector<PartitionId>> missing,
                               size_t index, std::function<void(bool)> then) {
  if (index >= missing->size()) {
    then(true);
    return;
  }
  PartitionId pid = (*missing)[index];
  // Transfer only the working set: the records this transaction touches.
  uint64_t bytes = static_cast<uint64_t>(txn->OpsOn(pid).size()) *
                   cluster_->config().record_bytes;
  migrations_requested_++;
  cluster_->migration().MoveMastershipLight(
      pid, coord, bytes, [this, txn, coord, missing, index, then](bool ok) {
        if (!ok) {
          // Another migration is in flight on this partition: wait for it,
          // then retry the pull (Leap keeps pulling until local).
          PartitionId pid = (*missing)[index];
          cluster_->remaster().WaitUntilAvailable(
              pid, [this, txn, coord, missing, index, then]() {
                MigrateNext(txn, coord, missing, index, then);
              });
          return;
        }
        MigrateNext(txn, coord, missing, index + 1, then);
      });
}

void LeapProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  const std::vector<PartitionId>& parts = txn->Partitions();
  NodeId coord = cluster_->router().HomeNode(parts);
  for (PartitionId pid : parts) cluster_->router().RecordAccess(pid);
  auto missing = std::make_shared<std::vector<PartitionId>>();
  for (PartitionId pid : parts) {
    if (cluster_->router().PrimaryOf(pid) != coord) missing->push_back(pid);
  }
  Transaction* raw = txn.get();
  auto finish = CommitOrRetry(std::move(txn), std::move(done));
  if (!missing->empty()) raw->set_exec_class(ExecClass::kRemastered);
  // Pull every remote partition's mastership to the coordinator, one by one
  // (each op waits for its migration), then execute as single-node.
  MigrateNext(raw, coord, missing, 0, [this, raw, coord, finish](bool) {
    TwoPhaseEngine::Options opts;  // local commit, no prepare round needed
    engine_.Run(raw, coord, opts, finish);
  });
}

// Self-registration: resolving "Leap" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterLeapProtocol(
    "Leap", ExecutionMode::kStandard,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<LeapProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
