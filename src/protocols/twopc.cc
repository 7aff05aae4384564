#include "protocols/twopc.h"

#include <vector>

#include "harness/registry.h"

namespace lion {

TwoPcProtocol::TwoPcProtocol(Cluster* cluster, MetricsCollector* metrics)
    : Protocol(cluster, metrics), engine_(cluster, metrics) {}

void TwoPcProtocol::SubmitTxn(TxnPtr txn, TxnDoneFn done) {
  const std::vector<PartitionId>& parts = txn->Partitions();
  NodeId coord = cluster_->router().HomeNode(parts);
  for (PartitionId pid : parts) cluster_->router().RecordAccess(pid);
  Transaction* raw = txn.get();
  engine_.Run(raw, coord, TwoPhaseEngine::Options{},
              CommitOrRetry(std::move(txn), std::move(done)));
}

// Self-registration: resolving "2PC" through ProtocolRegistry needs no
// harness edits (see harness/registry.h).
namespace {
const ProtocolRegistrar kRegisterTwoPcProtocol(
    "2PC", ExecutionMode::kStandard,
    [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
      return std::make_unique<TwoPcProtocol>(ctx.cluster, ctx.metrics);
    });
}  // namespace

}  // namespace lion
