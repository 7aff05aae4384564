#include "txn/occ.h"

namespace lion {

void Occ::ReadOps(PartitionStore* store, Transaction* txn) {
  for (Operation& op : txn->OpsOn(store->id())) {
    Value value = 0;
    Version version = 0;
    if (store->Read(op.key, &value, &version).ok()) {
      op.read_value = value;
      op.read_version = version;
    } else {
      op.read_value = 0;
      op.read_version = 0;
    }
    op.executed = true;
  }
}

bool Occ::ValidateAndLock(PartitionStore* store, Transaction* txn) {
  auto ops = txn->OpsOn(store->id());
  // Lock the write set first (deterministic order: plan order).
  for (const Operation& op : ops) {
    if (op.type != OpType::kWrite) continue;
    if (!store->TryLock(op.key, txn->id())) {
      ReleaseLocks(store, txn);
      return false;
    }
  }
  // Validate the read set: versions unchanged and not locked by others.
  for (const Operation& op : ops) {
    if (op.type != OpType::kRead) continue;
    if (store->IsLockedByOther(op.key, txn->id()) ||
        store->VersionOf(op.key) != op.read_version) {
      ReleaseLocks(store, txn);
      return false;
    }
  }
  return true;
}

void Occ::ApplyAndUnlock(PartitionStore* store, Transaction* txn,
                         ReplicationManager* replication) {
  PartitionId pid = store->id();
  for (const Operation& op : txn->OpsOn(pid)) {
    if (op.type != OpType::kWrite) continue;
    store->Apply(op.key, op.write_value);
    if (replication != nullptr) replication->Append(pid, op.key, op.write_value);
    store->Unlock(op.key, txn->id());
  }
}

void Occ::ReleaseLocks(PartitionStore* store, Transaction* txn) {
  for (const Operation& op : txn->OpsOn(store->id())) {
    if (op.type != OpType::kWrite) continue;
    store->Unlock(op.key, txn->id());
  }
}

}  // namespace lion
