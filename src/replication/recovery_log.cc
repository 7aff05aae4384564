#include "replication/recovery_log.h"

#include <algorithm>

namespace lion {

namespace {

// Removes the suffix entries matching `fold` (keeping the rest in order) and
// appends their keys to `out`.
template <typename Entries, typename Pred>
void FoldSuffix(Entries* suffix, Pred fold, std::vector<Key>* out) {
  auto keep = suffix->begin();
  for (auto it = suffix->begin(); it != suffix->end(); ++it) {
    if (fold(*it)) {
      out->push_back(it->key);
    } else {
      *keep++ = *it;
    }
  }
  suffix->erase(keep, suffix->end());
}

}  // namespace

RecoveryLog::RecoveryLog(Simulator* sim, const RecoveryConfig& config,
                         int num_nodes, int num_partitions)
    : sim_(sim),
      config_(config),
      snapshot_timer_(sim, [this](SimTime) { SnapshotAll(); }),
      nodes_(static_cast<size_t>(num_nodes)),
      history_(static_cast<size_t>(num_partitions)) {
  for (auto& parts : nodes_) {
    parts.resize(static_cast<size_t>(num_partitions));
  }
}

void RecoveryLog::Start() {
  if (config_.snapshot_interval > 0) {
    snapshot_timer_.Start(config_.snapshot_interval);
  }
}

void RecoveryLog::PushMark(NodeId node, PartitionId pid, Lsn lsn) {
  NodePartition& np = nodes_[static_cast<size_t>(node)][static_cast<size_t>(pid)];
  SimTime now = sim_->Now();
  if (!np.marks.empty() && np.marks.back().at == now) {
    np.marks.back().lsn = std::max(np.marks.back().lsn, lsn);
    return;
  }
  np.marks.push_back(Mark{lsn, now});
}

void RecoveryLog::AppendCommit(NodeId node, PartitionId pid, Key key, Lsn lsn) {
  history_[static_cast<size_t>(pid)].suffix.push_back(
      Entry{node, key, sim_->Now()});
  entries_appended_++;
  PushMark(node, pid, lsn);
}

void RecoveryLog::NoteApplied(NodeId node, PartitionId pid, Lsn lsn) {
  PushMark(node, pid, lsn);
}

Lsn RecoveryLog::DurableLsn(NodeId node, PartitionId pid, bool dirty) const {
  const NodePartition& np =
      nodes_[static_cast<size_t>(node)][static_cast<size_t>(pid)];
  SimTime horizon = dirty ? sim_->Now() - config_.durability_lag : sim_->Now();
  Lsn durable = np.snapshot_lsn;
  for (const Mark& m : np.marks) {
    if (m.at > horizon) break;  // marks are time-ordered
    durable = std::max(durable, m.lsn);
  }
  return durable;
}

void RecoveryLog::Crash(NodeId node, bool dirty) {
  if (!dirty) return;  // the flush won the race: the whole log survives
  SimTime horizon = sim_->Now() - config_.durability_lag;
  for (NodePartition& np : nodes_[static_cast<size_t>(node)]) {
    np.marks.erase(std::remove_if(np.marks.begin(), np.marks.end(),
                                  [horizon](const Mark& m) {
                                    return m.at > horizon;
                                  }),
                   np.marks.end());
  }
  for (PartitionHistory& h : history_) {
    FoldSuffix(
        &h.suffix,
        [node, horizon](const Entry& e) {
          return e.node == node && e.at > horizon;
        },
        &h.lost_keys);
  }
}

void RecoveryLog::FoldMarks(NodeId node) {
  for (NodePartition& np : nodes_[static_cast<size_t>(node)]) {
    if (!np.marks.empty()) {
      np.snapshot_lsn = std::max(np.snapshot_lsn, np.marks.back().lsn);
      np.marks.clear();
    }
  }
}

void RecoveryLog::SnapshotNode(NodeId node) {
  FoldMarks(node);
  for (PartitionHistory& h : history_) {
    FoldSuffix(
        &h.suffix, [node](const Entry& e) { return e.node == node; },
        &h.snapshot_keys);
  }
  snapshots_taken_++;
}

void RecoveryLog::SnapshotAll() {
  for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
    FoldMarks(n);
    snapshots_taken_++;
  }
  // Every suffix entry lives on some node's log, so folding all nodes folds
  // the whole suffix.
  for (PartitionHistory& h : history_) {
    for (const Entry& e : h.suffix) h.snapshot_keys.push_back(e.key);
    h.suffix.clear();
  }
}

uint64_t RecoveryLog::total_lost_entries() const {
  uint64_t total = 0;
  for (const PartitionHistory& h : history_) total += h.lost_keys.size();
  return total;
}

uint64_t RecoveryLog::DurableEntries(PartitionId pid) const {
  const PartitionHistory& h = history_[static_cast<size_t>(pid)];
  return h.snapshot_keys.size() + h.suffix.size();
}

uint64_t RecoveryLog::LostEntries(PartitionId pid) const {
  return history_[static_cast<size_t>(pid)].lost_keys.size();
}

uint64_t RecoveryLog::WriteCount(PartitionId pid, Key key) const {
  const PartitionHistory& h = history_[static_cast<size_t>(pid)];
  uint64_t count =
      std::count(h.snapshot_keys.begin(), h.snapshot_keys.end(), key) +
      std::count(h.lost_keys.begin(), h.lost_keys.end(), key);
  for (const Entry& e : h.suffix) {
    if (e.key == key) count++;
  }
  return count;
}

std::unordered_map<Key, uint64_t> RecoveryLog::ReconstructWrites(
    PartitionId pid) const {
  const PartitionHistory& h = history_[static_cast<size_t>(pid)];
  std::unordered_map<Key, uint64_t> counts;
  for (Key k : h.snapshot_keys) counts[k]++;
  for (Key k : h.lost_keys) counts[k]++;
  for (const Entry& e : h.suffix) counts[e.key]++;
  return counts;
}

}  // namespace lion
