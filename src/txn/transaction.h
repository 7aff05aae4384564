// Transaction representation shared by every protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace lion {

enum class OpType : uint8_t { kRead, kWrite };

/// One read or write in a transaction's logical plan, plus its runtime
/// execution state (value/version observed for OCC).
struct Operation {
  PartitionId partition = kInvalidPartition;
  Key key = 0;
  OpType type = OpType::kRead;
  /// Write of a brand-new unique key (e.g. TPC-C ORDER/ORDER-LINE rows).
  /// Inserts cannot conflict with other transactions' accesses, so granule
  /// lockers skip them.
  bool is_insert = false;
  Value write_value = 0;

  // Runtime state, reset on restart.
  Value read_value = 0;
  Version read_version = 0;
  bool executed = false;
};

/// How the transaction ultimately executed — the paper's three cases
/// (Sec. III): directly on one node, on one node after remastering, or as a
/// regular distributed transaction.
enum class ExecClass : uint8_t { kSingleNode, kRemastered, kDistributed };

/// Wall-time attribution buckets matching Fig. 14b.
struct PhaseBreakdown {
  SimTime scheduling = 0;   // queueing before first execution
  SimTime execution = 0;    // read/write processing
  SimTime commit = 0;       // prepare + commit coordination
  SimTime replication = 0;  // secondary sync + group-commit visibility wait
  SimTime other = 0;

  SimTime Total() const {
    return scheduling + execution + commit + replication + other;
  }
  void Add(const PhaseBreakdown& o) {
    scheduling += o.scheduling;
    execution += o.execution;
    commit += o.commit;
    replication += o.replication;
    other += o.other;
  }
};

/// A transaction: the workload generator fills in `ops` and protocols drive
/// it to commit, possibly restarting it on OCC aborts.
///
/// The transaction owns its per-partition view of `ops` (the paper's TxnParts
/// metadata): the distinct partitions touched, and for each one its ops in
/// plan order and its write count. The view is built on first read and
/// rebuilt if ops were appended since; ops must not be re-targeted to another
/// partition or change type once it has been read.
class Transaction {
 public:
  /// One partition's ops in plan order, viewed through the owning
  /// transaction; valid until ops are appended or the transaction is freed.
  template <typename Op>
  class OpRange {
   public:
    class iterator {
     public:
      iterator(Op* ops, const uint32_t* at) : ops_(ops), at_(at) {}
      Op& operator*() const { return ops_[*at_]; }
      iterator& operator++() {
        ++at_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return at_ != o.at_; }

     private:
      Op* ops_;
      const uint32_t* at_;
    };

    OpRange(Op* ops, const uint32_t* begin, const uint32_t* end)
        : ops_(ops), begin_(begin), end_(end) {}
    iterator begin() const { return {ops_, begin_}; }
    iterator end() const { return {ops_, end_}; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }

   private:
    Op* ops_;
    const uint32_t* begin_;
    const uint32_t* end_;
  };

  Transaction(TxnId id, SimTime created_at) : id_(id), created_at_(created_at) {}

  TxnId id() const { return id_; }
  SimTime created_at() const { return created_at_; }

  std::vector<Operation>& ops() { return ops_; }
  const std::vector<Operation>& ops() const { return ops_; }

  /// Distinct partitions touched, ascending (the TxnParts of TxnMeta).
  const std::vector<PartitionId>& Partitions() const {
    UpdateView();
    return parts_;
  }

  /// Operations on `pid` in plan order (empty when `pid` is not touched).
  OpRange<Operation> OpsOn(PartitionId pid) {
    const Slice& s = SliceOf(pid);
    return {ops_.data(), op_order_.data() + s.begin, op_order_.data() + s.end};
  }
  OpRange<const Operation> OpsOn(PartitionId pid) const {
    const Slice& s = SliceOf(pid);
    return {ops_.data(), op_order_.data() + s.begin, op_order_.data() + s.end};
  }

  /// Number of writes on `pid`.
  int WritesOn(PartitionId pid) const { return SliceOf(pid).writes; }

  /// Additional coordinator-side compute (TPC-C business logic).
  SimTime extra_compute() const { return extra_compute_; }
  void set_extra_compute(SimTime t) { extra_compute_ = t; }

  /// Clears runtime state so the transaction can re-execute after an abort.
  void ResetForRestart() {
    for (auto& op : ops_) {
      op.read_value = 0;
      op.read_version = 0;
      op.executed = false;
    }
    restarts_++;
  }

  int restarts() const { return restarts_; }

  /// Times this transaction was deferred because a touched partition was
  /// unavailable (down primary or partitioned away). Unlike `restarts`,
  /// this survives ResetForRestart so the degradation path's retry budget
  /// cannot be reset by an interleaved OCC abort.
  int unavailable_retries() const { return unavailable_retries_; }
  void BumpUnavailableRetries() { unavailable_retries_++; }

  NodeId coordinator() const { return coordinator_; }
  void set_coordinator(NodeId n) { coordinator_ = n; }

  ExecClass exec_class() const { return exec_class_; }
  void set_exec_class(ExecClass c) { exec_class_ = c; }

  PhaseBreakdown& breakdown() { return breakdown_; }
  const PhaseBreakdown& breakdown() const { return breakdown_; }

 private:
  TxnId id_;
  SimTime created_at_;
  SimTime extra_compute_ = 0;
  std::vector<Operation> ops_;
  int restarts_ = 0;
  int unavailable_retries_ = 0;
  NodeId coordinator_ = kInvalidNode;
  ExecClass exec_class_ = ExecClass::kSingleNode;
  PhaseBreakdown breakdown_;

  // The per-partition view: slices_[i] covers partition parts_[i] and
  // indexes op_order_, which lists op positions grouped by partition (plan
  // order within each group).
  struct Slice {
    uint32_t begin = 0;
    uint32_t end = 0;
    int writes = 0;
  };
  mutable std::vector<PartitionId> parts_;
  mutable std::vector<Slice> slices_;
  mutable std::vector<uint32_t> op_order_;
  mutable size_t viewed_ops_ = 0;  // ops_.size() the view was built for

  void UpdateView() const {
    if (viewed_ops_ == ops_.size()) return;
    viewed_ops_ = ops_.size();
    parts_.clear();
    parts_.reserve(ops_.size());
    for (const Operation& op : ops_) parts_.push_back(op.partition);
    std::sort(parts_.begin(), parts_.end());
    parts_.erase(std::unique(parts_.begin(), parts_.end()), parts_.end());
    // Counting sort of op positions by partition: size each slice, lay the
    // slices out back to back, then fill them in plan order.
    slices_.assign(parts_.size(), Slice{});
    for (const Operation& op : ops_) {
      Slice& s = slices_[IndexOf(op.partition)];
      s.end++;
      if (op.type == OpType::kWrite) s.writes++;
    }
    uint32_t at = 0;
    for (Slice& s : slices_) {
      s.begin = at;
      at += s.end;
      s.end = s.begin;
    }
    op_order_.resize(ops_.size());
    for (uint32_t i = 0; i < ops_.size(); ++i)
      op_order_[slices_[IndexOf(ops_[i].partition)].end++] = i;
  }

  size_t IndexOf(PartitionId pid) const {
    return static_cast<size_t>(
        std::lower_bound(parts_.begin(), parts_.end(), pid) - parts_.begin());
  }

  const Slice& SliceOf(PartitionId pid) const {
    static const Slice kEmpty;
    UpdateView();
    size_t i = IndexOf(pid);
    return i < parts_.size() && parts_[i] == pid ? slices_[i] : kEmpty;
  }
};

using TxnPtr = std::unique_ptr<Transaction>;

}  // namespace lion
