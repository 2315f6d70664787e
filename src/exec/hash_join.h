// Hash join: one executor class for the serial join (one partition, Grace
// spill when the build side does not fit) and each worker of a partitioned
// parallel join.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/gather.h"

namespace relopt {

/// \brief State shared by the workers of one hash join.
///
/// Layout: `partitions[w][p]` holds the (key, row) pairs worker `w` routed to
/// partition `p` while draining its build input; after the first barrier,
/// worker `k` folds column `k` of that matrix into `tables[k]`. After the
/// second barrier every table is read-only and safely probed lock-free.
class SharedHashJoinState : public PartitionedSharedState {
 public:
  using KeyedRow = std::pair<std::string, Tuple>;
  using HashTable = std::unordered_multimap<std::string, Tuple>;

  explicit SharedHashJoinState(size_t num_workers) : PartitionedSharedState(num_workers) {}

  /// Clears partitions, tables, and the error slot. No worker may be running.
  void Reset() override {
    partitions_.assign(num_workers(), std::vector<std::vector<KeyedRow>>(num_workers()));
    tables_.assign(num_workers(), HashTable{});
    ResetError();
  }

  std::vector<std::vector<KeyedRow>>& worker_partitions(size_t w) { return partitions_[w]; }
  std::vector<KeyedRow>& partition(size_t w, size_t p) { return partitions_[w][p]; }
  HashTable& table(size_t p) { return tables_[p]; }

 private:
  std::vector<std::vector<std::vector<KeyedRow>>> partitions_;
  std::vector<HashTable> tables_;
};

/// \brief Equi-join by hashing. The first child is the build side.
///
/// Serial execution is the one-partition case of the parallel join: the
/// serial constructor owns a one-worker SharedHashJoinState and resets it in
/// Init (so a nested-loop rescan restarts the join); no Gather or thread pool
/// is involved and no key is hashed for partitioning. A parallel join runs
/// one executor per worker over a state shared through the Gather.
///
/// Only a one-partition join spills: if its build side exceeds the operator
/// memory budget, both sides are partitioned to scratch heaps by key hash
/// (Grace hash join) and each partition pair is joined in memory — the
/// partition writes and re-reads go through the buffer pool, so measured I/O
/// matches the classic 3(P_build + P_probe) shape. A parallel join is
/// in-memory only. Rows with NULL keys never match.
///
/// Both drive modes are native: the build side, the Grace probe partitioning
/// and the probe loop pull TupleBatches and encode keys a batch at a time
/// under vectorized execution, rows otherwise.
class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                   const Expression* residual, bool output_probe_first);
  /// Worker `worker_idx` of a parallel join. Exactly `shared->num_workers()`
  /// siblings must run concurrently; their Gather resets `shared`.
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                   const Expression* residual, bool output_probe_first,
                   std::shared_ptr<SharedHashJoinState> shared, size_t worker_idx);

  Status InitImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override {
    build_->Abandon();
    probe_->Abandon();
  }

 private:
  /// Drains the build input into this worker's partitions, adding each row's
  /// serialized size (NULL keys included) to `*bytes`.
  Status PartitionBuildSide(size_t* bytes);
  /// Folds partition column `worker_idx_` into its hash table.
  void BuildTable();
  /// Grace: writes the build rows and then the probe input to
  /// `num_partitions_` scratch heap pairs and loads the first partition.
  Status SpillBothSides(size_t bytes);
  /// Loads the build rows of the first partition at or after `part_idx_`
  /// that has any rows into the table and opens its probe heap.
  Status LoadPartition();

  /// Next probe row or batch: from the probe child, or under Grace from the
  /// spilled probe partitions. A Grace batch never spans two partitions.
  Result<bool> NextProbeRow(Tuple* out);
  Result<bool> NextProbeBatch(TupleBatch* out);
  /// Points `matches_` at the build rows with key `key`.
  void FindMatches(const std::string& key);

  Tuple MakeOutput(const Tuple& probe_row, const Tuple& build_row) const;

  ExecutorPtr build_;
  ExecutorPtr probe_;
  std::vector<size_t> build_keys_;
  std::vector<size_t> probe_keys_;
  const Expression* residual_;
  bool output_probe_first_;
  std::shared_ptr<SharedHashJoinState> shared_;
  size_t worker_idx_;
  bool owns_state_;  ///< serial join: Init resets `shared_` itself

  std::vector<const Tuple*> matches_;
  size_t match_idx_ = 0;
  Tuple probe_tuple_;  ///< row drive: probe row owning matches_

  // Batch drive: probe keys are encoded for the whole batch up front, then
  // each probe row's match list is drained into the output batch.
  TupleBatch probe_batch_;
  std::vector<std::optional<std::string>> batch_keys_;
  size_t probe_pos_ = 0;  ///< next unprobed row in probe_batch_
  bool probe_done_ = false;
  const Tuple* batch_probe_row_ = nullptr;  ///< probe row owning matches_

  // Grace state (one partition only).
  bool grace_ = false;
  size_t num_partitions_ = 0;
  std::vector<HeapFile> build_parts_;
  std::vector<HeapFile> probe_parts_;
  size_t part_idx_ = 0;
  std::unique_ptr<HeapFile::Iterator> part_probe_iter_;
};

}  // namespace relopt
