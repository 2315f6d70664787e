// Hash aggregation: one executor class for the serial aggregation (one
// partition) and each worker of a partitioned parallel aggregation, plus the
// accumulate/merge/finalize core they run.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/executor.h"
#include "exec/gather.h"
#include "expr/vector_eval.h"

namespace relopt {

/// One aggregate to compute at execution time.
struct AggSpecExec {
  AggFunc func;
  const Expression* arg;  // null for COUNT(*)
};

/// \brief Running state of one aggregate within one group.
///
/// Integer SUM/AVG accumulate into a checked int64: SUM reports OutOfRange
/// instead of wrapping on overflow, AVG widens to double (its result is a
/// double anyway). Any double input also switches the accumulator to `sum_d`.
struct AggAccumulator {
  int64_t count = 0;  // COUNT(expr) / COUNT(*) and AVG denominator
  double sum_d = 0;
  int64_t sum_i = 0;
  bool sum_is_int = true;
  bool has_value = false;  // any non-null input seen
  Value min;
  Value max;
};

/// One group: its key values plus one accumulator per aggregate.
struct AggGroup {
  std::vector<Value> keys;
  std::vector<AggAccumulator> accs;
};

/// \brief State shared by the workers of one hash aggregation.
///
/// Layout: `partitions[w][p]` holds the groups worker `w` accumulated for
/// partition `p` (PartitionOf its encoded key) while draining its input;
/// after the first barrier, worker `k` folds column `k` of that matrix into
/// `merged[k]` with MergeAggGroup. After the second barrier each merged
/// partition is owned read-only by its worker, which emits it. A group key
/// lands in exactly one partition, so groups are never split across emitters.
class SharedAggregateState : public PartitionedSharedState {
 public:
  using GroupMap = std::unordered_map<std::string, AggGroup>;

  explicit SharedAggregateState(size_t num_workers) : PartitionedSharedState(num_workers) {}

  /// Clears partitions, merged maps, and the error slot. No worker may be
  /// running.
  void Reset() override {
    partitions_.assign(num_workers(), std::vector<GroupMap>(num_workers()));
    merged_.assign(num_workers(), GroupMap{});
    ResetError();
  }

  std::vector<GroupMap>& worker_partitions(size_t w) { return partitions_[w]; }
  GroupMap& partition(size_t w, size_t p) { return partitions_[w][p]; }
  GroupMap& merged(size_t p) { return merged_[p]; }

 private:
  std::vector<std::vector<GroupMap>> partitions_;
  std::vector<GroupMap> merged_;
};

/// \brief Hash aggregation. Groups on the encoded group key, so NULLs group
/// together (SQL GROUP BY semantics). Output order is unspecified: a query
/// that needs ordered groups has an ORDER BY, planned as a Sort above.
///
/// SQL semantics: COUNT(*) counts rows; COUNT/SUM/MIN/MAX/AVG ignore NULL
/// arguments; SUM/MIN/MAX/AVG over zero non-null inputs yield NULL. With no
/// GROUP BY, an empty input still produces one row.
///
/// Serial execution is the one-partition case of partitioned parallel
/// aggregation: the serial constructor owns a one-worker
/// SharedAggregateState and resets it in Init (so a rescan restarts); no
/// Gather or thread pool is involved and no key is hashed for partitioning.
/// A parallel aggregation runs one executor per worker over a state shared
/// through the Gather; a global aggregate routes every row to the empty
/// key's partition, whose owner also emits the one default row when the
/// input is empty.
///
/// Under vectorized drive (ctx batch_size > 0) both sides are native batch:
/// ingest pulls TupleBatches from the child and computes encoded group keys
/// per batch (GroupKeyComputer), emit fills output batches a group row at a
/// time.
class AggregateExecutor : public Executor {
 public:
  AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                    std::vector<const Expression*> group_exprs, std::vector<AggSpecExec> aggs);
  /// Worker `worker_idx` of a parallel aggregation. Exactly
  /// `shared->num_workers()` siblings must run concurrently; their Gather
  /// resets `shared`.
  AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                    std::vector<const Expression*> group_exprs, std::vector<AggSpecExec> aggs,
                    std::shared_ptr<SharedAggregateState> shared, size_t worker_idx);

  Status InitImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out) override;

  void Abandon() override { child_->Abandon(); }

 private:
  /// Drains the child, accumulating each row into this worker's partition
  /// of its encoded group key.
  Status AccumulatePhase();
  /// Folds partition column `worker_idx_` into `shared_->merged(worker_idx_)`.
  Status MergePhase();

  ExecutorPtr child_;
  std::vector<const Expression*> group_exprs_;
  std::vector<AggSpecExec> aggs_;
  GroupKeyComputer key_computer_;  ///< batched group-key encoding (batch drive)
  std::shared_ptr<SharedAggregateState> shared_;
  size_t worker_idx_;
  bool owns_state_;  ///< serial aggregation: Init resets `shared_` itself

  /// This worker's merged partition; null until Init completes.
  SharedAggregateState::GroupMap* merged_ = nullptr;
  SharedAggregateState::GroupMap::const_iterator out_iter_;
};

}  // namespace relopt
