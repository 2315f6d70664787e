// Gather: the exchange operator bridging parallel workers back into the
// serial Volcano protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "exec/executor.h"
#include "util/thread_pool.h"

namespace relopt {

/// Shared state used by a parallel fragment (morsel cursors, join partition
/// tables). The Gather resets every piece of shared state on (re)Init, on the
/// coordinating thread, before any worker launches. A serial operator owns a
/// one-worker instance and resets it in its own Init.
class ParallelSharedState {
 public:
  virtual ~ParallelSharedState() = default;
  virtual void Reset() = 0;
};

/// \brief Shared state of a hash-partitioned operator (hash join,
/// aggregation) whose `num_workers` workers meet at a barrier between
/// phases. There is one partition per worker.
///
/// Worker Init is SPMD: every worker must reach every barrier on every path,
/// so errors are parked here (first one wins) and re-raised after the last
/// barrier. With one worker the barrier never blocks and every key is in
/// partition 0 without hashing.
class PartitionedSharedState : public ParallelSharedState {
 public:
  explicit PartitionedSharedState(size_t num_workers)
      : num_workers_(num_workers), barrier_(num_workers) {}

  size_t num_workers() const { return num_workers_; }
  Barrier& barrier() { return barrier_; }

  /// Partition owning encoded key `key`.
  size_t PartitionOf(const std::string& key) const {
    return num_workers_ == 1 ? 0 : std::hash<std::string>{}(key) % num_workers_;
  }

  /// Records the first error any worker hits; later errors are dropped.
  void RecordError(const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      first_error_ = st;
      failed_.store(true, std::memory_order_release);
    }
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Only meaningful after a barrier following the RecordError calls.
  Status first_error() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 protected:
  void ResetError() {
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
  }

 private:
  const size_t num_workers_;
  Barrier barrier_;
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mu_;
  Status first_error_;
};

/// \brief Runs N worker executors on the thread pool and merges their output
/// streams into one iterator.
///
/// Protocol: InitImpl resets shared state and submits one task per worker;
/// each task runs its worker's Init, then drains it, pushing row batches into
/// a bounded queue. NextImpl pops batches. Errors from any worker surface
/// from Next (first error wins) after all workers have stopped. Row order is
/// nondeterministic; operators above (Sort, Aggregate) impose order.
///
/// Re-Init (e.g. under a restarted outer) joins the previous worker
/// generation, resets shared state, and relaunches. The destructor cancels
/// and joins, so abandoning a partially drained Gather (LIMIT) is safe.
class GatherExecutor : public Executor {
 public:
  /// `workers.size()` tasks run concurrently: the context's thread pool must
  /// have at least that many threads (BuildGatherExecutor sizes both from
  /// ExecContext::parallelism, workers never block on unstarted peers).
  GatherExecutor(ExecContext* ctx, Schema schema, std::vector<ExecutorPtr> workers,
                 std::vector<std::shared_ptr<ParallelSharedState>> shared_states);
  ~GatherExecutor() override;

  Status InitImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  /// Adopts one queue batch per call by moving its tuples into `out` —
  /// workers already ship row vectors, so the batch path stops re-flattening
  /// them into single rows.
  Result<bool> NextBatchImpl(TupleBatch* out) override;

 private:
  /// Rows per queue batch: amortizes queue locking without adding latency
  /// anyone can observe (the consumer only ever waits for the *first* batch).
  /// Row-drive mode only; in batch mode workers ship ctx batch_size rows.
  static constexpr size_t kBatchRows = 256;

  void WorkerMain(size_t worker_idx);
  /// Pops the next nonempty queue batch into `batch_`/`batch_idx_`. False at
  /// end of stream; surfaces the first worker error.
  Result<bool> PopBatch();
  /// Blocks while the queue is full; false if cancelled (stop producing).
  bool PushBatch(std::vector<Tuple>* batch);
  /// Cancels and waits until every launched worker has finished.
  void StopWorkers();

  std::vector<ExecutorPtr> workers_;
  std::vector<std::shared_ptr<ParallelSharedState>> shared_states_;

  std::mutex mu_;
  std::condition_variable producer_cv_;  ///< queue has room / cancelled
  std::condition_variable consumer_cv_;  ///< queue nonempty / workers done
  std::deque<std::vector<Tuple>> queue_;
  size_t running_workers_ = 0;
  bool cancelled_ = false;
  bool launched_ = false;
  bool has_error_ = false;
  std::vector<Status> worker_status_;

  // Consumer-side current batch (main thread only).
  std::vector<Tuple> batch_;
  size_t batch_idx_ = 0;
};

}  // namespace relopt
