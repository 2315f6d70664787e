#include "exec/hash_join.h"

#include "expr/vector_eval.h"
#include "types/key_codec.h"

namespace relopt {

namespace {

Schema MakeOutputSchema(const Executor& build, const Executor& probe, bool output_probe_first) {
  return output_probe_first ? Schema::Concat(probe.schema(), build.schema())
                            : Schema::Concat(build.schema(), probe.schema());
}

/// Encoded equi-join key for a row (memcmp-comparable, see EncodeKey);
/// empty optional if any key column is NULL — NULL keys never match.
Result<std::optional<std::string>> JoinKeyOf(const Tuple& t, const std::vector<size_t>& keys) {
  std::vector<Value> vals;
  vals.reserve(keys.size());
  for (size_t k : keys) {
    if (t.At(k).is_null()) return std::optional<std::string>();
    vals.push_back(t.At(k));
  }
  return std::optional<std::string>(EncodeKey(vals));
}

/// Inits and drains `child` in the context's drive mode, calling
/// `fn(&key, &row)` for every row with its encoded join key. Under batch
/// drive the keys of a whole batch are encoded in one tight loop.
template <typename Fn>
Status DrainWithKeys(ExecContext* ctx, Executor* child, const std::vector<size_t>& key_cols,
                     Fn&& fn) {
  RELOPT_RETURN_NOT_OK(child->Init());
  if (ctx->batch_size() > 0) {
    TupleBatch batch(ctx->batch_size());
    std::vector<std::optional<std::string>> keys;
    while (true) {
      RELOPT_ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
      RELOPT_RETURN_NOT_OK(ComputeJoinKeys(batch, key_cols, &keys));
      for (size_t k = 0; k < batch.NumSelected(); ++k) {
        RELOPT_RETURN_NOT_OK(fn(&keys[k], batch.MutableRowAt(batch.selection()[k])));
      }
      if (!has) return Status::OK();
    }
  }
  Tuple t;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, child->Next(&t));
    if (!has) return Status::OK();
    RELOPT_ASSIGN_OR_RETURN(std::optional<std::string> key, JoinKeyOf(t, key_cols));
    RELOPT_RETURN_NOT_OK(fn(&key, &t));
  }
}

}  // namespace

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                                   const Expression* residual, bool output_probe_first)
    : HashJoinExecutor(ctx, std::move(build), std::move(probe), std::move(build_keys),
                       std::move(probe_keys), residual, output_probe_first,
                       std::make_shared<SharedHashJoinState>(1), 0) {
  owns_state_ = true;
}

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr build, ExecutorPtr probe,
                                   std::vector<size_t> build_keys, std::vector<size_t> probe_keys,
                                   const Expression* residual, bool output_probe_first,
                                   std::shared_ptr<SharedHashJoinState> shared, size_t worker_idx)
    : Executor(ctx, MakeOutputSchema(*build, *probe, output_probe_first)),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(residual),
      output_probe_first_(output_probe_first),
      shared_(std::move(shared)),
      worker_idx_(worker_idx),
      owns_state_(false),
      probe_batch_(ctx->batch_size()) {}

Tuple HashJoinExecutor::MakeOutput(const Tuple& probe_row, const Tuple& build_row) const {
  return output_probe_first_ ? Tuple::Concat(probe_row, build_row)
                             : Tuple::Concat(build_row, probe_row);
}

Status HashJoinExecutor::PartitionBuildSide(size_t* bytes) {
  std::vector<std::vector<SharedHashJoinState::KeyedRow>>& mine =
      shared_->worker_partitions(worker_idx_);
  // Only a one-partition join can spill, so only it sizes its input.
  const bool sized = shared_->num_workers() == 1;
  return DrainWithKeys(ctx_, build_.get(), build_keys_,
                       [&](std::optional<std::string>* key, Tuple* row) {
                         if (sized) *bytes += row->Serialize().size() + 16;
                         if (!key->has_value()) return Status::OK();  // NULL keys never match
                         mine[shared_->PartitionOf(**key)].emplace_back(std::move(**key),
                                                                        std::move(*row));
                         return Status::OK();
                       });
}

void HashJoinExecutor::BuildTable() {
  SharedHashJoinState::HashTable& table = shared_->table(worker_idx_);
  size_t total = 0;
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    total += shared_->partition(w, worker_idx_).size();
  }
  table.reserve(total);
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    std::vector<SharedHashJoinState::KeyedRow>& rows = shared_->partition(w, worker_idx_);
    for (SharedHashJoinState::KeyedRow& kr : rows) {
      table.emplace(std::move(kr.first), std::move(kr.second));
    }
    rows.clear();
    rows.shrink_to_fit();
  }
}

Status HashJoinExecutor::InitImpl() {
  matches_.clear();
  match_idx_ = 0;
  probe_batch_.Clear();
  batch_keys_.clear();
  probe_pos_ = 0;
  probe_done_ = false;
  batch_probe_row_ = nullptr;
  grace_ = false;
  build_parts_.clear();
  probe_parts_.clear();
  part_probe_iter_.reset();
  part_idx_ = 0;
  ResetCounters();
  if (owns_state_) shared_->Reset();

  // SPMD discipline: park errors in the shared state and hit both barriers
  // unconditionally, or a sibling deadlocks waiting for us.
  size_t bytes = 0;
  Status st = PartitionBuildSide(&bytes);
  if (!st.ok()) shared_->RecordError(st);
  shared_->barrier().ArriveAndWait();  // all build rows partitioned

  // Only a one-partition join spills, so spilling never strands a sibling.
  const bool spill = bytes > ctx_->operator_memory_pages() * kPageSize;
  if (!shared_->failed() && !spill) BuildTable();
  shared_->barrier().ArriveAndWait();  // all tables built; read-only from here

  if (shared_->failed()) return shared_->first_error();
  if (spill) return SpillBothSides(bytes);
  return probe_->Init();
}

Status HashJoinExecutor::SpillBothSides(size_t bytes) {
  grace_ = true;
  num_partitions_ = std::min<size_t>(64, bytes / (ctx_->operator_memory_pages() * kPageSize) + 2);
  for (size_t i = 0; i < num_partitions_; ++i) {
    RELOPT_ASSIGN_OR_RETURN(HeapFile bp, ctx_->CreateScratchHeap());
    build_parts_.push_back(std::move(bp));
    RELOPT_ASSIGN_OR_RETURN(HeapFile pp, ctx_->CreateScratchHeap());
    probe_parts_.push_back(std::move(pp));
  }
  std::hash<std::string> hasher;
  std::vector<SharedHashJoinState::KeyedRow>& rows = shared_->partition(0, 0);
  for (const SharedHashJoinState::KeyedRow& kr : rows) {
    RELOPT_RETURN_NOT_OK(
        build_parts_[hasher(kr.first) % num_partitions_].Insert(kr.second.Serialize()).status());
  }
  std::vector<SharedHashJoinState::KeyedRow>().swap(rows);
  RELOPT_RETURN_NOT_OK(DrainWithKeys(
      ctx_, probe_.get(), probe_keys_, [&](std::optional<std::string>* key, Tuple* row) {
        if (!key->has_value()) return Status::OK();  // NULL keys never match
        return probe_parts_[hasher(**key) % num_partitions_].Insert(row->Serialize()).status();
      }));
  part_idx_ = 0;
  return LoadPartition();
}

Status HashJoinExecutor::LoadPartition() {
  SharedHashJoinState::HashTable& table = shared_->table(0);
  table.clear();
  part_probe_iter_.reset();
  const size_t build_cols = build_->schema().NumColumns();
  Rid rid;
  std::string bytes;
  for (; part_idx_ < num_partitions_; ++part_idx_) {
    HeapFile::Iterator it(&build_parts_[part_idx_]);
    while (true) {
      RELOPT_ASSIGN_OR_RETURN(bool has, it.Next(&rid, &bytes));
      if (!has) break;
      RELOPT_ASSIGN_OR_RETURN(Tuple row, Tuple::Deserialize(bytes, build_cols));
      RELOPT_ASSIGN_OR_RETURN(std::optional<std::string> key, JoinKeyOf(row, build_keys_));
      table.emplace(std::move(*key), std::move(row));  // spilled keys are never NULL
    }
    // Even an empty build partition must advance past its probe partition.
    if (!table.empty() || probe_parts_[part_idx_].NumPages() > 0) {
      part_probe_iter_ = std::make_unique<HeapFile::Iterator>(&probe_parts_[part_idx_]);
      return Status::OK();
    }
  }
  return Status::OK();
}

Result<bool> HashJoinExecutor::NextProbeRow(Tuple* out) {
  if (!grace_) return probe_->Next(out);
  Rid rid;
  std::string bytes;
  while (part_probe_iter_ != nullptr) {
    RELOPT_ASSIGN_OR_RETURN(bool has, part_probe_iter_->Next(&rid, &bytes));
    if (has) {
      RELOPT_RETURN_NOT_OK(out->FillFrom(bytes, probe_->schema().NumColumns()));
      return true;
    }
    ++part_idx_;
    RELOPT_RETURN_NOT_OK(LoadPartition());
  }
  return false;
}

Result<bool> HashJoinExecutor::NextProbeBatch(TupleBatch* out) {
  if (!grace_) return probe_->NextBatch(out);
  out->Clear();
  const size_t probe_cols = probe_->schema().NumColumns();
  Rid rid;
  std::string bytes;
  while (part_probe_iter_ != nullptr) {
    while (!out->Full()) {
      RELOPT_ASSIGN_OR_RETURN(bool has, part_probe_iter_->Next(&rid, &bytes));
      if (!has) break;
      RELOPT_RETURN_NOT_OK(out->AppendRow()->FillFrom(bytes, probe_cols));
    }
    // Loading the next partition replaces the table the batch's matches
    // point into, so it waits until this batch has been probed.
    if (!out->Empty()) return true;
    ++part_idx_;
    RELOPT_RETURN_NOT_OK(LoadPartition());
  }
  return false;
}

void HashJoinExecutor::FindMatches(const std::string& key) {
  const SharedHashJoinState::HashTable& table = shared_->table(shared_->PartitionOf(key));
  auto [lo, hi] = table.equal_range(key);
  for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
}

Result<bool> HashJoinExecutor::NextImpl(Tuple* out) {
  while (true) {
    while (match_idx_ < matches_.size()) {
      Tuple combined = MakeOutput(probe_tuple_, *matches_[match_idx_++]);
      RELOPT_ASSIGN_OR_RETURN(bool pass, PredicatePasses(residual_, combined));
      if (pass) {
        *out = std::move(combined);
        CountRow();
        return true;
      }
    }
    RELOPT_ASSIGN_OR_RETURN(bool has, NextProbeRow(&probe_tuple_));
    if (!has) return false;
    matches_.clear();
    match_idx_ = 0;
    RELOPT_ASSIGN_OR_RETURN(std::optional<std::string> key, JoinKeyOf(probe_tuple_, probe_keys_));
    if (key.has_value()) FindMatches(*key);  // NULL keys never match
  }
}

Result<bool> HashJoinExecutor::NextBatchImpl(TupleBatch* out) {
  while (true) {
    // Drain the current probe row's match list into the output batch.
    while (match_idx_ < matches_.size()) {
      if (out->Full()) {
        CountRows(out->NumSelected());
        return true;
      }
      Tuple combined = MakeOutput(*batch_probe_row_, *matches_[match_idx_++]);
      RELOPT_ASSIGN_OR_RETURN(bool pass, PredicatePasses(residual_, combined));
      if (pass) *out->AppendRow() = std::move(combined);
    }
    // Advance to the next probe row with a precomputed key.
    if (probe_pos_ < probe_batch_.NumSelected()) {
      size_t k = probe_pos_++;
      matches_.clear();
      match_idx_ = 0;
      const std::optional<std::string>& key = batch_keys_[k];
      if (!key.has_value()) continue;  // NULL keys never match
      batch_probe_row_ = &probe_batch_.SelectedRow(k);
      FindMatches(*key);
      continue;
    }
    if (probe_done_) {
      CountRows(out->NumSelected());
      return false;
    }
    // Refill the probe batch and encode all its keys up front.
    RELOPT_ASSIGN_OR_RETURN(bool has, NextProbeBatch(&probe_batch_));
    if (!has) probe_done_ = true;
    probe_pos_ = 0;
    RELOPT_RETURN_NOT_OK(ComputeJoinKeys(probe_batch_, probe_keys_, &batch_keys_));
  }
}

}  // namespace relopt
