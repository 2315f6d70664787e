#include "exec/aggregate.h"

#include "expr/vector_eval.h"
#include "types/key_codec.h"

namespace relopt {

namespace {

/// Checked int64 accumulation for SUM/AVG: SUM errors instead of wrapping,
/// AVG widens to double (lossy above 2^53, like every double AVG).
Status AccumulateIntSum(int64_t addend, AggFunc func, AggAccumulator* acc) {
  int64_t sum;
  if (!__builtin_add_overflow(acc->sum_i, addend, &sum)) {
    acc->sum_i = sum;
    return Status::OK();
  }
  if (func == AggFunc::kAvg) {
    acc->sum_d = static_cast<double>(acc->sum_i) + static_cast<double>(addend);
    acc->sum_is_int = false;
    return Status::OK();
  }
  return Status::OutOfRange("integer overflow in SUM aggregate");
}

/// Folds one input row into `group`. SQL semantics: COUNT(*) counts rows;
/// COUNT/SUM/MIN/MAX/AVG ignore NULL arguments.
Status AccumulateTuple(const std::vector<AggSpecExec>& aggs, const Tuple& tuple, AggGroup* group) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    AggAccumulator& acc = group->accs[i];
    const AggSpecExec& spec = aggs[i];
    if (spec.func == AggFunc::kCountStar) {
      acc.count++;
      acc.has_value = true;
      continue;
    }
    RELOPT_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(tuple));
    if (v.is_null()) continue;  // aggregates ignore NULLs
    acc.count++;
    switch (spec.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == TypeId::kInt64 && acc.sum_is_int) {
          RELOPT_RETURN_NOT_OK(AccumulateIntSum(v.AsInt(), spec.func, &acc));
        } else {
          if (acc.sum_is_int) {
            acc.sum_d = static_cast<double>(acc.sum_i);
            acc.sum_is_int = false;
          }
          acc.sum_d += v.NumericAsDouble();
        }
        break;
      case AggFunc::kMin: {
        if (!acc.has_value) {
          acc.min = v;
        } else {
          RELOPT_ASSIGN_OR_RETURN(int c, v.Compare(acc.min));
          if (c < 0) acc.min = v;
        }
        break;
      }
      case AggFunc::kMax: {
        if (!acc.has_value) {
          acc.max = v;
        } else {
          RELOPT_ASSIGN_OR_RETURN(int c, v.Compare(acc.max));
          if (c > 0) acc.max = v;
        }
        break;
      }
      default:
        break;
    }
    acc.has_value = true;
  }
  return Status::OK();
}

/// Merges the partial accumulators of `from` into `into` (same group key,
/// accumulated separately by different workers). Merge is associative and
/// commutative with AccumulateTuple — counts and sums add, min/max compare —
/// so partitioned parallel aggregation produces exactly the serial result.
Status MergeAggGroup(const std::vector<AggSpecExec>& aggs, const AggGroup& from, AggGroup* into) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggAccumulator& src = from.accs[i];
    AggAccumulator& dst = into->accs[i];
    const AggSpecExec& spec = aggs[i];
    dst.count += src.count;
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (src.sum_is_int && dst.sum_is_int) {
          RELOPT_RETURN_NOT_OK(AccumulateIntSum(src.sum_i, spec.func, &dst));
        } else {
          if (dst.sum_is_int) {
            dst.sum_d = static_cast<double>(dst.sum_i);
            dst.sum_is_int = false;
          }
          dst.sum_d += src.sum_is_int ? static_cast<double>(src.sum_i) : src.sum_d;
        }
        break;
      case AggFunc::kMin:
        if (src.has_value) {
          if (!dst.has_value) {
            dst.min = src.min;
          } else {
            RELOPT_ASSIGN_OR_RETURN(int c, src.min.Compare(dst.min));
            if (c < 0) dst.min = src.min;
          }
        }
        break;
      case AggFunc::kMax:
        if (src.has_value) {
          if (!dst.has_value) {
            dst.max = src.max;
          } else {
            RELOPT_ASSIGN_OR_RETURN(int c, src.max.Compare(dst.max));
            if (c > 0) dst.max = src.max;
          }
        }
        break;
    }
    dst.has_value = dst.has_value || src.has_value;
  }
  return Status::OK();
}

/// Final value of one aggregate. SUM/MIN/MAX/AVG over zero non-null inputs
/// yield NULL; COUNT yields 0.
Result<Value> FinalizeAggregate(const AggSpecExec& spec, const AggAccumulator& acc) {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (acc.count == 0) return Value::Null();
      return acc.sum_is_int ? Value::Int(acc.sum_i) : Value::Double(acc.sum_d);
    case AggFunc::kAvg: {
      if (acc.count == 0) return Value::Null(TypeId::kDouble);
      double total = acc.sum_is_int ? static_cast<double>(acc.sum_i) : acc.sum_d;
      return Value::Double(total / static_cast<double>(acc.count));
    }
    case AggFunc::kMin:
      return acc.count == 0 ? Value::Null() : acc.min;
    case AggFunc::kMax:
      return acc.count == 0 ? Value::Null() : acc.max;
  }
  return Status::Internal("bad aggregate function");
}

/// Appends `group`'s key values and finalized aggregates to `out`, which
/// must be clear.
Status EmitAggGroup(const std::vector<AggSpecExec>& aggs, const AggGroup& group, Tuple* out) {
  for (const Value& k : group.keys) out->Append(k);
  for (size_t i = 0; i < aggs.size(); ++i) {
    RELOPT_ASSIGN_OR_RETURN(Value v, FinalizeAggregate(aggs[i], group.accs[i]));
    out->Append(std::move(v));
  }
  return Status::OK();
}

/// Finds-or-creates the group for encoded key `enc` in `groups` and folds
/// `tuple` into it. On a miss the group's key values come from
/// `key_value_fn(i)`, the value of group expression `i` for this row, so
/// they are materialized once per group.
template <typename KeyValueFn>
Status AccumulateKeyedRow(KeyValueFn&& key_value_fn, size_t num_keys,
                          const std::vector<AggSpecExec>& aggs, const std::string& enc,
                          const Tuple& tuple, SharedAggregateState::GroupMap* groups) {
  auto it = groups->find(enc);
  if (it == groups->end()) {
    AggGroup group;
    group.keys.reserve(num_keys);
    for (size_t i = 0; i < num_keys; ++i) {
      RELOPT_ASSIGN_OR_RETURN(Value v, key_value_fn(i));
      group.keys.push_back(std::move(v));
    }
    group.accs.resize(aggs.size());
    it = groups->emplace(enc, std::move(group)).first;
  }
  return AccumulateTuple(aggs, tuple, &it->second);
}

}  // namespace

AggregateExecutor::AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                                     std::vector<const Expression*> group_exprs,
                                     std::vector<AggSpecExec> aggs)
    : AggregateExecutor(ctx, std::move(out_schema), std::move(child), std::move(group_exprs),
                        std::move(aggs), std::make_shared<SharedAggregateState>(1), 0) {
  owns_state_ = true;
}

AggregateExecutor::AggregateExecutor(ExecContext* ctx, Schema out_schema, ExecutorPtr child,
                                     std::vector<const Expression*> group_exprs,
                                     std::vector<AggSpecExec> aggs,
                                     std::shared_ptr<SharedAggregateState> shared,
                                     size_t worker_idx)
    : Executor(ctx, std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      key_computer_(&group_exprs_),
      shared_(std::move(shared)),
      worker_idx_(worker_idx),
      owns_state_(false) {}

Status AggregateExecutor::AccumulatePhase() {
  std::vector<SharedAggregateState::GroupMap>& mine = shared_->worker_partitions(worker_idx_);
  RELOPT_RETURN_NOT_OK(child_->Init());
  if (ctx_->batch_size() > 0) {
    TupleBatch batch(ctx_->batch_size());
    std::vector<std::string> keys;
    while (true) {
      RELOPT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
      RELOPT_RETURN_NOT_OK(key_computer_.Compute(batch, &keys, &stats_.fallback_rows));
      for (size_t k = 0; k < batch.NumSelected(); ++k) {
        // Map misses pull key values out of the computer's column vectors
        // instead of re-evaluating the group expressions.
        RELOPT_RETURN_NOT_OK(AccumulateKeyedRow(
            [&](size_t i) -> Result<Value> { return key_computer_.KeyValue(i, k); },
            group_exprs_.size(), aggs_, keys[k], batch.SelectedRow(k),
            &mine[shared_->PartitionOf(keys[k])]));
      }
      if (!has) return Status::OK();
    }
  }
  Tuple t;
  std::string enc;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, child_->Next(&t));
    if (!has) return Status::OK();
    enc.clear();
    for (const Expression* g : group_exprs_) {
      RELOPT_ASSIGN_OR_RETURN(Value v, g->Eval(t));
      EncodeKeyValue(v, &enc);
    }
    RELOPT_RETURN_NOT_OK(AccumulateKeyedRow(
        [&](size_t i) { return group_exprs_[i]->Eval(t); }, group_exprs_.size(), aggs_, enc, t,
        &mine[shared_->PartitionOf(enc)]));
  }
}

Status AggregateExecutor::MergePhase() {
  SharedAggregateState::GroupMap& merged = shared_->merged(worker_idx_);
  for (size_t w = 0; w < shared_->num_workers(); ++w) {
    SharedAggregateState::GroupMap& part = shared_->partition(w, worker_idx_);
    if (merged.empty()) {
      merged = std::move(part);
    } else {
      for (auto& kv : part) {
        auto it = merged.find(kv.first);
        if (it == merged.end()) {
          merged.emplace(kv.first, std::move(kv.second));
        } else {
          RELOPT_RETURN_NOT_OK(MergeAggGroup(aggs_, kv.second, &it->second));
        }
      }
    }
    part.clear();
  }
  // Scalar aggregate over an empty input still yields one (default) row,
  // emitted by the worker owning the empty key's partition.
  if (group_exprs_.empty() && merged.empty() &&
      shared_->PartitionOf(std::string()) == worker_idx_) {
    AggGroup group;
    group.accs.resize(aggs_.size());
    merged.emplace(std::string(), std::move(group));
  }
  return Status::OK();
}

Status AggregateExecutor::InitImpl() {
  merged_ = nullptr;
  ResetCounters();
  if (owns_state_) shared_->Reset();

  // SPMD discipline: park errors in the shared state and hit both barriers
  // unconditionally, or a sibling deadlocks waiting for us.
  Status st = AccumulatePhase();
  if (!st.ok()) shared_->RecordError(st);
  shared_->barrier().ArriveAndWait();  // all input rows partitioned

  if (!shared_->failed()) {
    st = MergePhase();
    if (!st.ok()) shared_->RecordError(st);
  }
  shared_->barrier().ArriveAndWait();  // all partitions merged; errors settled

  if (shared_->failed()) return shared_->first_error();
  merged_ = &shared_->merged(worker_idx_);
  out_iter_ = merged_->begin();
  return Status::OK();
}

Result<bool> AggregateExecutor::NextImpl(Tuple* out) {
  if (merged_ == nullptr || out_iter_ == merged_->end()) return false;
  out->Clear();
  RELOPT_RETURN_NOT_OK(EmitAggGroup(aggs_, out_iter_->second, out));
  ++out_iter_;
  CountRow();
  return true;
}

Result<bool> AggregateExecutor::NextBatchImpl(TupleBatch* out) {
  if (merged_ == nullptr) return false;
  while (!out->Full() && out_iter_ != merged_->end()) {
    RELOPT_RETURN_NOT_OK(EmitAggGroup(aggs_, out_iter_->second, out->AppendRow()));
    ++out_iter_;
  }
  CountRows(out->NumSelected());
  return out_iter_ != merged_->end();
}

}  // namespace relopt
