#include "exec/parallel_plan.h"

#include <unordered_map>

#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/gather.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/seq_scan.h"

namespace relopt {

bool SubtreeParallelizable(const PhysicalNode& plan) {
  switch (plan.kind()) {
    case PhysicalNodeKind::kSeqScan:
      return true;
    case PhysicalNodeKind::kFilter:
    case PhysicalNodeKind::kProject:
      return SubtreeParallelizable(*plan.child(0));
    case PhysicalNodeKind::kHashJoin:
      return SubtreeParallelizable(*plan.child(0)) && SubtreeParallelizable(*plan.child(1));
    case PhysicalNodeKind::kAggregate:
      return SubtreeParallelizable(*plan.child(0));
    default:
      return false;
  }
}

namespace {

/// Shared-state registry spanning the per-worker fragment builds: the first
/// worker to reach a plan node creates its shared state, later workers reuse
/// it, so all clones of one scan pull from one morsel cursor and all clones
/// of one join meet at one barrier.
struct FragmentBuildState {
  std::unordered_map<const PhysicalNode*, std::shared_ptr<MorselSource>> morsels;
  std::unordered_map<const PhysicalNode*, std::shared_ptr<SharedHashJoinState>> joins;
  std::unordered_map<const PhysicalNode*, std::shared_ptr<SharedAggregateState>> aggregates;
  std::vector<std::shared_ptr<ParallelSharedState>> all;
};

Result<ExecutorPtr> BuildFragment(ExecContext* ctx, const PhysicalNode* plan, size_t worker_idx,
                                  FragmentBuildState* state) {
  switch (plan->kind()) {
    case PhysicalNodeKind::kSeqScan: {
      const auto* node = static_cast<const PhysSeqScan*>(plan);
      std::shared_ptr<MorselSource>& src = state->morsels[plan];
      if (src == nullptr) {
        RELOPT_ASSIGN_OR_RETURN(TableInfo * table, ctx->catalog()->GetTable(node->table_name()));
        src = std::make_shared<MorselSource>(table->heap());
        state->all.push_back(src);
      }
      auto exec = std::make_unique<SeqScanExecutor>(ctx, node->schema(), src.get());
      ctx->RegisterExecutor(plan, exec.get());
      return ExecutorPtr(std::move(exec));
    }
    case PhysicalNodeKind::kFilter: {
      const auto* node = static_cast<const PhysFilter*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child,
                              BuildFragment(ctx, node->child(0), worker_idx, state));
      auto exec = std::make_unique<FilterExecutor>(ctx, std::move(child), node->predicate());
      ctx->RegisterExecutor(plan, exec.get());
      return ExecutorPtr(std::move(exec));
    }
    case PhysicalNodeKind::kProject: {
      const auto* node = static_cast<const PhysProject*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child,
                              BuildFragment(ctx, node->child(0), worker_idx, state));
      auto exec = std::make_unique<ProjectExecutor>(ctx, node->schema(), std::move(child),
                                                    &node->exprs());
      ctx->RegisterExecutor(plan, exec.get());
      return ExecutorPtr(std::move(exec));
    }
    case PhysicalNodeKind::kHashJoin: {
      const auto* node = static_cast<const PhysHashJoin*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr build,
                              BuildFragment(ctx, node->child(0), worker_idx, state));
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr probe,
                              BuildFragment(ctx, node->child(1), worker_idx, state));
      std::shared_ptr<SharedHashJoinState>& shared = state->joins[plan];
      if (shared == nullptr) {
        shared = std::make_shared<SharedHashJoinState>(ctx->parallelism());
        state->all.push_back(shared);
      }
      auto exec = std::make_unique<HashJoinExecutor>(
          ctx, std::move(build), std::move(probe), node->build_keys(), node->probe_keys(),
          node->residual(), node->output_probe_first(), shared, worker_idx);
      ctx->RegisterExecutor(plan, exec.get());
      return ExecutorPtr(std::move(exec));
    }
    case PhysicalNodeKind::kAggregate: {
      const auto* node = static_cast<const PhysAggregate*>(plan);
      RELOPT_ASSIGN_OR_RETURN(ExecutorPtr child,
                              BuildFragment(ctx, node->child(0), worker_idx, state));
      std::shared_ptr<SharedAggregateState>& shared = state->aggregates[plan];
      if (shared == nullptr) {
        shared = std::make_shared<SharedAggregateState>(ctx->parallelism());
        state->all.push_back(shared);
      }
      std::vector<const Expression*> group_exprs;
      for (const ExprPtr& g : node->group_by()) group_exprs.push_back(g.get());
      std::vector<AggSpecExec> aggs;
      for (const PhysAggregate::Agg& a : node->aggs()) {
        aggs.push_back(AggSpecExec{a.func, a.arg.get()});
      }
      auto exec = std::make_unique<AggregateExecutor>(
          ctx, node->schema(), std::move(child), std::move(group_exprs), std::move(aggs), shared,
          worker_idx);
      ctx->RegisterExecutor(plan, exec.get());
      return ExecutorPtr(std::move(exec));
    }
    default:
      return Status::Internal("BuildFragment: node kind is not parallelizable");
  }
}

}  // namespace

Result<ExecutorPtr> BuildGatherExecutor(ExecContext* ctx, const PhysicalNode* plan) {
  const size_t n = ctx->parallelism();
  FragmentBuildState state;
  std::vector<ExecutorPtr> workers;
  workers.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    RELOPT_ASSIGN_OR_RETURN(ExecutorPtr frag, BuildFragment(ctx, plan, w, &state));
    workers.push_back(std::move(frag));
  }
  return ExecutorPtr(std::make_unique<GatherExecutor>(ctx, plan->schema(), std::move(workers),
                                                      std::move(state.all)));
}

}  // namespace relopt
