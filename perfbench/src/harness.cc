#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "exec/executor_factory.h"
#include "exec/plan_profile.h"
#include "expr/binder.h"
#include "optimizer/optimizer.h"
#include "optimizer/rewriter.h"
#include "parser/parser.h"
#include "storage/io_counters.h"
#include "util/str_util.h"
#include "util/timer.h"

namespace perfbench {

using relopt::MonotonicNanos;

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// Linear interpolation between order statistics (sorted input).
double Percentile(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1 - frac) + static_cast<double>(sorted[hi]) * frac;
}

/// The highest percentile with ten samples beyond it among n; below 20
/// samples, the median.
double TailPercentile(size_t n) {
  return std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

}  // namespace

LatencySummary Summarize(const std::vector<uint64_t>& nanos,
                         const std::vector<uint32_t>& chunks) {
  LatencySummary out;
  out.samples = nanos.size();
  if (nanos.empty()) return out;
  std::map<uint32_t, std::vector<uint64_t>> by_chunk;
  for (size_t k = 0; k < nanos.size(); ++k) {
    by_chunk[chunks.empty() ? 0 : chunks[k]].push_back(nanos[k]);
  }
  out.chunks = chunks.empty() ? 0 : by_chunk.size();
  double p50 = 0;
  for (auto& [chunk, samples] : by_chunk) {
    std::sort(samples.begin(), samples.end());
    p50 += Percentile(samples, 50) * static_cast<double>(samples.size());
  }
  out.p50_us = p50 / static_cast<double>(nanos.size()) / 1e3;
  std::vector<uint64_t> sorted = nanos;
  std::sort(sorted.begin(), sorted.end());
  out.tail_percentile = TailPercentile(sorted.size());
  out.tail_us = Percentile(sorted, out.tail_percentile) / 1e3;
  return out;
}

LatencySummary SummarizeFastest(const std::vector<uint64_t>& nanos,
                                const std::vector<uint32_t>& chunks, double share) {
  std::map<uint32_t, std::vector<uint64_t>> by_chunk;
  for (size_t k = 0; k < nanos.size(); ++k) by_chunk[chunks[k]].push_back(nanos[k]);
  std::vector<LatencySummary> ranked;
  for (const auto& [chunk, samples] : by_chunk) ranked.push_back(Summarize(samples));
  std::sort(ranked.begin(), ranked.end(),
            [](const LatencySummary& a, const LatencySummary& b) { return a.p50_us < b.p50_us; });
  ranked.resize(std::min(ranked.size(),
                         std::max<size_t>(1, static_cast<size_t>(std::lround(
                                                 share * static_cast<double>(ranked.size()))))));
  LatencySummary out;
  out.chunks = ranked.size();
  std::vector<double> p50s, tails, tail_percentiles;
  for (const LatencySummary& chunk : ranked) {
    out.samples += chunk.samples;
    p50s.push_back(chunk.p50_us);
    tails.push_back(chunk.tail_us);
    tail_percentiles.push_back(chunk.tail_percentile);
  }
  out.p50_us = Median(p50s);
  out.tail_us = Median(tails);
  out.tail_percentile = Median(tail_percentiles);
  return out;
}

uint64_t ResultChecksum(const QueryResult& result) {
  uint64_t sum = 0;
  std::hash<std::string> hasher;
  for (const relopt::Tuple& row : result.rows) {
    std::string rendered;
    for (size_t i = 0; i < row.NumValues(); ++i) {
      rendered += row.At(i).ToString();
      rendered += '|';
    }
    sum += hasher(rendered);
  }
  return sum;
}

void LayerTotals::Merge(const LayerTotals& o) {
  statements += o.statements;
  reads += o.reads;
  parse_ns += o.parse_ns;
  bind_ns += o.bind_ns;
  rewrite_ns += o.rewrite_ns;
  optimize_ns += o.optimize_ns;
  build_ns += o.build_ns;
  init_ns += o.init_ns;
  drive_ns += o.drive_ns;
  optimize_pool_accesses += o.optimize_pool_accesses;
  joins_costed += o.joins_costed;
  csg_cmp_pairs += o.csg_cmp_pairs;
  log_q_error_sum += o.log_q_error_sum;
  q_error_n += o.q_error_n;
  for (const auto& [op, ns] : o.self_ns) self_ns[op] += ns;
  tuples_processed += o.tuples_processed;
  rows_returned += o.rows_returned;
  fallback_rows += o.fallback_rows;
  session_read_ns += o.session_read_ns;
  stmt_opt_ns += o.stmt_opt_ns;
  stmt_exec_ns += o.stmt_exec_ns;
  plan_cache_hits += o.plan_cache_hits;
  negative_gaps += o.negative_gaps;
  page_reads += o.page_reads;
  page_writes += o.page_writes;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  evictions += o.evictions;
  dirty_writebacks += o.dirty_writebacks;
}

// --- tracing -----------------------------------------------------------------

namespace {

/// One thread's span list. Spans are kept in memory and written at the end.
class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(spans) {}

  int32_t Begin(const char* name, uint64_t stmt, int32_t parent) {
    Span span;
    span.name = name;
    span.stmt = stmt;
    span.parent = parent;
    span.start_ns = MonotonicNanos();
    spans_->push_back(span);
    return static_cast<int32_t>(spans_->size() - 1);
  }
  /// Ends span `idx` and returns its duration.
  uint64_t End(int32_t idx) {
    Span& span = (*spans_)[static_cast<size_t>(idx)];
    span.end_ns = MonotonicNanos();
    return span.end_ns - span.start_ns;
  }

 private:
  std::vector<Span>* spans_;
};

/// Operator self time: inclusive wall minus the children's inclusive wall.
void AccumulateProfile(const relopt::OperatorProfile& node, LayerTotals* totals) {
  uint64_t children_ns = 0;
  for (const relopt::OperatorProfile& child : node.children) {
    children_ns += child.stats.wall_nanos;
    AccumulateProfile(child, totals);
  }
  const uint64_t wall = node.stats.wall_nanos;
  totals->self_ns[node.op] += wall > children_ns ? wall - children_ns : 0;
  totals->log_q_error_sum += std::log(node.q_error());
  ++totals->q_error_n;
  totals->fallback_rows += node.stats.fallback_rows;
}

uint64_t PoolAccesses(const relopt::ThreadIoCounters& c) { return c.pool_hits + c.pool_misses; }

/// Replays a read statement layer by layer: parse, bind, rewrite, optimize,
/// executor build, Init and drive, each call inside its own span. Returns
/// the replayed result's checksum.
Result<uint64_t> Replay(Database* db, const relopt::SessionOptions& options, const Stmt& stmt,
                        uint64_t stmt_id, int32_t parent, Tracer* tracer, LayerTotals* totals) {
  int32_t span = tracer->Begin("parser.parse", stmt_id, parent);
  Result<relopt::StatementPtr> parsed = relopt::ParseStatement(stmt.sql);
  totals->parse_ns += tracer->End(span);
  RELOPT_RETURN_NOT_OK(parsed.status());
  if ((*parsed)->kind != relopt::StatementKind::kSelect) {
    return Status::InvalidArgument("replay expects a SELECT: " + stmt.sql);
  }

  span = tracer->Begin("expr.bind", stmt_id, parent);
  relopt::Binder binder(db->catalog());
  Result<relopt::LogicalPtr> bound =
      binder.BindSelect(static_cast<relopt::SelectStmt*>(parsed->get()));
  totals->bind_ns += tracer->End(span);
  RELOPT_RETURN_NOT_OK(bound.status());

  span = tracer->Begin("optimizer.rewrite", stmt_id, parent);
  Result<relopt::LogicalPtr> normalized = relopt::NormalizeLogicalPlan(std::move(*bound));
  totals->rewrite_ns += tracer->End(span);
  RELOPT_RETURN_NOT_OK(normalized.status());

  // The same option sync the Session performs before it optimizes.
  relopt::OptimizerOptions opt_options = options.optimizer;
  opt_options.buffer_pages = db->pool()->capacity();
  opt_options.vectorized = options.vectorized;
  opt_options.feedback = nullptr;
  relopt::OptimizeInfo info;
  const uint64_t pool_before = PoolAccesses(relopt::LocalIoCounters());
  span = tracer->Begin("optimizer.optimize", stmt_id, parent);
  relopt::Optimizer optimizer(db->catalog(), opt_options);
  Result<relopt::PhysicalPtr> plan = optimizer.Optimize(std::move(*normalized), &info);
  totals->optimize_ns += tracer->End(span);
  totals->optimize_pool_accesses += PoolAccesses(relopt::LocalIoCounters()) - pool_before;
  RELOPT_RETURN_NOT_OK(plan.status());
  totals->joins_costed += info.enum_stats.joins_costed;
  totals->csg_cmp_pairs += info.enum_stats.csg_cmp_pairs;

  const size_t batch_size = options.vectorized ? options.batch_size : 0;
  relopt::ExecContext ctx(db->catalog(), db->pool(), nullptr, 1, batch_size);
  QueryResult result;
  span = tracer->Begin("exec.build", stmt_id, parent);
  Result<relopt::ExecutorPtr> root = relopt::BuildExecutor(&ctx, plan->get());
  totals->build_ns += tracer->End(span);
  RELOPT_RETURN_NOT_OK(root.status());

  span = tracer->Begin("exec.init", stmt_id, parent);
  Status init = (*root)->Init();
  totals->init_ns += tracer->End(span);
  RELOPT_RETURN_NOT_OK(init);

  span = tracer->Begin("exec.drive", stmt_id, parent);
  Status drive = [&]() -> Status {
    if (batch_size > 0) {
      relopt::TupleBatch batch(batch_size);
      while (true) {
        RELOPT_ASSIGN_OR_RETURN(bool has, (*root)->NextBatch(&batch));
        for (uint32_t i : batch.selection()) {
          result.rows.push_back(std::move(*batch.MutableRowAt(i)));
        }
        if (!has) return Status::OK();
      }
    }
    relopt::Tuple row;
    while (true) {
      RELOPT_ASSIGN_OR_RETURN(bool has, (*root)->Next(&row));
      if (!has) return Status::OK();
      result.rows.push_back(std::move(row));
    }
  }();
  totals->drive_ns += tracer->End(span);
  ctx.Quiesce();
  RELOPT_RETURN_NOT_OK(drive);

  relopt::PlanProfile profile = relopt::BuildPlanProfile(**plan, ctx);
  AccumulateProfile(profile.root, totals);
  totals->tuples_processed += ctx.tuples_processed.load();
  totals->rows_returned += result.rows.size();
  return ResultChecksum(result);
}

struct ThreadState {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> read_nanos;
  std::vector<uint64_t> write_nanos;
  std::vector<uint32_t> read_chunks;
  std::vector<uint32_t> write_chunks;
  std::map<int, std::vector<uint64_t>> template_nanos;
  uint64_t pool_accesses = 0;
  uint64_t checksum = 0;
  LayerTotals layers;
  std::vector<Span> spans;
};

/// Pause between two bursts of the write probe.
constexpr std::chrono::milliseconds kProbeInterval{100};

/// Prints the first few failures of a run to stderr, for diagnosis.
void ReportFailure(const Stmt& stmt, const std::string& why) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "check failed: template %d: %s\n  %s\n", stmt.tmpl, why.c_str(),
                 stmt.sql.c_str());
  }
}

}  // namespace

WindowResult RunWindow(Workload* workload, Database* db, const std::vector<Session*>& sessions,
                       std::vector<uint64_t>* next_index, const WindowOptions& options) {
  const size_t n = sessions.size();
  std::vector<ThreadState> states(n);
  // Traced runs replay reads outside the engine's statement lock, so the
  // harness keeps writes and replays apart with its own lock.
  std::shared_mutex replay_mu;
  const uint64_t start = MonotonicNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(options.seconds * 1e9);
  const uint64_t pass = workload->pass_length();

  auto run_session = [&](size_t s) {
    ThreadState& st = states[s];
    Session* session = sessions[s];
    Tracer tracer(&st.spans);
    uint64_t i = (*next_index)[s];
    const uint64_t first = i;
    const uint64_t io_before = PoolAccesses(relopt::LocalIoCounters());
    // Chunk ids are unique across sessions.
    uint32_t chunk = static_cast<uint32_t>(s) << 20;
    uint64_t chunk_start = MonotonicNanos();
    while (i % pass != 0 || (i - first < options.checksum_prefix) ||
           MonotonicNanos() < deadline) {
      if (i % pass == 0 && MonotonicNanos() - chunk_start >= kChunkNanos) {
        ++chunk;
        chunk_start = MonotonicNanos();
      }
      const Stmt stmt = workload->Next(static_cast<int>(s), i);
      const uint64_t stmt_id = (static_cast<uint64_t>(s) << 48) | i;
      ++st.attempted;
      int32_t root = -1;
      if (options.traced) root = tracer.Begin(stmt.write ? "write" : "read", stmt_id, -1);

      const relopt::ThreadIoCounters io0 = relopt::LocalIoCounters();
      const relopt::BufferPoolStats pool0 = db->pool()->stats();
      std::unique_lock<std::shared_mutex> write_guard(replay_mu, std::defer_lock);
      if (options.traced && stmt.write) write_guard.lock();
      const int32_t session_span =
          options.traced ? tracer.Begin("engine.session", stmt_id, root) : -1;
      const uint64_t t0 = MonotonicNanos();
      Result<QueryResult> result = workload->Execute(static_cast<int>(s), session, stmt);
      const uint64_t wall = MonotonicNanos() - t0;
      if (options.traced) tracer.End(session_span);
      if (write_guard.owns_lock()) write_guard.unlock();
      (stmt.write ? st.write_nanos : st.read_nanos).push_back(wall);
      (stmt.write ? st.write_chunks : st.read_chunks).push_back(chunk);
      st.template_nanos[stmt.tmpl].push_back(wall);

      bool ok = result.ok();
      if (!ok) {
        ReportFailure(stmt, result.status().ToString());
      } else if (!workload->Check(static_cast<int>(s), stmt, *result)) {
        ok = false;
        ReportFailure(stmt, "wrong result");
      }
      if (ok && i - first < options.checksum_prefix) st.checksum += ResultChecksum(*result);

      if (options.traced) {
        LayerTotals& lt = st.layers;
        const relopt::ThreadIoCounters io1 = relopt::LocalIoCounters();
        const relopt::BufferPoolStats pool1 = db->pool()->stats();
        ++lt.statements;
        lt.page_reads += io1.page_reads - io0.page_reads;
        lt.page_writes += io1.page_writes - io0.page_writes;
        lt.pool_hits += io1.pool_hits - io0.pool_hits;
        lt.pool_misses += io1.pool_misses - io0.pool_misses;
        // Evictions and write-backs have only engine-wide counters.
        lt.evictions += pool1.evictions - pool0.evictions;
        lt.dirty_writebacks += pool1.dirty_writebacks - pool0.dirty_writebacks;
        if (!stmt.write && ok) {
          const relopt::ExecutionMetrics& m = session->last_metrics();
          ++lt.reads;
          lt.session_read_ns += wall;
          lt.stmt_opt_ns += m.opt_nanos;
          lt.stmt_exec_ns += m.exec_nanos;
          if (m.opt_nanos + m.exec_nanos > wall) ++lt.negative_gaps;
          if (m.plan_cache_hit) ++lt.plan_cache_hits;

          std::shared_lock<std::shared_mutex> replay_guard(replay_mu);
          const int32_t replay_span = tracer.Begin("replay", stmt_id, root);
          Result<uint64_t> replayed =
              Replay(db, session->options(), stmt, stmt_id, replay_span, &tracer, &lt);
          tracer.End(replay_span);
          if (!replayed.ok()) {
            ok = false;
            ReportFailure(stmt, "replay: " + replayed.status().ToString());
          } else if (!workload->has_writes() && *replayed != ResultChecksum(*result)) {
            ok = false;
            ReportFailure(stmt, "replay result differs from the Session result");
          }
        }
        tracer.End(root);
      }
      if (!ok) ++st.failed;
      ++i;
    }
    (*next_index)[s] = i;
    st.pool_accesses = PoolAccesses(relopt::LocalIoCounters()) - io_before;
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t s = 0; s < n; ++s) threads.emplace_back(run_session, s);
  for (std::thread& t : threads) t.join();

  WindowResult out;
  out.seconds = static_cast<double>(MonotonicNanos() - start) / 1e9;
  for (size_t s = 0; s < n; ++s) {
    ThreadState& st = states[s];
    out.attempted += st.attempted;
    out.failed += st.failed;
    out.read_nanos.insert(out.read_nanos.end(), st.read_nanos.begin(), st.read_nanos.end());
    out.write_nanos.insert(out.write_nanos.end(), st.write_nanos.begin(), st.write_nanos.end());
    out.read_chunks.insert(out.read_chunks.end(), st.read_chunks.begin(), st.read_chunks.end());
    out.write_chunks.insert(out.write_chunks.end(), st.write_chunks.begin(),
                            st.write_chunks.end());
    for (const auto& [tmpl, nanos] : st.template_nanos) {
      std::vector<uint64_t>& all = out.template_nanos[tmpl];
      all.insert(all.end(), nanos.begin(), nanos.end());
    }
    out.pool_accesses += st.pool_accesses;
    out.checksums.push_back(st.checksum);
    out.layers.Merge(st.layers);
    // Parents index the thread's own list; rebase them into the merged one.
    const int32_t base = static_cast<int32_t>(out.spans.size());
    for (Span span : st.spans) {
      span.thread = static_cast<uint32_t>(s);
      if (span.parent >= 0) span.parent += base;
      out.spans.push_back(span);
    }
  }
  return out;
}

void RunWriteProbe(std::stop_token stop, int burst, const std::atomic<bool>& start,
                   ProbeResult* out) {
  Database db;
  uint64_t elapsed = 0;  // of the last statement
  auto execute = [&](const std::string& sql) -> bool {
    ++out->attempted;
    const uint64_t t0 = MonotonicNanos();
    Result<QueryResult> result = db.Execute(sql);
    elapsed = MonotonicNanos() - t0;
    if (!result.ok()) {
      ++out->failed;
      ReportFailure(Stmt{}, "write probe: " + result.status().ToString());
    }
    return result.ok();
  };
  while (!start.load() && !stop.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (uint32_t chunk = 0; !stop.stop_requested(); ++chunk) {
    // Every burst starts on an empty table, so that a burst's inserts do not
    // depend on how many bursts came before it.
    if (chunk > 0 && !execute("DROP TABLE write_probe")) return;
    if (!execute("CREATE TABLE write_probe (id INT, val INT, note TEXT)")) return;
    // The first insert, untimed, brings the insert path back into the
    // caches after the pause.
    for (int id = 0; id <= burst; ++id) {
      execute(relopt::StringPrintf("INSERT INTO write_probe VALUES (%d, %d, 'probe-row')", id,
                                   id % 1000));
      if (id > 0) {
        out->nanos.push_back(elapsed);
        out->chunks.push_back(chunk);
      }
    }
    std::this_thread::sleep_for(kProbeInterval);
  }
}

Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  uint64_t epoch = UINT64_MAX;
  for (const Span& span : spans) epoch = std::min(epoch, span.start_ns);
  out << "[\n";
  for (size_t k = 0; k < spans.size(); ++k) {
    const Span& span = spans[k];
    out << relopt::StringPrintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"stmt\":%llu,\"span\":%zu,\"parent\":%d}}%s\n",
        relopt::JsonEscape(span.name).c_str(), static_cast<unsigned long long>(span.thread),
        static_cast<double>(span.start_ns - epoch) / 1e3,
        static_cast<double>(span.end_ns - span.start_ns) / 1e3,
        static_cast<unsigned long long>(span.stmt & ((1ULL << 48) - 1)), k, span.parent,
        k + 1 < spans.size() ? "," : "");
  }
  out << "]\n";
  return out.good() ? Status::OK() : Status::Internal("short write to " + path);
}

}  // namespace perfbench
