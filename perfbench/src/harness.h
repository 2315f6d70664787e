// Benchmark harness: the workload interface, the closed-loop runner, the
// traced replay, and the statistics they report.
//
// Every measurement is taken from outside the engine: by timing calls into
// its public functions and by diffing its public counters (BufferPool stats,
// the calling thread's LocalIoCounters() of DiskManager and pool traffic,
// PlanCache::stats(), Session::last_metrics(), and the PlanProfile of a
// replayed plan). Nothing here reaches into the engine's internals.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stop_token>
#include <string>
#include <vector>

#include "engine/session.h"

namespace perfbench {

using relopt::Database;
using relopt::QueryResult;
using relopt::Result;
using relopt::Session;
using relopt::Status;
using relopt::Value;

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> values);

/// A latency sample set reduced to a median and a tail: the highest
/// percentile with at least ten samples beyond it, 100 * (1 - 10 / n).
struct LatencySummary {
  size_t samples = 0;
  size_t chunks = 0;
  double p50_us = 0;
  double tail_us = 0;
  double tail_percentile = 0;
};
/// `chunks[k]` names the chunk (a stretch of about a second, see
/// kChunkNanos) that sample k fell in. The median is then the mean of the
/// chunks' medians, weighted by their sample counts: a shared host's speed
/// can switch by 1.5x from one second to the next, and a median taken over a
/// whole window jumps from the fast speed's value to the slow one's as the
/// slow share of the window crosses a half, while this one moves in
/// proportion to that share. Without chunks, the plain median. The tail is
/// over all samples.
LatencySummary Summarize(const std::vector<uint64_t>& nanos,
                         const std::vector<uint32_t>& chunks = {});

/// Summarizes each chunk on its own (as Summarize does without chunks),
/// keeps the fastest `share` of the chunks by median (at least one), and
/// gives the median over the kept chunks of their medians and of their
/// tails; `samples` and `chunks` count what was kept. For the write probe,
/// whose bursts take about 1.5 ms each: a burst runs at the host's
/// fast or its slow speed, 1.7x apart, and the slow share changes from run
/// to run, while the fastest bursts measure the insert path alone.
LatencySummary SummarizeFastest(const std::vector<uint64_t>& nanos,
                                const std::vector<uint32_t>& chunks, double share);

/// Order-independent digest of a result: per-row hashes summed mod 2^64.
uint64_t ResultChecksum(const QueryResult& result);

// --- workloads ---------------------------------------------------------------

/// One statement instance, generated deterministically from the seed.
struct Stmt {
  int tmpl = 0;          ///< template / query index within the workload
  bool write = false;    ///< DML (takes the engine's exclusive statement lock)
  std::vector<Value> params;  ///< bound values when run as a prepared statement
  std::string sql;       ///< the full text with literals (ad-hoc runs and replay)
};

/// Set-up time split by catalog phase.
struct SetupTimes {
  double load_s = 0;
  double index_s = 0;
  double analyze_s = 0;
  double total() const { return load_s + index_s + analyze_s; }
};

/// Outcome of a check: statements checked and how many failed.
struct CheckCount {
  uint64_t checked = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++checked;
    if (!ok) ++failed;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// One sentence: why this workload exists.
  virtual const char* why() const = 0;
  /// Table sizes and traffic shape, for the run metadata.
  virtual std::string sizes() const = 0;
  virtual int num_sessions() const = 0;
  /// Set-ups per run, enough to span several seconds of the run.
  virtual int num_setups() const = 0;
  virtual size_t pool_pages() const = 0;
  /// Statements are issued in whole passes of this many per session, so a
  /// fixed-order workload always measures complete passes.
  virtual uint64_t pass_length() const { return 1; }
  /// True when some statements write. Without writes, a replayed read must
  /// reproduce the Session's result exactly, and the run's write metrics
  /// come from the write probe (RunWriteProbe).
  virtual bool has_writes() const = 0;

  /// Builds the fixture into a fresh `db`, timing load, index and analyze.
  virtual Status Setup(Database* db, SetupTimes* times) = 0;
  /// Untimed: prepares statements for session `s`.
  virtual Status Prepare(int s, Session* session) = 0;
  /// Untimed, once per run on the chosen database: reference results, and
  /// every query re-checked against row-at-a-time execution and greedy join
  /// enumeration where the workload calls for it.
  virtual CheckCount CrossCheck(Database* db) = 0;
  /// The i-th statement of session s (deterministic in seed, s and i; called
  /// in increasing i from the session's own thread).
  virtual Stmt Next(int s, uint64_t i) = 0;
  /// Runs `stmt` through the real Session path.
  virtual Result<QueryResult> Execute(int s, Session* session, const Stmt& stmt) = 0;
  /// Checks one statement's result (called from session s's own thread).
  virtual bool Check(int s, const Stmt& stmt, const QueryResult& result) = 0;
  /// Untimed, after the last window: checks the final table state.
  virtual CheckCount FinalCheck(Database* db) = 0;
};

/// The named workload, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// --- tracing -----------------------------------------------------------------

/// One timed interval at a layer boundary. Spans of one statement share
/// `stmt`; `parent` indexes the enclosing span in the same thread's list
/// (-1 for a root).
struct Span {
  const char* name = "";
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t stmt = 0;
};

/// Per-layer totals from the traced run, summed over statements.
struct LayerTotals {
  uint64_t statements = 0;
  uint64_t reads = 0;  ///< read statements (these are replayed)

  // Replay spans, ns summed over read statements.
  uint64_t parse_ns = 0, bind_ns = 0, rewrite_ns = 0, optimize_ns = 0;
  uint64_t build_ns = 0, init_ns = 0, drive_ns = 0;
  uint64_t optimize_pool_accesses = 0;
  uint64_t joins_costed = 0, csg_cmp_pairs = 0;
  double log_q_error_sum = 0;
  uint64_t q_error_n = 0;
  std::map<std::string, uint64_t> self_ns;  ///< per operator kind
  uint64_t tuples_processed = 0, rows_returned = 0, fallback_rows = 0;

  // Session path of read statements, from last_metrics().
  uint64_t session_read_ns = 0, stmt_opt_ns = 0, stmt_exec_ns = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t negative_gaps = 0;  ///< statements whose parts exceeded their wall

  // Storage, around the Session call of every statement.
  uint64_t page_reads = 0, page_writes = 0, pool_hits = 0, pool_misses = 0;
  uint64_t evictions = 0, dirty_writebacks = 0;

  void Merge(const LayerTotals& other);
};

// --- the closed-loop runner ----------------------------------------------------

/// What one window measured.
struct WindowResult {
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> read_nanos;
  std::vector<uint64_t> write_nanos;
  std::vector<uint32_t> read_chunks;   ///< chunk of each read (see Summarize)
  std::vector<uint32_t> write_chunks;  ///< chunk of each write
  std::map<int, std::vector<uint64_t>> template_nanos;  ///< latency by template
  uint64_t pool_accesses = 0;  ///< buffer-pool fetches by the sessions' threads
  LayerTotals layers;          ///< traced windows only
  std::vector<Span> spans;     ///< traced windows only
  std::vector<uint64_t> checksums;  ///< per session, over its first statements
};

/// A session closes its current chunk at the first pass boundary after the
/// chunk has lasted this long.
inline constexpr uint64_t kChunkNanos = 1000000000;

struct WindowOptions {
  double seconds = 1;
  bool traced = false;
  /// Statements of each session whose results enter `checksums`.
  uint64_t checksum_prefix = 0;
};

/// Drives every session in its own thread, each in a closed loop, until the
/// deadline (then to the end of the current pass). `next_index[s]` is
/// session s's next statement index; it is advanced past what ran.
WindowResult RunWindow(Workload* workload, Database* db, const std::vector<Session*>& sessions,
                       std::vector<uint64_t>* next_index, const WindowOptions& options);

/// What the write probe measured; each burst is one chunk.
struct ProbeResult {
  std::vector<uint64_t> nanos;
  std::vector<uint32_t> chunks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The write probe, for workloads without write traffic. In a database of
/// its own, so that it leaves the workload's pool, catalog and plan cache
/// alone, it inserts bursts of `burst` single rows into a table created
/// afresh for each burst, through the default session, one burst every
/// 100 ms from when `start` is set until a stop is requested. Runs in a
/// thread of its own, started before the warm-up so that the allocator
/// gives it an arena of its own and the window's session threads the same
/// arenas on every run, and bursting beside the untraced window. Each burst
/// is one chunk.
void RunWriteProbe(std::stop_token stop, int burst, const std::atomic<bool>& start,
                   ProbeResult* out);

/// Writes spans as a Chrome trace_event JSON array.
Status WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
