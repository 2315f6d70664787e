// relopt_perfbench: runs one benchmark workload and prints its metrics.
//
//   relopt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--report-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced closed-loop window.
// --trace 1 runs an untraced window and then a traced one over the same
// statement stream, and prints the per-layer metrics with the tracing
// overhead measured against the untraced half. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every output check passed.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "harness.h"
#include "util/str_util.h"
#include "util/timer.h"

namespace perfbench {
namespace {

constexpr uint64_t kChecksumPrefix = 20;  ///< warm-up statements per session
constexpr int kProbeBurst = 400;          ///< write-probe INSERTs per burst
constexpr double kProbeShare = 0.1;       ///< share of probe bursts summarized

/// Operator kinds that the four workloads' plans contain.
const char* const kOperatorKinds[] = {"SeqScan",   "IndexScan", "Filter",
                                      "Project",   "HashJoin",  "IndexNestedLoopJoin",
                                      "Aggregate", "Sort"};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count, percentile, and the like
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string report_dir = ".bench_build/reports";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string value = argv[k + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--report-dir") {
      args->report_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed && args->seconds > 0 &&
         args->trace >= 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Statements per second of time spent inside the engine's calls, summed
/// over sessions: the closed loop's throughput without the harness's own
/// checking between statements.
double EngineThroughput(const WindowResult& w, size_t sessions) {
  uint64_t busy = 0;
  for (uint64_t ns : w.read_nanos) busy += ns;
  for (uint64_t ns : w.write_nanos) busy += ns;
  const uint64_t stmts = w.read_nanos.size() + w.write_nanos.size();
  if (busy == 0) return 0;
  return static_cast<double>(stmts) * static_cast<double>(sessions) /
         (static_cast<double>(busy) / 1e9);
}

std::string LatencyNote(const LatencySummary& s, const char* source) {
  return relopt::StringPrintf("n=%zu in %zu chunks, tail p%g, %s", s.samples, s.chunks,
                              s.tail_percentile, source);
}

/// Per-layer metrics from a traced window (and its untraced twin).
std::vector<Metric> LayerMetrics(const WindowResult& traced, const WindowResult& untraced,
                                 const std::vector<SetupTimes>& setups) {
  const LayerTotals& t = traced.layers;
  const double reads = static_cast<double>(t.reads);
  const double stmts = static_cast<double>(t.statements);
  auto per_read_us = [&](uint64_t ns) { return static_cast<double>(ns) / 1e3 / reads; };
  auto per_stmt = [&](uint64_t n) { return static_cast<double>(n) / stmts; };
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const std::string rn = relopt::StringPrintf("mean per read, n=%llu",
                                              static_cast<unsigned long long>(t.reads));
  const std::string sn = relopt::StringPrintf("mean per statement, n=%llu",
                                              static_cast<unsigned long long>(t.statements));

  std::vector<Metric> m = {
      {"parser.parse_us", per_read_us(t.parse_ns), "us", rn},
      {"expr.bind_us", per_read_us(t.bind_ns), "us", rn},
      {"optimizer.rewrite_us", per_read_us(t.rewrite_ns), "us", rn},
      {"optimizer.optimize_us", per_read_us(t.optimize_ns), "us", rn},
      {"optimizer.pool_accesses", static_cast<double>(t.optimize_pool_accesses) / reads,
       "count", rn},
      {"optimizer.joins_costed", static_cast<double>(t.joins_costed) / reads, "count", rn},
      {"optimizer.csg_cmp_pairs", static_cast<double>(t.csg_cmp_pairs) / reads, "count", rn},
      {"optimizer.q_error_geomean",
       t.q_error_n == 0 ? 1.0 : std::exp(t.log_q_error_sum / static_cast<double>(t.q_error_n)),
       "ratio", relopt::StringPrintf("over %llu operators",
                                     static_cast<unsigned long long>(t.q_error_n))},
      {"engine.plan_cache_hit_rate", ratio(t.plan_cache_hits, t.reads), "fraction", rn},
      {"engine.stmt_opt_us", per_read_us(t.stmt_opt_ns), "us", rn},
      {"engine.stmt_exec_us", per_read_us(t.stmt_exec_ns), "us", rn},
      {"engine.stmt_unattributed_us",
       per_read_us(t.session_read_ns - std::min(t.session_read_ns, t.stmt_opt_ns + t.stmt_exec_ns)),
       "us", rn},
      {"exec.build_us", per_read_us(t.build_ns), "us", rn},
      {"exec.init_us", per_read_us(t.init_ns), "us", rn},
      {"exec.drive_us", per_read_us(t.drive_ns), "us", rn},
  };
  for (const char* op : kOperatorKinds) {
    auto it = t.self_ns.find(op);
    m.push_back({std::string("exec.self_us.") + op,
                 per_read_us(it == t.self_ns.end() ? 0 : it->second), "us", rn});
  }
  std::vector<double> load, index, analyze;
  for (const SetupTimes& s : setups) {
    load.push_back(s.load_s);
    index.push_back(s.index_s);
    analyze.push_back(s.analyze_s);
  }
  const std::string setup_note = relopt::StringPrintf("median of %zu set-ups", setups.size());
  double untraced_read_ns = 0;
  for (uint64_t ns : untraced.read_nanos) untraced_read_ns += static_cast<double>(ns);
  untraced_read_ns /= static_cast<double>(std::max<size_t>(1, untraced.read_nanos.size()));
  const double traced_read_ns = static_cast<double>(t.session_read_ns) / reads;
  std::vector<Metric> rest = {
      {"exec.rows_examined_per_row", ratio(t.tuples_processed, t.rows_returned), "ratio",
       "operator tuples / rows returned"},
      {"expr.fallback_rows", static_cast<double>(t.fallback_rows) / reads, "count", rn},
      {"storage.page_reads", per_stmt(t.page_reads), "count", sn},
      {"storage.page_writes", per_stmt(t.page_writes), "count", sn},
      {"storage.pool_hit_rate", ratio(t.pool_hits, t.pool_hits + t.pool_misses), "fraction", sn},
      {"storage.evictions", per_stmt(t.evictions), "count", sn},
      {"storage.dirty_writebacks", per_stmt(t.dirty_writebacks), "count", sn},
      {"catalog.load_s", Median(load), "s", setup_note},
      {"catalog.index_s", Median(index), "s", setup_note},
      {"catalog.analyze_s", Median(analyze), "s", setup_note},
      {"trace.overhead_frac", traced_read_ns / untraced_read_ns - 1.0, "fraction",
       "traced vs untraced mean Session read latency"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return relopt::StringPrintf("%.17g", v);
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_notes) {
  std::string out = "{";
  for (size_t k = 0; k < metrics.size(); ++k) {
    const Metric& m = metrics[k];
    out += relopt::StringPrintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"", k ? ", " : "",
                                m.name.c_str(), JsonNumber(m.value).c_str(), m.unit.c_str());
    if (with_notes) out += ", \"note\": \"" + relopt::JsonEscape(m.note) + "\"";
    out += "}";
  }
  return out + "}";
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  relopt::SessionOptions options;
  options.buffer_pool_pages = workload->pool_pages();

  // Set-up, timed apart from the measured windows. The windows use the
  // first database; the other set-ups run after them. A shared host's speed
  // drifts over seconds, so set-ups at both ends of the run give a steadier
  // median, and the peak RSS, read before the closing set-ups, holds one
  // database and its workload rather than the allocator's leftovers from
  // earlier set-ups.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_walls;
  auto set_up = [&](std::unique_ptr<Database>* db) -> bool {
    db->reset();
    const uint64_t start = relopt::MonotonicNanos();
    *db = std::make_unique<Database>(options);
    SetupTimes times;
    Status s = workload->Setup(db->get(), &times);
    setup_walls.push_back(static_cast<double>(relopt::MonotonicNanos() - start) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return false;
    }
    setups.push_back(times);
    return true;
  };
  std::unique_ptr<Database> db;
  if (!set_up(&db)) return 1;

  std::vector<Session*> sessions;
  for (int s = 0; s < workload->num_sessions(); ++s) {
    sessions.push_back(db->CreateSession());
    Status prepared = workload->Prepare(s, sessions.back());
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
      return 1;
    }
  }

  // Workloads without write traffic measure writes with the write probe,
  // which bursts beside the untraced window (see RunWriteProbe).
  const bool probed = !workload->has_writes();
  ProbeResult probe;
  std::atomic<bool> start_probe{false};
  std::jthread probe_thread;
  if (probed) {
    probe_thread = std::jthread(RunWriteProbe, kProbeBurst, std::cref(start_probe), &probe);
  }

  // Untimed: reference results and cross-checks, then a fixed warm-up prefix
  // whose result checksums are a pure function of the seed.
  const CheckCount cross = workload->CrossCheck(db.get());
  std::vector<uint64_t> next(sessions.size(), 0);
  WindowOptions warm_options;
  warm_options.seconds = 0;
  warm_options.checksum_prefix = kChecksumPrefix;
  const WindowResult warm = RunWindow(workload.get(), db.get(), sessions, &next, warm_options);

  WindowOptions main_options;
  main_options.seconds = args.trace ? args.seconds / 2 : args.seconds;
  start_probe = true;
  const WindowResult main_window =
      RunWindow(workload.get(), db.get(), sessions, &next, main_options);
  probe_thread.request_stop();
  if (probe_thread.joinable()) probe_thread.join();
  WindowResult traced;
  const relopt::PlanCache::Stats cache_before = db->plan_cache()->stats();
  if (args.trace) {
    WindowOptions traced_options;
    traced_options.seconds = args.seconds / 2;
    traced_options.traced = true;
    traced = RunWindow(workload.get(), db.get(), sessions, &next, traced_options);
  }
  const relopt::PlanCache::Stats cache_after = db->plan_cache()->stats();
  const CheckCount final_check = workload->FinalCheck(db.get());
  const double peak_rss_mb = PeakRssMb();
  db.reset();
  for (int k = 1; k < workload->num_setups(); ++k) {
    if (!set_up(&db)) return 1;
  }
  db.reset();

  const size_t bursts = probe.chunks.empty() ? 0 : size_t{probe.chunks.back()} + 1;
  const std::string write_source =
      probed ? relopt::StringPrintf("write probe, fastest of %zu bursts", bursts) : "writes";
  const uint64_t attempted = warm.attempted + main_window.attempted + traced.attempted +
                             probe.attempted + cross.checked + final_check.checked;
  const uint64_t failed = warm.failed + main_window.failed + traced.failed + probe.failed +
                          cross.failed + final_check.failed + traced.layers.negative_gaps;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const LatencySummary reads = Summarize(main_window.read_nanos, main_window.read_chunks);
    const LatencySummary writes =
        probed ? SummarizeFastest(probe.nanos, probe.chunks, kProbeShare)
               : Summarize(main_window.write_nanos, main_window.write_chunks);
    metrics = {
        {"setup_s", Median(setup_walls), "s",
         relopt::StringPrintf("median of %zu set-ups", setup_walls.size())},
        {"throughput_qps", EngineThroughput(main_window, sessions.size()), "1/s",
         relopt::StringPrintf("%zu statements in %.2f s",
                              main_window.read_nanos.size() + main_window.write_nanos.size(),
                              main_window.seconds)},
        {"read_p50_us", reads.p50_us, "us", LatencyNote(reads, "reads")},
        {"read_tail_us", reads.tail_us, "us", LatencyNote(reads, "reads")},
        {"write_p50_us", writes.p50_us, "us", LatencyNote(writes, write_source.c_str())},
        {"write_tail_us", writes.tail_us, "us", LatencyNote(writes, write_source.c_str())},
        {"page_reads_per_stmt",
         static_cast<double>(main_window.pool_accesses) /
             static_cast<double>(std::max<size_t>(
                 1, main_window.read_nanos.size() + main_window.write_nanos.size())),
         "count", "buffer-pool page fetches (planning and execution) per statement"},
        {"peak_rss_mb", peak_rss_mb, "MB",
         "getrusage max RSS of this process before the closing set-ups"},
    };
  } else {
    if (traced.layers.reads == 0) {
      std::fprintf(stderr, "traced run replayed no read statement\n");
      return 1;
    }
    metrics = LayerMetrics(traced, main_window, setups);
  }

  // Run metadata and every exact count the self-test compares.
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  std::string checksums;
  for (uint64_t c : warm.checksums) {
    checksums += (checksums.empty() ? "" : ", ") + std::to_string(c);
  }
  std::string templates;
  for (const auto& [tmpl, nanos] : main_window.template_nanos) {
    const LatencySummary t = Summarize(nanos);
    templates += relopt::StringPrintf("%s{\"template\": %d, \"n\": %zu, \"p50_us\": %s}",
                                      templates.empty() ? "" : ", ", tmpl, t.samples,
                                      JsonNumber(t.p50_us).c_str());
  }
  const LayerTotals& lt = traced.layers;
  const std::string report = relopt::StringPrintf(
      "{\"workload\": \"%s\", \"why\": \"%s\", \"sizes\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"host_cores\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"sessions\": %zu, \"setups\": %zu, "
      "\"attempted\": %llu, \"failed\": %llu, \"failed_frac\": %s, "
      "\"cross_checks\": %llu, \"warmup_checksums\": [%s], \"templates\": [%s], "
      "\"exact\": {\"window_statements\": %zu, \"window_pool_accesses\": %llu, "
      "\"traced_statements\": %llu, \"traced_page_reads\": %llu, \"traced_page_writes\": %llu, "
      "\"traced_pool_hits\": %llu, \"traced_pool_misses\": %llu, \"traced_evictions\": %llu, "
      "\"traced_dirty_writebacks\": %llu, \"traced_joins_costed\": %llu, "
      "\"traced_plan_cache_hits\": %llu, \"traced_plan_cache_misses\": %llu}, "
      "\"metrics\": %s}\n",
      relopt::JsonEscape(workload->name()).c_str(), relopt::JsonEscape(workload->why()).c_str(),
      relopt::JsonEscape(workload->sizes()).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace, std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, sessions.size(), setup_walls.size(),
      static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
      JsonNumber(failed_frac).c_str(), static_cast<unsigned long long>(cross.checked),
      checksums.c_str(), templates.c_str(),
      main_window.read_nanos.size() + main_window.write_nanos.size(),
      static_cast<unsigned long long>(main_window.pool_accesses),
      static_cast<unsigned long long>(lt.statements),
      static_cast<unsigned long long>(lt.page_reads),
      static_cast<unsigned long long>(lt.page_writes),
      static_cast<unsigned long long>(lt.pool_hits),
      static_cast<unsigned long long>(lt.pool_misses),
      static_cast<unsigned long long>(lt.evictions),
      static_cast<unsigned long long>(lt.dirty_writebacks),
      static_cast<unsigned long long>(lt.joins_costed),
      static_cast<unsigned long long>(cache_after.hits - cache_before.hits),
      static_cast<unsigned long long>(cache_after.misses - cache_before.misses),
      MetricsJson(metrics, true).c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.report_dir, ec);
  const std::string stem = args.report_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + std::to_string(args.trace);
  std::ofstream(stem + ".json") << report;
  if (args.trace) {
    Status written = WriteChromeTrace(traced.spans, stem + ".spans.json");
    if (!written.ok()) std::fprintf(stderr, "%s\n", written.ToString().c_str());
  }

  std::printf("# workload %s, seed %llu, %g s, trace %d\n# why: %s\n# sizes: %s\n",
              workload->name(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, workload->why(), workload->sizes().c_str());
  std::printf("# host: %u cores, %s, %s build\n", std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("%-32s %16.6f %-8s %llu of %llu\n", "failed_frac", failed_frac, "fraction",
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--report-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
