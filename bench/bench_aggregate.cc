// A1 — Partitioned hash aggregation: row vs batch drive, serial vs morsel-parallel.
//
// Grouped (low- and high-cardinality keys) and global aggregates over a
// ~200k-row table, executed in the full mode matrix: serial row (baseline),
// serial batch 1024, and parallelism 2/4 in both drive modes. Expected shape:
// batch 1024 amortizes the per-row iterator overhead and evaluates group keys
// through the multi-column key kernel, giving >=1.5x on grouped aggregation
// even on one hardware thread; high-cardinality grouping gains less (the hash
// table dominates, not the drive loop). Parallel speedup ON MULTI-CORE
// HARDWARE adds on top of that via per-worker partitions and a disjoint
// merge; on a single hardware thread the parallel rows are flat-to-slightly-
// negative — the partition/barrier machinery costs a few percent with nothing
// to run concurrently — and the printed `hw_threads` column makes that
// context explicit. Page reads are identical across all modes by
// construction (every mode pins one page at a time through the same scan),
// which the `reads` column makes visible. The optional argv[1] overrides the
// row count (tiny values = sanitizer smoke runs).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workload/generator.h"

using namespace relopt;
using namespace relopt::bench;

namespace {

struct RunPoint {
  std::string query_label;
  std::string mode;  // "row", "batch1024"
  size_t parallelism = 1;
  size_t batch_size = 0;  // 0 = row mode
  double ms = 0;
  uint64_t reads = 0;
  uint64_t rows = 0;
  double speedup = 1.0;  // serial_row_ms / ms
};

void DumpSummary(const std::vector<RunPoint>& points, size_t table_rows,
                 unsigned hw_threads) {
  const char* dir = std::getenv("RELOPT_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/aggregate_summary.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"table_rows\":%zu,\"hardware_threads\":%u,\"points\":[", table_rows,
               hw_threads);
  for (size_t i = 0; i < points.size(); ++i) {
    const RunPoint& p = points[i];
    std::fprintf(f,
                 "%s{\"query\":\"%s\",\"mode\":\"%s\",\"parallelism\":%zu,"
                 "\"batch_size\":%zu,\"ms\":%.3f,\"page_reads\":%llu,\"rows\":%llu,"
                 "\"speedup_vs_serial_row\":%.3f}",
                 i == 0 ? "" : ",", p.query_label.c_str(), p.mode.c_str(), p.parallelism,
                 p.batch_size, p.ms, static_cast<unsigned long long>(p.reads),
                 static_cast<unsigned long long>(p.rows), p.speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  size_t table_rows = 200000;
  if (argc > 1) table_rows = static_cast<size_t>(std::strtoull(argv[1], nullptr, 10));
  if (table_rows == 0) table_rows = 200000;
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "A1: partitioned hash aggregation -- %zu-row table, grouped (low/high\n"
      "cardinality) and global aggregates, serial row baseline vs batch 1024\n"
      "vs parallelism 2/4 in both drive modes. hw_threads=%u: parallel rows\n"
      "only beat serial when that is > 1; the batch-drive speedup is\n"
      "thread-count independent. Page reads are identical across modes.\n\n",
      table_rows, hw_threads);

  SessionOptions options;
  options.buffer_pool_pages = 512;
  Database db(options);

  // g_low: ~10 groups (fits in cache, drive loop dominates). g_high: ~1/4 of
  // the table distinct (hash-table growth and key encoding dominate). v: the
  // aggregated payload.
  TableSpec big;
  big.name = "big";
  big.num_rows = table_rows;
  big.columns = {ColumnSpec::Serial("id"), ColumnSpec::Uniform("g_low", 0, 9),
                 ColumnSpec::Uniform("g_high", 0, static_cast<int64_t>(table_rows / 4)),
                 ColumnSpec::Uniform("v", 0, 10000)};
  CheckOk(GenerateTable(&db, big));

  struct QuerySpec {
    const char* label;
    const char* sql;
  };
  const QuerySpec kQueries[] = {
      {"group_low", "SELECT g_low, count(*), sum(v), min(v), max(v) FROM big GROUP BY g_low"},
      {"group_high", "SELECT g_high, count(*), sum(v) FROM big GROUP BY g_high"},
      {"group_multi", "SELECT g_low, g_high % 100, count(*), avg(v) FROM big "
                      "GROUP BY g_low, g_high % 100"},
      {"global", "SELECT count(*), sum(v), min(v), max(v), avg(v) FROM big"},
  };
  const size_t kParallelisms[] = {1, 2, 4};

  std::vector<RunPoint> points;
  TablePrinter table({"query", "mode", "par", "ms", "reads", "rows", "speedup_vs_serial_row"});
  double headline_speedup = 0;  // group_low @ serial batch 1024

  for (const QuerySpec& q : kQueries) {
    double serial_row_ms = 0;
    for (size_t par : kParallelisms) {
      db.set_parallelism(par);
      for (bool vectorized : {false, true}) {
        db.set_vectorized(vectorized);
        if (vectorized) db.set_batch_size(1024);
        Measured m = BestOf3(&db, q.sql);
        if (par == 1 && !vectorized) serial_row_ms = m.millis;
        double speedup = m.millis > 0 ? serial_row_ms / m.millis : 0;
        const char* mode = vectorized ? "batch1024" : "row";
        points.push_back({q.label, mode, par, vectorized ? size_t{1024} : size_t{0}, m.millis,
                          m.actual_reads, m.rows, speedup});
        table.AddRow({q.label, mode, FInt(par), F(m.millis, 2), FInt(m.actual_reads),
                      FInt(m.rows), F(speedup, 2)});
        if (std::string(q.label) == "group_low" && par == 1 && vectorized) {
          headline_speedup = speedup;
          MaybeDumpProfile(m, "aggregate_group_low_batch1024");
        }
        if (par == 1 && !vectorized) {
          MaybeDumpProfile(m, std::string("aggregate_") + q.label + "_row");
        }
        if (std::string(q.label) == "group_low" && par == 4 && vectorized) {
          MaybeDumpProfile(m, "aggregate_group_low_par4_batch1024");
        }
      }
    }
    db.set_parallelism(1);
    db.set_vectorized(true);
    db.set_batch_size(TupleBatch::kDefaultCapacity);
  }

  table.Print();
  std::printf(
      "\nheadline: low-cardinality grouped aggregation @ serial batch 1024 is "
      "%.2fx the serial row baseline (hw_threads=%u)\n",
      headline_speedup, hw_threads);
  DumpSummary(points, table_rows, hw_threads);
  return 0;
}
